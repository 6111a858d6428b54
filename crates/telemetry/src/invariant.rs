//! Online invariant checking.
//!
//! The observer holds conservation properties the stack must satisfy at all
//! times. Instrumented code (and the host simulation's tick loop) feeds it
//! observed quantities; a violated property is recorded — and surfaces as a
//! [`crate::TraceEvent::InvariantViolated`] trace event — instead of
//! panicking, so a single corrupted counter produces a diagnosable trace
//! rather than an aborted run. Tests assert `violations().is_empty()`.

use emptcp_sim::SimTime;
use std::fmt;

/// A single caught invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub at: SimTime,
    pub name: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] invariant `{}` violated: {}",
            self.at, self.name, self.detail
        )
    }
}

/// Collects violations of the stack-wide conservation properties.
#[derive(Debug, Default)]
pub struct InvariantObserver {
    violations: Vec<Violation>,
}

impl InvariantObserver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a failed check directly.
    pub fn report(&mut self, at: SimTime, name: &'static str, detail: String) {
        self.violations.push(Violation { at, name, detail });
    }

    /// Generic check: record a violation when `ok` is false. Returns `ok`
    /// so callers can chain. The detail closure only runs on failure.
    pub fn check(
        &mut self,
        at: SimTime,
        name: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) -> bool {
        if !ok {
            self.report(at, name, detail());
        }
        ok
    }

    /// Cumulative bytes ACKed on a flow can never exceed bytes sent. The
    /// `label` is only formatted on failure, so a caller may pass
    /// `format_args!` and pay nothing while the check holds.
    pub fn check_ack_conservation(
        &mut self,
        at: SimTime,
        label: impl fmt::Display,
        bytes_acked: u64,
        bytes_sent: u64,
    ) {
        self.check(at, "ack_conservation", bytes_acked <= bytes_sent, || {
            format!("{label}: acked {bytes_acked} > sent {bytes_sent}")
        });
    }

    /// DSS reassembly must deliver the in-order byte stream exactly once:
    /// bytes handed to the application equal the receive-window advance.
    pub fn check_dss_coverage(
        &mut self,
        at: SimTime,
        label: &str,
        bytes_delivered: u64,
        stream_advance: u64,
    ) {
        self.check(
            at,
            "dss_coverage",
            bytes_delivered == stream_advance,
            || {
                format!(
                    "{label}: delivered {bytes_delivered} bytes but the data-level \
                 stream advanced {stream_advance}"
                )
            },
        );
    }

    /// Accumulated energy is an integral of non-negative power: it can
    /// never decrease between observations.
    pub fn check_energy_monotone(&mut self, at: SimTime, prev_joules: f64, now_joules: f64) {
        // Allow for floating-point integration noise.
        self.check(
            at,
            "energy_monotone",
            now_joules >= prev_joules - 1e-9,
            || format!("energy decreased: {prev_joules} J -> {now_joules} J"),
        );
    }

    /// Radio-state residencies must partition elapsed time: their sum
    /// equals the clock advance since tracking began.
    pub fn check_residency_sum(&mut self, at: SimTime, residency_ns_sum: u64, elapsed_ns: u64) {
        self.check(at, "residency_sum", residency_ns_sum == elapsed_ns, || {
            format!(
                "radio-state residencies sum to {residency_ns_sum} ns over \
                     {elapsed_ns} ns elapsed"
            )
        });
    }

    /// End-of-run oracle: every recoverable fault script must still end
    /// with the full workload delivered.
    pub fn check_exact_delivery(&mut self, at: SimTime, label: &str, delivered: u64, asked: u64) {
        self.check(at, "exact_delivery", delivered == asked, || {
            format!("{label}: delivered {delivered} of {asked} bytes")
        });
    }

    /// End-of-run oracle: once the last fault clears, no subflow may still
    /// believe its link is down.
    pub fn check_no_stuck_subflows(&mut self, at: SimTime, label: &str, stuck: u64) {
        self.check(at, "no_stuck_subflows", stuck == 0, || {
            format!("{label}: {stuck} subflow(s) still flagged link-down after recovery")
        });
    }

    /// End-of-run oracle: energy accounting must conserve — the radio
    /// sub-accounts (promotion + tail here) can never exceed the total.
    pub fn check_energy_conservation(
        &mut self,
        at: SimTime,
        label: &str,
        parts_j: f64,
        total_j: f64,
    ) {
        self.check(
            at,
            "energy_conservation",
            parts_j <= total_j + 1e-9 && parts_j >= 0.0,
            || format!("{label}: sub-accounts sum to {parts_j} J of {total_j} J total"),
        );
    }

    /// End-of-run oracle for do-no-harm topologies: the MPTCP client's
    /// share of the bottleneck must stay within `[floor, ceil]` of the
    /// fair split.
    pub fn check_fairness_bounds(
        &mut self,
        at: SimTime,
        label: &str,
        share: f64,
        floor: f64,
        ceil: f64,
    ) {
        self.check(
            at,
            "fairness_bounds",
            (floor..=ceil).contains(&share),
            || format!("{label}: bottleneck share {share:.3} outside [{floor:.3}, {ceil:.3}]"),
        );
    }

    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> SimTime {
        SimTime::from_secs(1)
    }

    #[test]
    fn passing_checks_record_nothing() {
        let mut obs = InvariantObserver::new();
        obs.check_ack_conservation(t(), "sf0", 100, 100);
        obs.check_dss_coverage(t(), "conn0", 42, 42);
        obs.check_energy_monotone(t(), 1.0, 1.0);
        obs.check_residency_sum(t(), 1_000, 1_000);
        assert!(obs.violations().is_empty());
    }

    #[test]
    fn corrupted_counter_is_caught() {
        let mut obs = InvariantObserver::new();
        // A flow claiming more ACKed bytes than it ever sent.
        obs.check_ack_conservation(t(), "sf1", 101, 100);
        assert_eq!(obs.violations().len(), 1);
        let v = &obs.violations()[0];
        assert_eq!(v.name, "ack_conservation");
        assert!(v.detail.contains("101"));
    }

    #[test]
    fn chaos_oracles_catch_their_violations() {
        let mut obs = InvariantObserver::new();
        obs.check_exact_delivery(t(), "run", 100, 100);
        obs.check_no_stuck_subflows(t(), "run", 0);
        obs.check_energy_conservation(t(), "run", 3.0, 5.0);
        obs.check_fairness_bounds(t(), "run", 0.5, 0.3, 0.7);
        assert!(obs.violations().is_empty());

        obs.check_exact_delivery(t(), "run", 99, 100);
        obs.check_no_stuck_subflows(t(), "run", 2);
        obs.check_energy_conservation(t(), "run", 6.0, 5.0);
        obs.check_fairness_bounds(t(), "run", 0.1, 0.3, 0.7);
        let names: Vec<&str> = obs.violations().iter().map(|v| v.name).collect();
        assert_eq!(
            names,
            vec![
                "exact_delivery",
                "no_stuck_subflows",
                "energy_conservation",
                "fairness_bounds"
            ]
        );
    }

    #[test]
    fn energy_rollback_is_caught_but_fp_noise_is_not() {
        let mut obs = InvariantObserver::new();
        obs.check_energy_monotone(t(), 5.0, 5.0 - 1e-12);
        assert!(obs.violations().is_empty(), "fp noise tolerated");
        obs.check_energy_monotone(t(), 5.0, 4.0);
        assert_eq!(obs.violations().len(), 1);
    }
}
