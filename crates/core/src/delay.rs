//! Delayed cellular subflow establishment (§3.5).
//!
//! eMPTCP avoids the cellular promotion and tail for transfers that WiFi
//! can finish alone:
//!
//! * the cellular subflow is not started until κ bytes (default 1 MB)
//!   arrive over WiFi — Fig 4 shows MPTCP is rarely the most efficient way
//!   to finish anything smaller;
//! * a timer of τ seconds (default 3 s) backstops slow WiFi, where κ might
//!   never be reached; eq. (1) lower-bounds τ by the time needed to collect
//!   φ throughput samples after WiFi's slow-start settles;
//! * even when κ or τ fire, establishment is postponed while the EIB says
//!   WiFi-only is the most efficient usage, and while the connection is
//!   idle (no packets within an estimated RTT — HTTP keep-alive
//!   connections must not wake the radio).

use emptcp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Equation (1): the smallest τ that guarantees `phi` throughput samples
/// after the WiFi subflow's slow start has filled the pipe:
///
/// `tau >= R_W * ( log2( (B_W * R_W + W_init) / W_init ) + phi )`
///
/// with `bw_mbps` the available WiFi throughput, `rtt` the WiFi RTT and
/// `winit_bytes` the initial congestion window.
pub fn min_tau(bw_mbps: f64, rtt: SimDuration, winit_bytes: u64, phi: u32) -> SimDuration {
    let r = rtt.as_secs_f64();
    let bw_bytes_per_sec = bw_mbps.max(0.0) * 1e6 / 8.0;
    let winit = winit_bytes.max(1) as f64;
    let ramp = ((bw_bytes_per_sec * r + winit) / winit).log2().max(0.0);
    SimDuration::from_secs_f64(r * (ramp + phi as f64))
}

/// Configuration of the delayed-establishment rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DelayConfig {
    /// κ: bytes over WiFi before the cellular subflow may start.
    pub kappa_bytes: u64,
    /// τ: timer backstop from connection establishment.
    pub tau: SimDuration,
    /// Debounce: the EIB must want more than WiFi-only for this many
    /// consecutive evaluations before a trigger fires. Filters transient
    /// application-limited throughput dips (a request/response turnaround
    /// is not a degraded AP).
    pub debounce_evals: u32,
    /// Recompute τ at run time from eq. (1) using the live WiFi RTT and
    /// predicted bandwidth, instead of the fixed 3 s. The paper flags
    /// tuning τ as future work (§4.1); this is that refinement, clamped to
    /// `[tau, 4*tau]` so pathological estimates cannot disable the timer.
    pub adaptive_tau: bool,
}

impl Default for DelayConfig {
    fn default() -> Self {
        DelayConfig {
            // The paper's evaluation settings (§4.1).
            kappa_bytes: 1 << 20,
            tau: SimDuration::from_secs(3),
            debounce_evals: 10,
            adaptive_tau: false,
        }
    }
}

/// Why establishment was (finally) triggered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum EstablishTrigger {
    /// κ bytes arrived over WiFi.
    KappaReached,
    /// The τ timer expired on a non-idle connection.
    TimerExpired,
}

/// The delayed-establishment state machine for one connection.
#[derive(Clone, Debug)]
pub struct DelayedEstablishment {
    config: DelayConfig,
    /// When the (WiFi) connection was established; τ counts from here.
    started_at: Option<SimTime>,
    triggered: Option<EstablishTrigger>,
    /// Consecutive evaluations where the EIB wanted more than WiFi-only.
    non_wifi_streak: u32,
    /// The τ in effect (equals `config.tau` unless adaptive).
    effective_tau: SimDuration,
}

impl DelayedEstablishment {
    /// A fresh state machine.
    pub fn new(config: DelayConfig) -> Self {
        DelayedEstablishment {
            config,
            started_at: None,
            triggered: None,
            non_wifi_streak: 0,
            effective_tau: config.tau,
        }
    }

    /// The τ currently in effect.
    #[cfg(test)]
    fn effective_tau(&self) -> SimDuration {
        self.effective_tau
    }

    /// Refresh τ from eq. (1) with live estimates (no-op unless the config
    /// enables adaptive τ). `phi = 10` samples, as in the paper's §4.1
    /// calculation.
    pub fn refresh_tau(
        &mut self,
        wifi_bw_mbps: f64,
        wifi_rtt: SimDuration,
        initial_cwnd_bytes: u64,
    ) {
        if !self.config.adaptive_tau {
            return;
        }
        let bound = min_tau(wifi_bw_mbps, wifi_rtt, initial_cwnd_bytes, 10);
        self.effective_tau = bound.clamp(self.config.tau, self.config.tau * 4);
    }

    /// The configuration.
    pub fn config(&self) -> &DelayConfig {
        &self.config
    }

    /// Note that the primary (WiFi) subflow finished its handshake.
    pub fn on_connection_established(&mut self, now: SimTime) {
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
    }

    /// Has establishment been triggered (and by what)?
    pub fn triggered(&self) -> Option<EstablishTrigger> {
        self.triggered
    }

    /// Evaluate the rules. Arguments are the current facts:
    /// `wifi_bytes` — bytes received over WiFi so far; `wifi_only_best` —
    /// the EIB's verdict on the predicted throughputs; `idle` — §3.5's
    /// idle test (no packets within an estimated RTT).
    ///
    /// Returns `Some(trigger)` exactly once, at the evaluation that decides
    /// to establish the cellular subflow.
    pub fn evaluate(
        &mut self,
        now: SimTime,
        wifi_bytes: u64,
        wifi_only_best: bool,
        idle: bool,
    ) -> Option<EstablishTrigger> {
        if self.triggered.is_some() {
            return None;
        }
        let Some(started) = self.started_at else {
            return None; // connection not yet up
        };
        // The EIB postponement applies to both triggers: as long as
        // WiFi-only is the most efficient usage there is nothing to gain
        // from waking the cellular radio. A short streak requirement
        // debounces transient application-limited dips.
        if wifi_only_best {
            self.non_wifi_streak = 0;
            return None;
        }
        self.non_wifi_streak += 1;
        if self.non_wifi_streak < self.config.debounce_evals {
            return None;
        }
        if wifi_bytes >= self.config.kappa_bytes {
            self.triggered = Some(EstablishTrigger::KappaReached);
            return self.triggered;
        }
        if now.saturating_since(started) >= self.effective_tau && !idle {
            self.triggered = Some(EstablishTrigger::TimerExpired);
            return self.triggered;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn eq1_matches_papers_setting() {
        // §4.1: "the estimated condition based on equation (1) to guarantee
        // ten bandwidth samples is tau >= 2.67 s" — for their WiFi setup.
        // With RTT 25 ms, IW10 (14280 B), 10 Mbps and phi = 10:
        let tau = min_tau(10.0, SimDuration::from_millis(25), 14_280, 10);
        let secs = tau.as_secs_f64();
        assert!(secs > 0.25 && secs < 0.5, "tau {secs}");
        // Their ~2.67 s arises from a larger RTT; with RTT 190 ms the
        // formula lands on the paper's number almost exactly.
        let tau2 = min_tau(10.0, SimDuration::from_millis(190), 14_280, 10);
        let secs2 = tau2.as_secs_f64();
        assert!(secs2 > 2.4 && secs2 < 3.0, "tau {secs2}");
    }

    #[test]
    fn eq1_monotone_in_inputs() {
        let base = min_tau(10.0, SimDuration::from_millis(50), 14_280, 10);
        assert!(min_tau(20.0, SimDuration::from_millis(50), 14_280, 10) > base);
        assert!(min_tau(10.0, SimDuration::from_millis(100), 14_280, 10) > base);
        assert!(min_tau(10.0, SimDuration::from_millis(50), 14_280, 20) > base);
    }

    #[test]
    fn eq1_degenerate_inputs() {
        // Zero bandwidth: just phi RTTs.
        let tau = min_tau(0.0, SimDuration::from_millis(100), 14_280, 10);
        assert!((tau.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    fn machine() -> DelayedEstablishment {
        // Tests exercise the rules directly; a streak of 1 keeps them
        // single-shot (debouncing has its own test).
        DelayedEstablishment::new(DelayConfig {
            debounce_evals: 1,
            ..DelayConfig::default()
        })
    }

    #[test]
    fn debounce_filters_transient_dips() {
        let mut d = DelayedEstablishment::new(DelayConfig {
            debounce_evals: 3,
            ..DelayConfig::default()
        });
        d.on_connection_established(s(0));
        // Two non-WiFi evaluations, then a WiFi-best one: streak resets.
        assert_eq!(d.evaluate(s(10), 1 << 20, false, false), None);
        assert_eq!(d.evaluate(s(11), 1 << 20, false, false), None);
        assert_eq!(d.evaluate(s(12), 1 << 20, true, false), None);
        assert_eq!(d.evaluate(s(13), 1 << 20, false, false), None);
        assert_eq!(d.evaluate(s(14), 1 << 20, false, false), None);
        // Third consecutive: trigger.
        assert_eq!(
            d.evaluate(s(15), 1 << 20, false, false),
            Some(EstablishTrigger::KappaReached)
        );
    }

    #[test]
    fn nothing_before_connection_up() {
        let mut d = machine();
        assert_eq!(d.evaluate(s(100), u64::MAX, false, false), None);
    }

    #[test]
    fn kappa_triggers_when_eib_agrees() {
        let mut d = machine();
        d.on_connection_established(s(0));
        // Below kappa: nothing.
        assert_eq!(d.evaluate(s(1), 1 << 19, false, false), None);
        // kappa reached but WiFi-only still best: postponed.
        assert_eq!(d.evaluate(s(1), 1 << 20, true, false), None);
        // kappa reached and EIB wants more than WiFi: trigger.
        assert_eq!(
            d.evaluate(s(1), 1 << 20, false, false),
            Some(EstablishTrigger::KappaReached)
        );
        // Only fires once.
        assert_eq!(d.evaluate(s(2), 1 << 21, false, false), None);
        assert_eq!(d.triggered(), Some(EstablishTrigger::KappaReached));
    }

    #[test]
    fn timer_triggers_on_slow_wifi() {
        let mut d = machine();
        d.on_connection_established(s(0));
        assert_eq!(d.evaluate(s(2), 1000, false, false), None);
        assert_eq!(
            d.evaluate(s(3), 1000, false, false),
            Some(EstablishTrigger::TimerExpired)
        );
    }

    #[test]
    fn idle_connection_postpones_timer() {
        let mut d = machine();
        d.on_connection_established(s(0));
        // Timer long expired, but the connection is idle (HTTP keep-alive):
        assert_eq!(d.evaluate(s(100), 1000, false, true), None);
        // Activity resumes: trigger.
        assert_eq!(
            d.evaluate(s(101), 1000, false, false),
            Some(EstablishTrigger::TimerExpired)
        );
    }

    #[test]
    fn adaptive_tau_tracks_eq1() {
        let mut d = DelayedEstablishment::new(DelayConfig {
            adaptive_tau: true,
            ..DelayConfig::default()
        });
        assert_eq!(d.effective_tau(), SimDuration::from_secs(3));
        // Fast WiFi, long RTT: eq. (1) demands more than 3 s.
        d.refresh_tau(10.0, SimDuration::from_millis(300), 14_280);
        assert!(d.effective_tau() > SimDuration::from_secs(4));
        assert!(d.effective_tau() <= SimDuration::from_secs(12));
        // Short RTT: the bound collapses, clamped at the configured floor.
        d.refresh_tau(10.0, SimDuration::from_millis(20), 14_280);
        assert_eq!(d.effective_tau(), SimDuration::from_secs(3));
        // Non-adaptive configs ignore refreshes entirely.
        let mut fixed = DelayedEstablishment::new(DelayConfig::default());
        fixed.refresh_tau(10.0, SimDuration::from_millis(300), 14_280);
        assert_eq!(fixed.effective_tau(), SimDuration::from_secs(3));
    }

    #[test]
    fn adaptive_tau_delays_the_trigger() {
        let mut d = DelayedEstablishment::new(DelayConfig {
            adaptive_tau: true,
            debounce_evals: 1,
            ..DelayConfig::default()
        });
        d.on_connection_established(s(0));
        d.refresh_tau(10.0, SimDuration::from_millis(300), 14_280);
        // Past the fixed 3 s but below the adaptive bound: no trigger.
        assert_eq!(d.evaluate(s(4), 1000, false, false), None);
        // Past the adaptive bound: fires.
        assert_eq!(
            d.evaluate(s(13), 1000, false, false),
            Some(EstablishTrigger::TimerExpired)
        );
    }

    #[test]
    fn good_wifi_never_establishes() {
        let mut d = machine();
        d.on_connection_established(s(0));
        for t in 1..1000 {
            assert_eq!(d.evaluate(s(t), t * (1 << 20), true, false), None);
        }
        assert_eq!(d.triggered(), None);
    }
}
