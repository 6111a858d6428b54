//! Congestion control: Reno and the MPTCP Linked-Increases Algorithm (LIA).
//!
//! The congestion window is kept in bytes. Reno (RFC 5681) drives
//! single-path TCP; LIA (RFC 6356) couples the increase of MPTCP subflows:
//! per ACK on subflow *i*,
//! `cwnd_i += min(alpha * acked * mss / cwnd_total, acked * mss / cwnd_i)`,
//! with `alpha` recomputed across subflows by the MPTCP connection (the
//! `emptcp-mptcp` crate) and injected via [`CongestionCtrl::set_lia`].
//! Decrease behaviour (halving on fast retransmit, collapse on RTO) is
//! uncoupled, exactly as in LIA.

use serde::{Deserialize, Serialize};

/// Which increase rule the window follows in congestion avoidance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CcAlgorithm {
    /// Standard Reno (single-path, and the per-subflow baseline).
    Reno,
    /// MPTCP coupled increases (RFC 6356).
    Lia,
}

/// Per-flow congestion-control state.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CongestionCtrl {
    algorithm: CcAlgorithm,
    mss: u32,
    cwnd: u64,
    ssthresh: u64,
    initial_cwnd: u64,
    /// LIA coupling: the connection-wide `alpha` and total cwnd, refreshed
    /// by the MPTCP layer.
    lia_alpha: f64,
    lia_total_cwnd: u64,
    /// Byte accumulator for sub-MSS congestion-avoidance increases.
    increase_credit_bytes: f64,
}

impl CongestionCtrl {
    /// A fresh window: `init_segments * mss`, effectively unbounded ssthresh.
    pub fn new(algorithm: CcAlgorithm, mss: u32, init_segments: u32) -> Self {
        let initial_cwnd = mss as u64 * init_segments as u64;
        CongestionCtrl {
            algorithm,
            mss,
            cwnd: initial_cwnd,
            ssthresh: u64::MAX,
            initial_cwnd,
            lia_alpha: 1.0,
            lia_total_cwnd: initial_cwnd,
            increase_credit_bytes: 0.0,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    /// True while in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// The configured MSS.
    pub fn mss(&self) -> u32 {
        self.mss
    }

    /// Refresh the LIA coupling parameters (no-op under Reno).
    pub fn set_lia(&mut self, alpha: f64, total_cwnd: u64) {
        self.lia_alpha = alpha.max(0.0);
        self.lia_total_cwnd = total_cwnd.max(self.mss as u64);
    }

    /// Bytes newly acknowledged.
    pub fn on_ack(&mut self, acked_bytes: u64) {
        if self.in_slow_start() {
            // Classic exponential growth, capped at ssthresh crossing.
            self.cwnd = (self.cwnd + acked_bytes).min(self.ssthresh.max(self.cwnd));
            return;
        }
        let mss = self.mss as f64;
        let increase = match self.algorithm {
            CcAlgorithm::Reno => acked_bytes as f64 * mss / self.cwnd as f64,
            CcAlgorithm::Lia => {
                let coupled =
                    self.lia_alpha * acked_bytes as f64 * mss / self.lia_total_cwnd as f64;
                let solo = acked_bytes as f64 * mss / self.cwnd as f64;
                coupled.min(solo)
            }
        };
        self.increase_credit_bytes += increase;
        if self.increase_credit_bytes >= 1.0 {
            let whole = self.increase_credit_bytes.floor();
            self.cwnd += whole as u64;
            self.increase_credit_bytes -= whole;
        }
    }

    /// Loss detected by fast retransmit: multiplicative decrease.
    pub fn on_fast_retransmit(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss as u64);
        self.cwnd = self.ssthresh;
        self.increase_credit_bytes = 0.0;
    }

    /// Retransmission timeout: collapse to one segment.
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss as u64);
        self.cwnd = self.mss as u64;
        self.increase_credit_bytes = 0.0;
    }

    /// RFC 2861 congestion-window validation after an idle period: the
    /// window is halved once per RTO of idleness, flooring at the initial
    /// window (ssthresh is preserved so the flow re-probes quickly).
    /// eMPTCP *disables* this for resumed subflows.
    pub fn restart_after_idle(&mut self, idle_rto_periods: u32) {
        let halvings = idle_rto_periods.min(63);
        self.cwnd = (self.cwnd >> halvings).max(self.initial_cwnd);
        self.increase_credit_bytes = 0.0;
    }

    /// The initial window in bytes (used by eq. 1's `W_init`).
    pub fn initial_cwnd(&self) -> u64 {
        self.initial_cwnd
    }
}

/// Compute the LIA `alpha` for a set of subflows given `(cwnd_bytes, rtt_s)`
/// pairs (RFC 6356 §3):
///
/// `alpha = total_cwnd * max_i(cwnd_i / rtt_i^2) / (sum_i(cwnd_i / rtt_i))^2`
///
/// Subflows with unknown (zero) RTT are ignored; returns 1.0 if nothing
/// usable remains (a single uncoupled flow behaves like Reno).
pub fn lia_alpha(flows: &[(u64, f64)]) -> f64 {
    let usable = || {
        flows
            .iter()
            .filter(|&&(cwnd, rtt)| cwnd > 0 && rtt > 0.0)
            .map(|&(cwnd, rtt)| (cwnd as f64, rtt))
    };
    if usable().next().is_none() {
        return 1.0;
    }
    let total: f64 = usable().map(|(c, _)| c).sum();
    let max_term = usable().map(|(c, r)| c / (r * r)).fold(0.0_f64, f64::max);
    let sum_term: f64 = usable().map(|(c, r)| c / r).sum();
    if sum_term <= 0.0 {
        return 1.0;
    }
    (total * max_term / (sum_term * sum_term)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1428;

    fn reno() -> CongestionCtrl {
        CongestionCtrl::new(CcAlgorithm::Reno, MSS, 10)
    }

    #[test]
    fn initial_window() {
        let cc = reno();
        assert_eq!(cc.cwnd(), 10 * MSS as u64);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = reno();
        let w0 = cc.cwnd();
        // Acking a full window in slow start doubles it.
        cc.on_ack(w0);
        assert_eq!(cc.cwnd(), 2 * w0);
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut cc = reno();
        cc.on_fast_retransmit(); // forces ssthresh = cwnd/2, leaves SS
        assert!(!cc.in_slow_start());
        let w = cc.cwnd();
        // One full window of ACKs grows cwnd by ~one MSS.
        cc.on_ack(w);
        assert!(
            (cc.cwnd() as i64 - (w + MSS as u64) as i64).unsigned_abs() <= 2,
            "cwnd {} expected ~{}",
            cc.cwnd(),
            w + MSS as u64
        );
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut cc = reno();
        cc.on_ack(cc.cwnd()); // grow a bit
        let w = cc.cwnd();
        cc.on_fast_retransmit();
        assert_eq!(cc.cwnd(), (w / 2).max(2 * MSS as u64));
        assert_eq!(cc.ssthresh(), cc.cwnd());
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut cc = reno();
        cc.on_ack(cc.cwnd());
        let w = cc.cwnd();
        cc.on_timeout();
        assert_eq!(cc.cwnd(), MSS as u64);
        assert_eq!(cc.ssthresh(), (w / 2).max(2 * MSS as u64));
        assert!(cc.in_slow_start());
    }

    #[test]
    fn floor_of_two_mss() {
        let mut cc = reno();
        for _ in 0..10 {
            cc.on_fast_retransmit();
        }
        assert_eq!(cc.ssthresh(), 2 * MSS as u64);
    }

    #[test]
    fn idle_restart_halves_per_rto() {
        let mut cc = reno();
        cc.on_ack(cc.cwnd());
        cc.on_ack(cc.cwnd());
        cc.on_ack(cc.cwnd());
        let grown = cc.cwnd();
        assert!(grown > 4 * cc.initial_cwnd());
        // One idle RTO: one halving.
        cc.restart_after_idle(1);
        assert_eq!(cc.cwnd(), grown / 2);
        // A long idle period floors at the initial window.
        cc.restart_after_idle(40);
        assert_eq!(cc.cwnd(), cc.initial_cwnd());
        // Degenerate huge period must not shift out of range.
        cc.restart_after_idle(u32::MAX);
        assert_eq!(cc.cwnd(), cc.initial_cwnd());
    }

    #[test]
    fn lia_increase_never_exceeds_reno() {
        let mut lia = CongestionCtrl::new(CcAlgorithm::Lia, MSS, 10);
        let mut reno = reno();
        lia.on_fast_retransmit();
        reno.on_fast_retransmit();
        lia.set_lia(2.0, lia.cwnd() * 2);
        // With alpha/total equal to 1/cwnd the increases tie; make alpha
        // large so min() must clip at the Reno rate.
        lia.set_lia(1e9, lia.cwnd());
        let w = lia.cwnd();
        lia.on_ack(w);
        reno.on_ack(w);
        assert!(lia.cwnd() <= reno.cwnd() + 1);
    }

    #[test]
    fn lia_coupling_slows_growth() {
        let mut lia = CongestionCtrl::new(CcAlgorithm::Lia, MSS, 10);
        lia.on_fast_retransmit();
        let w = lia.cwnd();
        // alpha = 0.5 with total twice the local window: increase should be
        // about a quarter of Reno's.
        lia.set_lia(0.5, 2 * w);
        lia.on_ack(w);
        let growth = lia.cwnd() - w;
        assert!(
            growth < MSS as u64 / 2,
            "coupled growth {growth} not damped"
        );
    }

    #[test]
    fn lia_alpha_symmetric_paths() {
        // Two identical subflows: alpha = total * (c/r^2) / (2c/r)^2
        //                        = 2c * c/r^2 / (4c^2/r^2) = 1/2.
        let a = lia_alpha(&[(100_000, 0.1), (100_000, 0.1)]);
        assert!((a - 0.5).abs() < 1e-12, "{a}");
    }

    #[test]
    fn lia_alpha_single_flow_is_one() {
        let a = lia_alpha(&[(100_000, 0.05)]);
        assert!((a - 1.0).abs() < 1e-12, "{a}");
    }

    #[test]
    fn lia_alpha_ignores_unknown_rtt() {
        let a = lia_alpha(&[(100_000, 0.05), (50_000, 0.0)]);
        assert!((a - 1.0).abs() < 1e-12, "{a}");
        assert_eq!(lia_alpha(&[]), 1.0);
        assert_eq!(lia_alpha(&[(0, 0.0)]), 1.0);
    }

    #[test]
    fn lia_alpha_asymmetric_favors_fast_path() {
        // A fast path (small RTT) should push alpha up relative to the
        // symmetric case.
        let sym = lia_alpha(&[(100_000, 0.1), (100_000, 0.1)]);
        let asym = lia_alpha(&[(100_000, 0.02), (100_000, 0.1)]);
        assert!(asym > sym);
    }
}
