//! The bandwidth predictor (§3.2).
//!
//! The predictor "samples all active subflow throughputs and predicts their
//! future values", categorized per interface. The sampling interval δ per
//! subflow derives from the RTT measured during subflow establishment, and
//! forecasts use Holt-Winters exponential smoothing — level plus trend,
//! which the time-series literature also calls Holt's linear method (the
//! paper's forecasting horizon is one step, so no seasonal component is
//! warranted).
//!
//! Two cold-start rules from the paper:
//!
//! * a **never-activated** interface is assumed to deliver a non-zero
//!   throughput (5 Mbps) so eMPTCP will probe the path at all;
//! * a **deactivated** interface keeps its old state: old observations are
//!   blended with new samples once it reactivates.

use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Holt-Winters (level + trend) one-step forecaster.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HoltWinters {
    /// Level smoothing factor.
    pub alpha: f64,
    /// Trend smoothing factor.
    pub beta: f64,
    level: Option<f64>,
    trend: f64,
}

impl HoltWinters {
    /// A forecaster with the given smoothing factors in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range");
        assert!((0.0..=1.0).contains(&beta), "beta out of range");
        HoltWinters {
            alpha,
            beta,
            level: None,
            trend: 0.0,
        }
    }

    /// Incorporate an observation.
    pub fn observe(&mut self, x: f64) {
        match self.level {
            None => {
                self.level = Some(x);
                self.trend = 0.0;
            }
            Some(level) => {
                let new_level = self.alpha * x + (1.0 - self.alpha) * (level + self.trend);
                self.trend = self.beta * (new_level - level) + (1.0 - self.beta) * self.trend;
                self.level = Some(new_level);
            }
        }
    }

    /// One-step-ahead forecast, clamped to be non-negative; `None` before
    /// any observation.
    pub fn forecast(&self) -> Option<f64> {
        self.level.map(|l| (l + self.trend).max(0.0))
    }

    /// Age the state toward a prior: move the level `factor` of the way to
    /// `target` and damp the trend. Used while an interface is suspended.
    fn decay_toward(&mut self, target: f64, factor: f64) {
        if let Some(level) = self.level.as_mut() {
            *level += (target - *level) * factor;
        }
        self.trend *= 1.0 - factor;
    }
}

#[derive(Clone, Debug)]
struct IfaceState {
    hw: HoltWinters,
    /// Cumulative delivered bytes at the last sample.
    last_bytes: u64,
    /// When the last sample was taken.
    last_sample_at: SimTime,
    /// Sampling interval δ for this interface.
    delta: SimDuration,
    samples: u64,
}

/// Per-interface throughput sampling and forecasting.
#[derive(Clone, Debug)]
pub struct BandwidthPredictor {
    alpha: f64,
    beta: f64,
    /// Assumed throughput (Mbps) for interfaces never observed (§3.2's
    /// "e.g., 5 Mbps").
    initial_assumption_mbps: f64,
    default_delta: SimDuration,
    states: HashMap<IfaceKind, IfaceState>,
}

impl BandwidthPredictor {
    /// Default smoothing (α = 0.4, β = 0.2) and the paper's 5 Mbps
    /// never-activated assumption.
    pub fn new() -> Self {
        Self::with_params(0.4, 0.2, 5.0)
    }

    /// Fully parameterized constructor.
    pub fn with_params(alpha: f64, beta: f64, initial_assumption_mbps: f64) -> Self {
        BandwidthPredictor {
            alpha,
            beta,
            initial_assumption_mbps,
            default_delta: SimDuration::from_millis(250),
            states: HashMap::new(),
        }
    }

    /// Register an interface with its sampling interval δ, derived from the
    /// subflow-establishment RTT (clamped to a sane range: very short RTTs
    /// would oversample — windows shorter than a typical request/response
    /// turnaround read application pauses as bandwidth collapse — and very
    /// long ones starve the controller).
    pub fn register_iface(
        &mut self,
        now: SimTime,
        iface: IfaceKind,
        handshake_rtt: Option<SimDuration>,
    ) {
        let delta = handshake_rtt
            .unwrap_or(self.default_delta)
            .clamp(SimDuration::from_millis(250), SimDuration::from_secs(1));
        self.states.entry(iface).or_insert(IfaceState {
            hw: HoltWinters::new(self.alpha, self.beta),
            last_bytes: 0,
            last_sample_at: now,
            delta,
            samples: 0,
        });
    }

    /// True once `iface` was registered.
    pub fn knows(&self, iface: IfaceKind) -> bool {
        self.states.contains_key(&iface)
    }

    /// Sampling interval δ for an interface (if registered).
    pub fn delta(&self, iface: IfaceKind) -> Option<SimDuration> {
        self.states.get(&iface).map(|s| s.delta)
    }

    /// Offer the current cumulative delivered byte count for `iface`.
    /// A sample is taken only when δ has elapsed since the previous one;
    /// call this as often as convenient. Returns `true` when a new sample
    /// was recorded.
    pub fn offer(&mut self, now: SimTime, iface: IfaceKind, cumulative_bytes: u64) -> bool {
        let Some(st) = self.states.get_mut(&iface) else {
            return false;
        };
        let elapsed = now.saturating_since(st.last_sample_at);
        if elapsed < st.delta {
            return false;
        }
        let bytes = cumulative_bytes.saturating_sub(st.last_bytes);
        let mbps = bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e6;
        st.hw.observe(mbps);
        st.last_bytes = cumulative_bytes;
        st.last_sample_at = now;
        st.samples += 1;
        true
    }

    /// Skip the sampling window without observing (used while an interface
    /// is deliberately suspended: zero throughput there is policy, not
    /// evidence). Old observations are retained per §3.2 — but information
    /// ages: each skipped window nudges the forecast a few percent back
    /// toward the never-activated prior, so a path suspended on a
    /// pessimistic estimate (e.g. a sample taken mid-loss-recovery) gets
    /// another chance within tens of seconds rather than never.
    pub fn skip(&mut self, now: SimTime, iface: IfaceKind, cumulative_bytes: u64) {
        let assumption = self.initial_assumption_mbps;
        if let Some(st) = self.states.get_mut(&iface) {
            let elapsed = now.saturating_since(st.last_sample_at);
            if elapsed < st.delta {
                return;
            }
            st.last_bytes = cumulative_bytes;
            st.last_sample_at = now;
            st.hw.decay_toward(assumption, 0.03);
        }
    }

    /// Predicted throughput (Mbps). Never-activated interfaces yield the
    /// initial assumption; deactivated ones yield their last forecast.
    pub fn predict(&self, iface: IfaceKind) -> f64 {
        self.states
            .get(&iface)
            .and_then(|s| s.hw.forecast())
            .unwrap_or(self.initial_assumption_mbps)
    }

    /// Samples recorded for an interface.
    pub fn samples(&self, iface: IfaceKind) -> u64 {
        self.states.get(&iface).map(|s| s.samples).unwrap_or(0)
    }
}

impl Default for BandwidthPredictor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holt_winters_tracks_constant() {
        let mut hw = HoltWinters::new(0.4, 0.2);
        assert_eq!(hw.forecast(), None);
        for _ in 0..50 {
            hw.observe(7.0);
        }
        assert!((hw.forecast().unwrap() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn holt_winters_extrapolates_trend() {
        let mut hw = HoltWinters::new(0.5, 0.5);
        for i in 0..100 {
            hw.observe(i as f64);
        }
        // A linear ramp: the one-step forecast should exceed the last
        // observation (it has learnt the slope).
        assert!(hw.forecast().unwrap() > 99.0);
    }

    #[test]
    fn holt_winters_never_negative() {
        let mut hw = HoltWinters::new(0.9, 0.9);
        hw.observe(10.0);
        hw.observe(0.0);
        hw.observe(0.0);
        assert!(hw.forecast().unwrap() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn holt_winters_validates_alpha() {
        HoltWinters::new(0.0, 0.5);
    }

    #[test]
    fn unknown_iface_uses_assumption() {
        let p = BandwidthPredictor::new();
        assert_eq!(p.predict(IfaceKind::CellularLte), 5.0);
        assert_eq!(p.samples(IfaceKind::CellularLte), 0);
    }

    #[test]
    fn sampling_respects_delta() {
        let mut p = BandwidthPredictor::new();
        let t0 = SimTime::ZERO;
        p.register_iface(t0, IfaceKind::Wifi, Some(SimDuration::from_millis(400)));
        assert_eq!(
            p.delta(IfaceKind::Wifi),
            Some(SimDuration::from_millis(400))
        );
        // Too early: no sample.
        assert!(!p.offer(t0 + SimDuration::from_millis(200), IfaceKind::Wifi, 10_000));
        // At delta: sampled.
        assert!(p.offer(t0 + SimDuration::from_millis(400), IfaceKind::Wifi, 500_000));
        // 500 kB in 400 ms = 10 Mbps.
        assert!((p.predict(IfaceKind::Wifi) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn delta_clamped() {
        let mut p = BandwidthPredictor::new();
        p.register_iface(
            SimTime::ZERO,
            IfaceKind::Wifi,
            Some(SimDuration::from_millis(1)),
        );
        assert_eq!(
            p.delta(IfaceKind::Wifi),
            Some(SimDuration::from_millis(250))
        );
        p.register_iface(
            SimTime::ZERO,
            IfaceKind::CellularLte,
            Some(SimDuration::from_secs(9)),
        );
        assert_eq!(
            p.delta(IfaceKind::CellularLte),
            Some(SimDuration::from_secs(1))
        );
    }

    #[test]
    fn skip_preserves_old_forecast() {
        let mut p = BandwidthPredictor::new();
        let mut now = SimTime::ZERO;
        p.register_iface(
            now,
            IfaceKind::CellularLte,
            Some(SimDuration::from_millis(400)),
        );
        let mut bytes = 0u64;
        for _ in 0..20 {
            now += SimDuration::from_millis(400);
            bytes += 500_000; // 10 Mbps
            p.offer(now, IfaceKind::CellularLte, bytes);
        }
        let before = p.predict(IfaceKind::CellularLte);
        // Suspended for a long stretch: skipped windows retain the old
        // forecast, decaying gently toward the 5 Mbps prior (never below
        // the smaller of the two).
        for _ in 0..50 {
            now += SimDuration::from_millis(400);
            p.skip(now, IfaceKind::CellularLte, bytes);
        }
        let stale = p.predict(IfaceKind::CellularLte);
        assert!(stale <= before && stale >= 5.0, "stale {stale}");
        // Reactivation blends new data with the retained state.
        now += SimDuration::from_millis(400);
        bytes += 100_000; // 2 Mbps now
        p.offer(now, IfaceKind::CellularLte, bytes);
        let after = p.predict(IfaceKind::CellularLte);
        assert!(after < stale && after > 2.0 - 1e-9);
    }

    #[test]
    fn suspended_pessimism_decays_toward_prior() {
        // A crash sample (e.g. taken mid-loss-recovery) followed by a long
        // suspension must not freeze the forecast near zero: it recovers
        // toward the 5 Mbps assumption so the path gets re-probed.
        let mut p = BandwidthPredictor::new();
        let mut now = SimTime::ZERO;
        p.register_iface(
            now,
            IfaceKind::CellularLte,
            Some(SimDuration::from_millis(400)),
        );
        now += SimDuration::from_millis(400);
        p.offer(now, IfaceKind::CellularLte, 10_000); // ~0.2 Mbps crash
        assert!(p.predict(IfaceKind::CellularLte) < 0.5);
        for _ in 0..200 {
            now += SimDuration::from_millis(400);
            p.skip(now, IfaceKind::CellularLte, 10_000);
        }
        assert!(
            p.predict(IfaceKind::CellularLte) > 4.0,
            "forecast stuck at {}",
            p.predict(IfaceKind::CellularLte)
        );
    }

    #[test]
    fn converges_to_new_rate_after_change() {
        let mut p = BandwidthPredictor::new();
        let mut now = SimTime::ZERO;
        p.register_iface(now, IfaceKind::Wifi, Some(SimDuration::from_millis(400)));
        let mut bytes = 0u64;
        for _ in 0..30 {
            now += SimDuration::from_millis(400);
            bytes += 500_000; // 10 Mbps
            p.offer(now, IfaceKind::Wifi, bytes);
        }
        for _ in 0..30 {
            now += SimDuration::from_millis(400);
            bytes += 50_000; // 1 Mbps
            p.offer(now, IfaceKind::Wifi, bytes);
        }
        assert!((p.predict(IfaceKind::Wifi) - 1.0).abs() < 0.2);
    }

    #[test]
    fn register_twice_keeps_state() {
        let mut p = BandwidthPredictor::new();
        let t0 = SimTime::ZERO;
        p.register_iface(t0, IfaceKind::Wifi, Some(SimDuration::from_millis(300)));
        p.offer(t0 + SimDuration::from_millis(300), IfaceKind::Wifi, 375_000);
        let before = p.predict(IfaceKind::Wifi);
        p.register_iface(t0, IfaceKind::Wifi, Some(SimDuration::from_millis(500)));
        assert_eq!(p.predict(IfaceKind::Wifi), before);
        assert_eq!(
            p.delta(IfaceKind::Wifi),
            Some(SimDuration::from_millis(300))
        );
    }
}
