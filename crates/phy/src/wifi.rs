//! WiFi channel model: AP capacity, DCF-style contention, association.
//!
//! The paper's §4.4 adds `n ∈ {2, 3}` interfering stations on the same
//! channel, each blasting UDP according to an on-off process. Contention has
//! two observable effects on the measured device: its share of airtime
//! shrinks (roughly `1/(k+1)` for `k` active contenders, further discounted
//! by collision overhead) and its loss rate grows with the number of
//! contenders. Both feed straight into the WiFi [`Link`](crate::link::Link).
//!
//! The channel is a pure calculator — hosts push [`WifiChannel::effective_rate_bps`]
//! and [`WifiChannel::loss_prob`] into the link whenever an input changes.

use serde::{Deserialize, Serialize};

/// Tunables of the contention model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WifiContentionConfig {
    /// Loss probability with an idle channel (clean 802.11g link).
    pub base_loss: f64,
    /// Additional loss probability per active contender (collisions).
    pub loss_per_contender: f64,
    /// Fraction of airtime lost to backoff/collisions per active contender;
    /// the effective share is `1 / (k+1) / (1 + overhead * k)`.
    pub collision_overhead: f64,
}

impl Default for WifiContentionConfig {
    fn default() -> Self {
        WifiContentionConfig {
            base_loss: 0.0005,
            loss_per_contender: 0.008,
            collision_overhead: 0.10,
        }
    }
}

/// The WiFi channel between the device and its AP.
#[derive(Clone, Debug)]
pub struct WifiChannel {
    /// Deliverable goodput from AP to device with an idle channel, bps.
    nominal_bps: u64,
    /// Active interfering stations right now.
    active_contenders: u32,
    /// Whether the device is associated with the AP at all. Losing
    /// association is what triggers "WiFi-First" style fallbacks; merely
    /// being far away degrades `nominal_bps` instead.
    associated: bool,
    config: WifiContentionConfig,
}

impl WifiChannel {
    /// An associated channel with the given idle-air goodput.
    pub fn new(nominal_bps: u64) -> Self {
        WifiChannel {
            nominal_bps,
            active_contenders: 0,
            associated: true,
            config: WifiContentionConfig::default(),
        }
    }

    /// Replace the contention tunables.
    #[cfg(test)]
    fn with_contention(mut self, config: WifiContentionConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the idle-air goodput (bandwidth modulation, mobility).
    pub fn set_nominal_bps(&mut self, bps: u64) {
        self.nominal_bps = bps;
    }

    /// Set the number of currently active interfering stations.
    pub fn set_active_contenders(&mut self, k: u32) {
        self.active_contenders = k;
    }

    /// Associate / disassociate with the AP.
    pub fn set_associated(&mut self, associated: bool) {
        self.associated = associated;
    }

    /// Whether the device currently holds an AP association.
    pub fn associated(&self) -> bool {
        self.associated
    }

    /// The device's share of goodput under current contention.
    pub fn effective_rate_bps(&self) -> u64 {
        if !self.associated {
            return 0;
        }
        let k = self.active_contenders as f64;
        let share = 1.0 / (k + 1.0) / (1.0 + self.config.collision_overhead * k);
        (self.nominal_bps as f64 * share) as u64
    }

    /// Loss probability under current contention.
    pub fn loss_prob(&self) -> f64 {
        if !self.associated {
            return 1.0;
        }
        (self.config.base_loss + self.config.loss_per_contender * self.active_contenders as f64)
            .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_channel_full_rate() {
        let ch = WifiChannel::new(10_000_000);
        assert_eq!(ch.effective_rate_bps(), 10_000_000);
        assert!(ch.loss_prob() < 0.001);
    }

    #[test]
    fn contention_shrinks_share_monotonically() {
        let mut ch = WifiChannel::new(12_000_000);
        let mut last = u64::MAX;
        for k in 0..5 {
            ch.set_active_contenders(k);
            let r = ch.effective_rate_bps();
            assert!(r < last, "rate must strictly decrease with contenders");
            last = r;
        }
        // Two contenders: share < 1/3 of nominal due to collision overhead.
        ch.set_active_contenders(2);
        assert!(ch.effective_rate_bps() < 12_000_000 / 3);
    }

    #[test]
    fn contention_raises_loss() {
        let mut ch = WifiChannel::new(10_000_000);
        let p0 = ch.loss_prob();
        ch.set_active_contenders(3);
        let p3 = ch.loss_prob();
        assert!(p3 > p0);
        assert!((p3 - (0.0005 + 3.0 * 0.008)).abs() < 1e-12);
    }

    #[test]
    fn disassociation_kills_the_channel() {
        let mut ch = WifiChannel::new(10_000_000);
        ch.set_associated(false);
        assert_eq!(ch.effective_rate_bps(), 0);
        assert_eq!(ch.loss_prob(), 1.0);
        ch.set_associated(true);
        assert_eq!(ch.effective_rate_bps(), 10_000_000);
    }

    #[test]
    fn loss_probability_clamped() {
        let mut ch = WifiChannel::new(1_000_000).with_contention(WifiContentionConfig {
            base_loss: 0.5,
            loss_per_contender: 0.4,
            collision_overhead: 0.1,
        });
        ch.set_active_contenders(10);
        assert_eq!(ch.loss_prob(), 1.0);
    }
}
