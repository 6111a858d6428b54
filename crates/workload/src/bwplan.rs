//! AP bandwidth modulation (§4.3).
//!
//! "WiFi link bandwidth is modulated by a two state on-off process with
//! exponentially distributed times spent in the on or off state with a mean
//! of 40 seconds. The bandwidth provided by the AP is ≤ 1 Mbps or
//! ≥ 10 Mbps, depending on its state."
//!
//! Each time the process toggles, a fresh rate is drawn from the entered
//! state's band, so consecutive high (or low) phases differ realistically.

use emptcp_phy::modulation::{OnOff, OnOffProcess};
use emptcp_sim::{SimRng, SimTime};

/// Bandwidth band for one state, in bps.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    /// Lower bound (inclusive).
    pub lo_bps: u64,
    /// Upper bound (inclusive).
    pub hi_bps: u64,
}

impl Band {
    fn draw(&self, rng: &mut SimRng) -> u64 {
        if self.hi_bps <= self.lo_bps {
            return self.lo_bps;
        }
        self.lo_bps + rng.below(self.hi_bps - self.lo_bps + 1)
    }
}

/// The modulated AP bandwidth process.
#[derive(Clone, Debug)]
pub struct BandwidthModulator {
    process: OnOffProcess,
    high: Band,
    low: Band,
    current_bps: u64,
    rng: SimRng,
}

impl BandwidthModulator {
    /// The paper's §4.3 setting: mean 40 s holding times, low ≤ 1 Mbps,
    /// high ≥ 10 Mbps. `start_high` selects the initial state.
    #[cfg(test)]
    fn paper_default(start: SimTime, start_high: bool, rng: &mut SimRng) -> Self {
        BandwidthModulator::new(
            start,
            start_high,
            1.0 / 40.0,
            Band {
                lo_bps: 10_000_000,
                hi_bps: 12_000_000,
            },
            Band {
                lo_bps: 300_000,
                hi_bps: 1_000_000,
            },
            rng,
        )
    }

    /// Fully parameterized constructor; `rate_per_sec` applies to both
    /// states (symmetric holding times, as in the paper).
    pub fn new(
        start: SimTime,
        start_high: bool,
        rate_per_sec: f64,
        high: Band,
        low: Band,
        rng: &mut SimRng,
    ) -> Self {
        let mut own_rng = rng.fork(0xBAD0BEEF);
        let initial = if start_high { OnOff::On } else { OnOff::Off };
        let process =
            OnOffProcess::new(start, initial, rate_per_sec, rate_per_sec, rng.fork(0xF00D));
        let current_bps = if start_high {
            high.draw(&mut own_rng)
        } else {
            low.draw(&mut own_rng)
        };
        BandwidthModulator {
            process,
            high,
            low,
            current_bps,
            rng: own_rng,
        }
    }

    /// Advance to `now`; returns `Some(new_rate)` if the state flipped.
    pub fn poll(&mut self, now: SimTime) -> Option<u64> {
        if self.process.poll(now) {
            self.current_bps = match self.process.state() {
                OnOff::On => self.high.draw(&mut self.rng),
                OnOff::Off => self.low.draw(&mut self.rng),
            };
            Some(self.current_bps)
        } else {
            None
        }
    }

    /// The current AP bandwidth.
    pub fn current_bps(&self) -> u64 {
        self.current_bps
    }

    /// True while in the high-bandwidth state.
    #[cfg(test)]
    fn is_high(&self) -> bool {
        self.process.state() == OnOff::On
    }

    /// When the next toggle is scheduled.
    pub fn next_toggle(&self) -> SimTime {
        self.process.next_toggle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimDuration;

    #[test]
    fn rates_stay_in_bands() {
        let mut rng = SimRng::new(11);
        let mut m = BandwidthModulator::paper_default(SimTime::ZERO, true, &mut rng);
        assert!(m.current_bps() >= 10_000_000);
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            t += SimDuration::from_secs(10);
            m.poll(t);
            if m.is_high() {
                assert!(m.current_bps() >= 10_000_000);
            } else {
                assert!(m.current_bps() <= 1_000_000);
                assert!(m.current_bps() >= 300_000);
            }
        }
    }

    #[test]
    fn toggle_returns_new_rate() {
        let mut rng = SimRng::new(12);
        let mut m = BandwidthModulator::paper_default(SimTime::ZERO, false, &mut rng);
        let t = m.next_toggle();
        let rate = m.poll(t).expect("toggle due");
        assert!(rate >= 10_000_000, "entered high state");
        assert!(m.poll(t).is_none(), "no double toggle");
    }

    #[test]
    fn mean_holding_time_close_to_40s() {
        let mut rng = SimRng::new(13);
        let mut m = BandwidthModulator::paper_default(SimTime::ZERO, true, &mut rng);
        let mut toggles = 0;
        let horizon = SimTime::from_secs(400_000);
        let mut t = m.next_toggle();
        while t < horizon {
            m.poll(t);
            toggles += 1;
            t = m.next_toggle();
        }
        let mean = 400_000.0 / toggles as f64;
        assert!((mean - 40.0).abs() < 2.0, "mean holding {mean}");
    }
}
