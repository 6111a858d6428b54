//! Declarative fault primitives: the one way a fault is written.
//!
//! A [`FaultSpec`] names one failure *pattern* (a blackout, a flap train, a
//! bandwidth collapse…) with millisecond-granularity timing. It is the
//! vocabulary the `.scenario` corpus files, the generator and the shrinker
//! speak, and what Rust callers write too: a plan is a `&[FaultSpec]`, and
//! [`FaultSpec::expand_into`] is the only place a primitive becomes the
//! timestamped [`FaultEvent`]s the injector replays.

use crate::plan::{FaultAction, FaultEvent, FaultTarget};
use emptcp_phy::{GeParams, LossModel};
use emptcp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One declarative fault primitive. All times are absolute milliseconds
/// from the start of the run; durations are milliseconds. Every variant
/// except [`FaultSpec::RateStep`] is self-restoring — it expands to a
/// perturbation *and* the event that undoes it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// Total interface blackout: down at `from_ms`, up `dur_ms` later.
    Blackout {
        /// Interface the blackout hits.
        target: FaultTarget,
        /// Start, ms.
        from_ms: u64,
        /// Outage length, ms.
        dur_ms: u64,
    },
    /// `flaps` short blackouts back to back (down `down_ms`, up `up_ms`).
    FlapTrain {
        /// Interface that flaps.
        target: FaultTarget,
        /// First flap start, ms.
        from_ms: u64,
        /// Number of down/up cycles.
        flaps: u32,
        /// Down time per flap, ms.
        down_ms: u64,
        /// Up time between flaps, ms.
        up_ms: u64,
    },
    /// A Gilbert–Elliott burst-loss window.
    BurstLoss {
        /// Interface whose channel turns bursty.
        target: FaultTarget,
        /// Window start, ms.
        from_ms: u64,
        /// Window length, ms.
        dur_ms: u64,
        /// The burst-loss channel parameters.
        ge: GeParams,
    },
    /// Bandwidth collapse with a staged recovery ramp.
    BandwidthCollapse {
        /// Interface whose rate collapses.
        target: FaultTarget,
        /// Collapse instant, ms.
        from_ms: u64,
        /// How long the collapsed rate holds, ms.
        hold_ms: u64,
        /// The collapsed rate (0 = silent blackhole).
        collapsed_bps: u64,
        /// Staged recovery rates applied one per `step_ms` after the hold.
        ramp_bps: Vec<u64>,
        /// Spacing of the ramp steps, ms.
        step_ms: u64,
    },
    /// An RTT spike: extra one-way delay for a window.
    RttSpike {
        /// Interface whose delay inflates.
        target: FaultTarget,
        /// Spike start, ms.
        from_ms: u64,
        /// Spike length, ms.
        dur_ms: u64,
        /// Added one-way delay, ms.
        extra_ms: u64,
    },
    /// A WiFi→cellular handover gap (WiFi association lost for `gap_ms`).
    Handover {
        /// Gap start, ms.
        at_ms: u64,
        /// Scan + re-association walk length, ms.
        gap_ms: u64,
    },
    /// A cellular RRC promotion stall (extra signalling delay window).
    RrcStall {
        /// Stall start, ms.
        at_ms: u64,
        /// Stall length, ms.
        dur_ms: u64,
        /// Added one-way delay while stalled, ms.
        extra_ms: u64,
    },
    /// A raw rate step (`None` = back to nominal). The only primitive that
    /// is not self-restoring: a scenario using `Some` steps must end the
    /// sequence with a `None` step to stay recoverable — the validator
    /// folds the whole plan to check.
    RateStep {
        /// Interface whose rate is set.
        target: FaultTarget,
        /// When, ms.
        at_ms: u64,
        /// New rate, or `None` to restore the nominal rate.
        bps: Option<u64>,
    },
}

impl FaultSpec {
    /// Append this primitive's events to `out`, in the order it writes
    /// them (a perturbation before the event that undoes it).
    pub fn expand_into(&self, out: &mut Vec<FaultEvent>) {
        use FaultAction::{ExtraDelay, IfaceDown, IfaceUp, Loss, Rate};
        let (t, d) = (SimTime::from_millis, SimDuration::from_millis);
        let target = self.target();
        let mut push = |at, action| out.push(FaultEvent { at, target, action });
        match *self {
            FaultSpec::Blackout {
                from_ms, dur_ms, ..
            }
            | FaultSpec::Handover {
                at_ms: from_ms,
                gap_ms: dur_ms,
            } => {
                push(t(from_ms), IfaceDown);
                push(t(from_ms) + d(dur_ms), IfaceUp);
            }
            FaultSpec::FlapTrain {
                from_ms,
                flaps,
                down_ms,
                up_ms,
                ..
            } => {
                let mut from = t(from_ms);
                for _ in 0..flaps {
                    push(from, IfaceDown);
                    push(from + d(down_ms), IfaceUp);
                    from = from + d(down_ms) + d(up_ms);
                }
            }
            FaultSpec::BurstLoss {
                from_ms,
                dur_ms,
                ge,
                ..
            } => {
                push(t(from_ms), Loss(Some(LossModel::GilbertElliott(ge))));
                push(t(from_ms) + d(dur_ms), Loss(None));
            }
            FaultSpec::BandwidthCollapse {
                from_ms,
                hold_ms,
                collapsed_bps,
                ref ramp_bps,
                step_ms,
                ..
            } => {
                push(t(from_ms), Rate(Some(collapsed_bps)));
                let mut at = t(from_ms) + d(hold_ms);
                for &bps in ramp_bps {
                    push(at, Rate(Some(bps)));
                    at += d(step_ms);
                }
                push(at, Rate(None));
            }
            FaultSpec::RttSpike {
                from_ms,
                dur_ms,
                extra_ms,
                ..
            }
            | FaultSpec::RrcStall {
                at_ms: from_ms,
                dur_ms,
                extra_ms,
            } => {
                push(t(from_ms), ExtraDelay(Some(d(extra_ms))));
                push(t(from_ms) + d(dur_ms), ExtraDelay(None));
            }
            FaultSpec::RateStep { at_ms, bps, .. } => push(t(at_ms), Rate(bps)),
        }
    }

    /// The interface this primitive hits: its `target`, or the access
    /// path a handover (WiFi) or an RRC stall (cellular) implies.
    pub fn target(&self) -> FaultTarget {
        match *self {
            FaultSpec::Blackout { target, .. }
            | FaultSpec::FlapTrain { target, .. }
            | FaultSpec::BurstLoss { target, .. }
            | FaultSpec::BandwidthCollapse { target, .. }
            | FaultSpec::RttSpike { target, .. }
            | FaultSpec::RateStep { target, .. } => target,
            FaultSpec::Handover { .. } => FaultTarget::Wifi,
            FaultSpec::RrcStall { .. } => FaultTarget::Cellular,
        }
    }

    /// Structural sanity: windows have extent, trains actually flap.
    /// (Recoverability is a *plan*-level property — see
    /// [`restores_nominal`](crate::plan::restores_nominal) — because raw
    /// rate steps only make sense in combination.)
    pub fn is_well_formed(&self) -> bool {
        match self {
            FaultSpec::Blackout { dur_ms, .. } => *dur_ms > 0,
            FaultSpec::FlapTrain {
                flaps,
                down_ms,
                up_ms,
                ..
            } => *flaps > 0 && *down_ms > 0 && *up_ms > 0,
            FaultSpec::BurstLoss { dur_ms, .. } => *dur_ms > 0,
            FaultSpec::BandwidthCollapse {
                hold_ms, step_ms, ..
            } => *hold_ms > 0 && *step_ms > 0,
            FaultSpec::RttSpike {
                dur_ms, extra_ms, ..
            } => *dur_ms > 0 && *extra_ms > 0,
            FaultSpec::Handover { gap_ms, .. } => *gap_ms > 0,
            FaultSpec::RrcStall {
                dur_ms, extra_ms, ..
            } => *dur_ms > 0 && *extra_ms > 0,
            FaultSpec::RateStep { .. } => true,
        }
    }

    /// Short label for reports and shrunk-repro summaries.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSpec::Blackout { .. } => "blackout",
            FaultSpec::FlapTrain { .. } => "flap_train",
            FaultSpec::BurstLoss { .. } => "burst_loss",
            FaultSpec::BandwidthCollapse { .. } => "bandwidth_collapse",
            FaultSpec::RttSpike { .. } => "rtt_spike",
            FaultSpec::Handover { .. } => "handover",
            FaultSpec::RrcStall { .. } => "rrc_stall",
            FaultSpec::RateStep { .. } => "rate_step",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{end_time, restores_nominal};

    #[test]
    fn self_restoring_primitives_restore() {
        let specs = vec![
            FaultSpec::Blackout {
                target: FaultTarget::Cellular,
                from_ms: 1_000,
                dur_ms: 500,
            },
            FaultSpec::BurstLoss {
                target: FaultTarget::Wifi,
                from_ms: 2_000,
                dur_ms: 3_000,
                ge: GeParams {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.25,
                    loss_good: 0.0,
                    loss_bad: 0.7,
                },
            },
            FaultSpec::BandwidthCollapse {
                target: FaultTarget::Core,
                from_ms: 4_000,
                hold_ms: 1_000,
                collapsed_bps: 0,
                ramp_bps: vec![1_000_000],
                step_ms: 500,
            },
        ];
        assert!(restores_nominal(&specs));
    }

    #[test]
    fn dangling_rate_step_does_not_restore() {
        let specs = vec![FaultSpec::RateStep {
            target: FaultTarget::Wifi,
            at_ms: 3_000,
            bps: Some(2_000_000),
        }];
        assert!(!restores_nominal(&specs));
        // Closing the sequence with a restore step makes it recoverable.
        let closed = [
            specs[0].clone(),
            FaultSpec::RateStep {
                target: FaultTarget::Wifi,
                at_ms: 6_000,
                bps: None,
            },
        ];
        assert!(restores_nominal(&closed));
        assert_eq!(end_time(&closed), Some(SimTime::from_secs(6)));
    }

    #[test]
    fn round_trips_through_json() {
        let specs = vec![
            FaultSpec::Handover {
                at_ms: 9_000,
                gap_ms: 4_000,
            },
            FaultSpec::RateStep {
                target: FaultTarget::Wifi,
                at_ms: 3_000,
                bps: None,
            },
        ];
        let json = serde_json::to_string(&specs).unwrap();
        let back: Vec<FaultSpec> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, specs);
    }
}
