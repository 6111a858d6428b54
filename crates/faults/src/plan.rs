//! Fault plans: a list of [`FaultSpec`]s and the events it expands to.
//!
//! A plan is written as `&[FaultSpec]` and nothing else. [`expand`] turns
//! it into a flat, time-sorted list of [`FaultEvent`]s — one atomic
//! [`FaultAction`] on one [`FaultTarget`] at one instant — which is what
//! the [`FaultInjector`](crate::FaultInjector) replays. All randomness, if
//! any, happens where the specs are drawn; a plan is pure data, so the
//! same plan and the same seed give the same faults at the same instants,
//! byte for byte. [`end_time`], [`restores_nominal`] and [`recovered_at`]
//! answer what the runners and the scenario validator ask of a plan.

use crate::spec::FaultSpec;
use emptcp_phy::LossModel;
use emptcp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Which interface a fault applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FaultTarget {
    /// The WiFi path (path index 0 in the test rigs).
    Wifi,
    /// The cellular path (path index 1 in the test rigs).
    Cellular,
    /// A shared core bottleneck that every path traverses. Surfaces with
    /// per-path state apply the fault to all paths at once; the network
    /// fabric applies it to its designated bottleneck ports.
    Core,
}

impl FaultTarget {
    /// Stable label for trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultTarget::Wifi => "wifi",
            FaultTarget::Cellular => "cellular",
            FaultTarget::Core => "core",
        }
    }

    /// Path index convention used by the test rigs (WiFi first). `None`
    /// means the target is not a single path (the shared core).
    pub fn path_index(self) -> Option<usize> {
        match self {
            FaultTarget::Wifi => Some(0),
            FaultTarget::Cellular => Some(1),
            FaultTarget::Core => None,
        }
    }
}

/// One atomic state change applied to a target interface. Restorative
/// variants carry `None`, meaning "back to the scenario's nominal value" —
/// the surface, not the plan, knows what nominal is.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultAction {
    /// Take the interface down (de-association, radio loss).
    IfaceDown,
    /// Bring the interface back up.
    IfaceUp,
    /// Override the serialization rate (`Some(bps)`), or restore the
    /// nominal rate (`None`). `Some(0)` is a silent blackhole: packets die
    /// without any link-layer notification, unlike [`FaultAction::IfaceDown`].
    Rate(Option<u64>),
    /// Override the channel loss model, or restore the nominal one.
    Loss(Option<LossModel>),
    /// Add one-way extra propagation delay, or remove it.
    ExtraDelay(Option<SimDuration>),
}

impl FaultAction {
    /// Human-readable form for `FaultInjected` trace events.
    pub fn describe(&self) -> String {
        match self {
            FaultAction::IfaceDown => "iface_down".to_string(),
            FaultAction::IfaceUp => "iface_up".to_string(),
            FaultAction::Rate(Some(bps)) => format!("rate={bps}"),
            FaultAction::Rate(None) => "rate=nominal".to_string(),
            FaultAction::Loss(Some(LossModel::Bernoulli(p))) => format!("loss={p}"),
            FaultAction::Loss(Some(LossModel::GilbertElliott(g))) => format!(
                "loss=ge(p01={},p10={},pb={})",
                g.p_good_to_bad, g.p_bad_to_good, g.loss_bad
            ),
            FaultAction::Loss(None) => "loss=nominal".to_string(),
            FaultAction::ExtraDelay(Some(d)) => format!("extra_delay_ns={}", d.as_nanos()),
            FaultAction::ExtraDelay(None) => "extra_delay=none".to_string(),
        }
    }
}

/// A single scheduled fault.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// Which interface it hits.
    pub target: FaultTarget,
    /// What happens.
    pub action: FaultAction,
}

/// Every event `specs` expands to, in stable time order: ties keep the
/// order the specs write them, so "down then up at the same instant"
/// behaves as written.
pub fn expand(specs: &[FaultSpec]) -> Vec<FaultEvent> {
    let mut events = Vec::new();
    for spec in specs {
        spec.expand_into(&mut events);
    }
    events.sort_by_key(|e| e.at);
    events
}

/// The instant of the plan's last event, if it has any.
pub fn end_time(specs: &[FaultSpec]) -> Option<SimTime> {
    expand(specs).last().map(|e| e.at)
}

/// Replay the plan against an abstract per-target state machine and
/// report whether every perturbation is undone by the end: all
/// interfaces back up, rates/loss/extra-delay back to nominal. A plan
/// for which this holds is *recoverable* — once the last event fires
/// the network is exactly what the scenario configured, so end-of-run
/// oracles (exact delivery, no stuck subflows) are entitled to their
/// assertions.
pub fn restores_nominal(specs: &[FaultSpec]) -> bool {
    let mut states = [TargetState::default(); 3];
    for e in expand(specs) {
        states[e.target as usize].apply(e.action);
    }
    states.iter().all(|s| s.is_nominal())
}

/// The earliest instant from which the network is nominal for the rest
/// of the plan (`None` for an empty or unrecoverable plan; otherwise the
/// plan's [`end_time`], since its last event is then restorative).
pub fn recovered_at(specs: &[FaultSpec]) -> Option<SimTime> {
    end_time(specs).filter(|_| restores_nominal(specs))
}

/// Folded end-state of one fault target after a plan replay.
#[derive(Clone, Copy, Default)]
struct TargetState {
    down: bool,
    rate_override: bool,
    loss_override: bool,
    delay_override: bool,
}

impl TargetState {
    fn apply(&mut self, action: FaultAction) {
        match action {
            FaultAction::IfaceDown => self.down = true,
            FaultAction::IfaceUp => self.down = false,
            FaultAction::Rate(r) => self.rate_override = r.is_some(),
            FaultAction::Loss(l) => self.loss_override = l.is_some(),
            FaultAction::ExtraDelay(d) => self.delay_override = d.is_some(),
        }
    }

    fn is_nominal(self) -> bool {
        !self.down && !self.rate_override && !self.loss_override && !self.delay_override
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_expands_to_down_then_up() {
        let events = expand(&[FaultSpec::Blackout {
            target: FaultTarget::Wifi,
            from_ms: 5_000,
            dur_ms: 3_000,
        }]);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, SimTime::from_secs(5));
        assert_eq!(events[0].action, FaultAction::IfaceDown);
        assert_eq!(events[1].at, SimTime::from_secs(8));
        assert_eq!(events[1].action, FaultAction::IfaceUp);
    }

    #[test]
    fn flap_train_alternates() {
        let events = expand(&[FaultSpec::FlapTrain {
            target: FaultTarget::Wifi,
            from_ms: 1_000,
            flaps: 3,
            down_ms: 500,
            up_ms: 1_500,
        }]);
        assert_eq!(events.len(), 6);
        // Third flap goes down at 1 s + 2 × 2 s = 5 s.
        assert_eq!(events[4].at, SimTime::from_secs(5));
        assert_eq!(events[4].action, FaultAction::IfaceDown);
        assert_eq!(events[5].at, SimTime::from_millis(5500));
    }

    #[test]
    fn events_sort_stably_by_time() {
        let step = |at_ms, bps| FaultSpec::RateStep {
            target: FaultTarget::Wifi,
            at_ms,
            bps,
        };
        let events = expand(&[
            step(2_000, Some(1_000)),
            FaultSpec::Blackout {
                target: FaultTarget::Cellular,
                from_ms: 1_000,
                dur_ms: 500,
            },
            step(2_000, None),
        ]);
        assert_eq!(events[0].target, FaultTarget::Cellular);
        assert_eq!(events[1].at, SimTime::from_millis(1_500));
        // Spec order preserved at the tied timestamp.
        assert_eq!(events[2].action, FaultAction::Rate(Some(1_000)));
        assert_eq!(events[3].action, FaultAction::Rate(None));
    }

    #[test]
    fn bandwidth_collapse_ramps_back() {
        let events = expand(&[FaultSpec::BandwidthCollapse {
            target: FaultTarget::Wifi,
            from_ms: 10_000,
            hold_ms: 5_000,
            collapsed_bps: 500_000,
            ramp_bps: vec![2_000_000, 6_000_000],
            step_ms: 1_000,
        }]);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].action, FaultAction::Rate(Some(500_000)));
        assert_eq!(events[1].at, SimTime::from_secs(15));
        assert_eq!(events[1].action, FaultAction::Rate(Some(2_000_000)));
        assert_eq!(events[3].at, SimTime::from_secs(17));
        assert_eq!(events[3].action, FaultAction::Rate(None));
    }

    #[test]
    fn handover_and_rrc_stall_are_windows_on_their_own_paths() {
        let events = expand(&[
            FaultSpec::Handover {
                at_ms: 5_000,
                gap_ms: 8_000,
            },
            FaultSpec::RrcStall {
                at_ms: 9_000,
                dur_ms: 2_000,
                extra_ms: 150,
            },
        ]);
        let (wifi, cell) = (FaultTarget::Wifi, FaultTarget::Cellular);
        let stall = FaultAction::ExtraDelay(Some(SimDuration::from_millis(150)));
        let expected = [
            (5_000, wifi, FaultAction::IfaceDown),
            (9_000, cell, stall),
            (11_000, cell, FaultAction::ExtraDelay(None)),
            (13_000, wifi, FaultAction::IfaceUp),
        ]
        .map(|(ms, target, action)| FaultEvent {
            at: SimTime::from_millis(ms),
            target,
            action,
        });
        assert_eq!(events, expected);
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(FaultAction::IfaceDown.describe(), "iface_down");
        assert_eq!(FaultAction::Rate(Some(1000)).describe(), "rate=1000");
        assert_eq!(FaultAction::Loss(None).describe(), "loss=nominal");
    }
}
