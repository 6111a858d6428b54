//! Fault plans: a list of [`FaultSpec`]s and the events it expands to.
//!
//! A plan is written as `&[FaultSpec]` and nothing else. [`expand`] turns
//! it into a flat, time-sorted list of [`FaultEvent`]s — one atomic
//! [`FaultAction`] on one [`FaultTarget`] at one instant — which is what
//! the [`FaultInjector`](crate::FaultInjector) replays. All randomness, if
//! any, happens where the specs are drawn; a plan is pure data, so the
//! same plan and the same seed give the same faults at the same instants,
//! byte for byte. [`end_time`] and [`restores_nominal`] answer what the
//! scenario validator asks of a plan, and a [`FaultState`] is what the
//! events leave over one target (re-exported from `emptcp_phy::fault`,
//! where a path applies it, with [`FaultAction`] and [`FaultPart`]).

use crate::spec::FaultSpec;
pub use emptcp_phy::fault::{FaultAction, FaultPart, FaultState};
use emptcp_sim::SimTime;
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

    /// Path index convention (WiFi first) of the host's paths and the test
    /// rigs. `None` means the target is not a single path (the shared
    /// core).
    pub fn path_index(self) -> Option<usize> {
        match self {
            FaultTarget::Wifi => Some(0),
            FaultTarget::Cellular => Some(1),
            FaultTarget::Core => None,
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

/// Whether the plan leaves every target's [`FaultState`] nominal. A plan
/// for which this holds is *recoverable* — once the last event fires the
/// network is exactly what the scenario configured, so end-of-run oracles
/// (exact delivery, no stuck subflows) are entitled to their assertions.
pub fn restores_nominal(specs: &[FaultSpec]) -> bool {
    let mut states = [FaultState::default(); 3];
    for e in expand(specs) {
        states[e.target as usize].apply(e.action);
    }
    states.iter().all(FaultState::is_nominal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimDuration;

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
}
