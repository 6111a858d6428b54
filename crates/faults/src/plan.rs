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
//! events leave over one target.

use crate::spec::FaultSpec;
use emptcp_phy::{Link, LossModel};
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

/// One atomic state change applied to a target interface, folded into
/// the target's [`FaultState`]. Restorative variants carry `None`, meaning
/// "back to nominal" — the link's config or the host's channel, not the
/// plan, knows what nominal is.
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

/// What the faults so far hold over one target, kept by every surface.
/// Each override lasts until its own restore (`None`), `IfaceUp`s or not,
/// and a target that is down refuses traffic whatever rate a fault set.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FaultState {
    /// Held down by [`FaultAction::IfaceDown`].
    pub down: bool,
    /// Rate override (`Some(0)` is a silent blackhole).
    pub rate: Option<u64>,
    /// Loss model override.
    pub loss: Option<LossModel>,
    /// Extra one-way delay.
    pub extra_delay: Option<SimDuration>,
}

/// The part of a [`FaultState`] one action changed: all a surface pushes
/// into its medium (re-installing a loss model would reset its bursts).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPart {
    /// Up/down, which gates the rate.
    Up,
    /// The rate override.
    Rate,
    /// The loss override.
    Loss,
    /// The extra delay.
    Delay,
}

impl FaultState {
    /// Fold `action` into the state; returns the part it changed.
    pub fn apply(&mut self, action: FaultAction) -> FaultPart {
        use FaultAction::{ExtraDelay, IfaceDown, IfaceUp, Loss, Rate};
        match action {
            IfaceDown | IfaceUp => self.down = action == IfaceDown,
            Rate(rate) => self.rate = rate,
            Loss(loss) => self.loss = loss,
            ExtraDelay(extra) => self.extra_delay = extra,
        }
        match action {
            IfaceDown | IfaceUp => FaultPart::Up,
            Rate(_) => FaultPart::Rate,
            Loss(_) => FaultPart::Loss,
            ExtraDelay(_) => FaultPart::Delay,
        }
    }

    /// No fault holds anything over the target.
    pub fn is_nominal(&self) -> bool {
        *self == FaultState::default()
    }

    /// The rate the target runs at, given its nominal rate.
    pub fn rate_bps(&self, nominal: u64) -> u64 {
        if self.down {
            0
        } else {
            self.rate.unwrap_or(nominal)
        }
    }

    /// The one-way delay the target runs at, given its nominal delay.
    pub fn delay(&self, nominal: SimDuration) -> SimDuration {
        nominal + self.extra_delay.unwrap_or(SimDuration::ZERO)
    }

    /// Push `part` of the state into `link`, whose config is nominal.
    pub fn push(&self, part: FaultPart, now: SimTime, link: &mut Link) {
        let nominal = *link.config();
        match part {
            FaultPart::Up | FaultPart::Rate => {
                link.set_rate_bps(now, self.rate_bps(nominal.rate_bps));
            }
            FaultPart::Loss => match self.loss {
                Some(model) => link.set_loss_model(model),
                None => link.set_loss_prob(nominal.loss_prob),
            },
            FaultPart::Delay => link.set_prop_delay(self.delay(nominal.prop_delay)),
        }
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
