//! What faults hold over an interface ([`FaultState`]) and how a
//! [`FaultAction`] reaches a [`Link`]; `emptcp-faults` schedules the
//! actions and re-exports these types.

use crate::link::{Link, LinkConfig, LossModel};
use emptcp_sim::{SimDuration, SimTime};

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
    #[inline]
    pub fn rate_bps(&self, nominal: u64) -> u64 {
        if self.down {
            0
        } else {
            self.rate.unwrap_or(nominal)
        }
    }

    /// The one-way delay the target runs at, given its nominal delay.
    #[inline]
    pub fn delay(&self, nominal: SimDuration) -> SimDuration {
        nominal + self.extra_delay.unwrap_or(SimDuration::ZERO)
    }

    /// Push `part` of the state into `link`, whose config is nominal.
    pub fn push(&self, part: FaultPart, now: SimTime, link: &mut Link) {
        let nominal = *link.config();
        self.push_over(part, now, link, &nominal);
    }

    /// Push `part` of the state into `link`, over `nominal`.
    pub fn push_over(&self, part: FaultPart, now: SimTime, link: &mut Link, nominal: &LinkConfig) {
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
    fn describe_is_stable() {
        assert_eq!(FaultAction::IfaceDown.describe(), "iface_down");
        assert_eq!(FaultAction::Rate(Some(1000)).describe(), "rate=1000");
        assert_eq!(FaultAction::Loss(None).describe(), "loss=nominal");
    }
}
