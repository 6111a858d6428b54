//! The fault injector: replays a plan against any surface.
//!
//! The injector is deliberately dumb: it holds the pre-expanded,
//! time-sorted event list and, on each [`FaultInjector::poll`], applies
//! every event that has come due to the given [`FaultSurface`]. It draws no
//! randomness and keeps no state beyond a cursor, so the fault timeline is
//! identical across runs by construction. Every driver applies a fault at
//! its own instant: hosts treat [`FaultInjector::next_deadline`] like any
//! other timer source.

use crate::plan::{self, FaultAction, FaultEvent, FaultTarget};
use crate::spec::FaultSpec;
use emptcp_sim::SimTime;
use emptcp_telemetry::{TelemetryScope, TraceEvent};

/// What a fault plan can mutate. Implemented by the experiment host (which
/// owns real [`emptcp_phy::Link`]s and the WiFi association), the shard
/// engine's core ports and the reactor's shaped paths. Restorative actions
/// carry `None`, meaning "back to nominal" — the surface knows its own
/// nominal values. [`FaultAction::IfaceDown`] comes *with* link-layer
/// notification where the surface has stacks to tell (the stack learns at
/// once, as it does for a real de-association); `Rate(Some(0))` is a
/// silent blackhole, whose detection is the transport's problem.
pub trait FaultSurface {
    /// Apply `action` to `target` at `now`.
    fn apply(&mut self, now: SimTime, target: FaultTarget, action: FaultAction);
}

/// Replays a plan's events in order as simulation time passes.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    next: usize,
    scope: TelemetryScope,
}

impl FaultInjector {
    /// An injector for the plan `specs` write.
    pub fn new(specs: &[FaultSpec]) -> FaultInjector {
        FaultInjector {
            events: plan::expand(specs),
            next: 0,
            scope: TelemetryScope::disabled(),
        }
    }

    /// Attach a telemetry scope; every applied fault emits
    /// [`TraceEvent::FaultInjected`].
    pub fn set_telemetry(&mut self, scope: TelemetryScope) {
        self.scope = scope;
    }

    /// When the next unapplied fault fires, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// True once every event has been applied.
    pub fn finished(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Apply every event due at or before `now`; returns how many fired.
    pub fn poll(&mut self, now: SimTime, surface: &mut dyn FaultSurface) -> usize {
        let mut fired = 0;
        while let Some(&event) = self.events.get(self.next) {
            if event.at > now {
                break;
            }
            self.next += 1;
            fired += 1;
            surface.apply(now, event.target, event.action);
            self.scope.emit(now, |_| TraceEvent::FaultInjected {
                target: event.target.label(),
                action: event.action.describe(),
            });
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimDuration;

    #[derive(Default)]
    struct RecordingSurface {
        calls: Vec<(SimTime, FaultTarget, FaultAction)>,
    }

    impl FaultSurface for RecordingSurface {
        fn apply(&mut self, now: SimTime, target: FaultTarget, action: FaultAction) {
            self.calls.push((now, target, action));
        }
    }

    #[test]
    fn applies_due_events_in_order() {
        let mut inj = FaultInjector::new(&[
            FaultSpec::Blackout {
                target: FaultTarget::Wifi,
                from_ms: 2_000,
                dur_ms: 3_000,
            },
            FaultSpec::RttSpike {
                target: FaultTarget::Cellular,
                from_ms: 1_000,
                dur_ms: 10_000,
                extra_ms: 200,
            },
        ]);
        let mut surface = RecordingSurface::default();

        assert_eq!(inj.next_deadline(), Some(SimTime::from_secs(1)));
        assert_eq!(inj.poll(SimTime::from_millis(500), &mut surface), 0);
        // Polling at 2 s applies both the 1 s spike and the 2 s down, and
        // both at the instant of the poll.
        let at = SimTime::from_secs(2);
        assert_eq!(inj.poll(at, &mut surface), 2);
        let spike = FaultAction::ExtraDelay(Some(SimDuration::from_millis(200)));
        assert_eq!(
            surface.calls,
            [
                (at, FaultTarget::Cellular, spike),
                (at, FaultTarget::Wifi, FaultAction::IfaceDown),
            ]
        );
        // Re-polling at the same instant is idempotent.
        assert_eq!(inj.poll(at, &mut surface), 0);
        assert!(!inj.finished());
        assert_eq!(inj.poll(SimTime::from_secs(60), &mut surface), 2);
        assert!(inj.finished());
        assert_eq!(inj.next_deadline(), None);
    }
}
