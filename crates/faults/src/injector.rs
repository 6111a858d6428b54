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

/// What a fault plan can mutate. Implemented by the experiment host (whose
/// [`emptcp_phy::Path`]s take each action in both directions), the shard
/// engine's core ports and the reactor's shaped paths. A surface routes
/// each action to a target's [`FaultState`](crate::FaultState) and pushes
/// the part it changed into its medium. Restorative actions carry `None`,
/// meaning "back to nominal" — the link's config or the host's channel.
/// [`FaultAction::IfaceDown`] comes *with* link-layer
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
