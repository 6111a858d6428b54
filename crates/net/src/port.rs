//! Router output ports.
//!
//! A [`Port`] is one directed edge of the fleet's star made operational: a
//! rate-serializing, drop-tail [`Link`] plus the bookkeeping a router
//! needs around it — an ECN-style marking threshold with edge-triggered
//! queue-depth events, and per-reason drop counters surfaced to the
//! metrics registry. A port keeps no fault state: a fault surface that
//! owns ports (the core shard's) keeps an
//! [`emptcp_faults::FaultState`] and pushes it into [`Port::link_mut`];
//! the nominal it restores is the link's own config.
//!
//! ECN here is *accounting-only*: a packet that enters the queue above
//! the threshold is counted (and traced) as marked, but the transports
//! are loss-based, so marks diagnose standing queues rather than drive
//! the control loop.

use emptcp_phy::link::{DropReason, EnqueueOutcome};
use emptcp_phy::{Link, LinkConfig};
use emptcp_sim::{SimRng, SimTime};
use emptcp_telemetry::{TelemetryScope, TraceEvent};
use serde::Serialize;

/// A node label: what a [`Port`] carries for its two ends. The fleet's
/// star is closed-form — every next hop follows from which port a packet
/// is on — so there is no topology graph behind these ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct NodeId(pub u32);

/// One output port: a link leaving `from` toward `to`.
#[derive(Clone, Debug)]
pub struct Port {
    link: Link,
    from: NodeId,
    to: NodeId,
    /// Queue depth at/above which entering packets are ECN-marked.
    ecn_threshold: u64,
    /// Whether the queue was above the threshold at the last enqueue
    /// (edge-triggering for `QueueDepth` events).
    above_threshold: bool,
    ecn_marked: u64,
    /// Deepest queue observed at an enqueue, in bytes.
    peak_queue_bytes: u64,
}

/// What happened to a packet offered to a port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortOutcome {
    /// Forwarded; arrives at the far end at this time. `marked` is the
    /// ECN accounting bit (queue was above threshold on entry).
    Forwarded {
        /// Arrival time at the receiving node.
        at: SimTime,
        /// ECN mark (standing queue above threshold).
        marked: bool,
    },
    /// Dropped at this port.
    Dropped(DropReason),
}

impl Port {
    /// A port for the directed edge `from → to`. The ECN threshold
    /// defaults to half the queue capacity.
    pub fn new(from: NodeId, to: NodeId, config: LinkConfig) -> Port {
        Port {
            link: Link::new(config),
            from,
            to,
            ecn_threshold: config.queue_capacity / 2,
            above_threshold: false,
            ecn_marked: 0,
            peak_queue_bytes: 0,
        }
    }

    /// The transmitting node.
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// The receiving node.
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// The underlying link (counters, current rate, nominal config).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// The underlying link, for a fault surface to push its state into.
    pub fn link_mut(&mut self) -> &mut Link {
        &mut self.link
    }

    /// Packets ECN-marked so far.
    pub fn ecn_marked(&self) -> u64 {
        self.ecn_marked
    }

    /// Deepest queue observed at an enqueue.
    pub fn peak_queue_bytes(&self) -> u64 {
        self.peak_queue_bytes
    }

    /// Offer a packet to the port. `router`/`port` identify this port in
    /// trace events; `scope` is the engine's telemetry scope (zero-cost
    /// when telemetry is disabled). A link at rate zero (down, or a
    /// rate-0 fault) drops the packet as `link_down` without a draw.
    pub fn transmit(
        &mut self,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SimRng,
        router: u32,
        port: u32,
        scope: &TelemetryScope,
    ) -> PortOutcome {
        let depth_before = self.link.backlog_bytes(now);
        match self.link.enqueue(now, wire_bytes, rng) {
            EnqueueOutcome::Delivered(at) => {
                let depth = depth_before + wire_bytes;
                self.peak_queue_bytes = self.peak_queue_bytes.max(depth);
                let marked = depth_before >= self.ecn_threshold;
                if marked {
                    self.ecn_marked += 1;
                }
                // Edge-triggered queue-depth events: one on the way up
                // through the threshold, one on the way back down.
                if marked != self.above_threshold {
                    self.above_threshold = marked;
                    let capacity = self.link.queue_capacity();
                    scope.emit(now, |_| TraceEvent::QueueDepth {
                        router,
                        port,
                        bytes: depth,
                        capacity,
                    });
                }
                PortOutcome::Forwarded { at, marked }
            }
            EnqueueOutcome::Dropped(reason) => {
                self.note_drop(now, reason, router, port, scope);
                PortOutcome::Dropped(reason)
            }
        }
    }

    fn note_drop(
        &self,
        now: SimTime,
        reason: DropReason,
        router: u32,
        port: u32,
        scope: &TelemetryScope,
    ) {
        let label = match reason {
            DropReason::Channel => "channel",
            DropReason::QueueFull => "queue_full",
            DropReason::LinkDown => "link_down",
        };
        scope.emit(now, |_| TraceEvent::RouterDrop {
            router,
            port,
            reason: label,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_faults::{FaultAction, FaultState};
    use emptcp_sim::SimDuration;
    use emptcp_telemetry::{MemorySink, Telemetry};
    use std::sync::{Arc, Mutex};

    fn port(rate_bps: u64, queue: u64) -> Port {
        Port::new(
            NodeId(0),
            NodeId(1),
            LinkConfig {
                rate_bps,
                prop_delay: SimDuration::from_millis(1),
                queue_capacity: queue,
                loss_prob: 0.0,
            },
        )
    }

    /// Apply `action` as a surface that owns the port does.
    fn fault(p: &mut Port, state: &mut FaultState, action: FaultAction) {
        let part = state.apply(action);
        state.push(part, SimTime::ZERO, p.link_mut());
    }

    #[test]
    fn forwards_and_counts_marks_above_threshold() {
        // 6000 B queue, 3000 B threshold: the third and fourth back-to-back
        // packets enter behind ≥ 3000 B of standing queue and are marked.
        let mut p = port(12_000_000, 6000);
        let mut rng = SimRng::new(1);
        let scope = Telemetry::disabled().scope(0);
        let mut marks = 0;
        for _ in 0..4 {
            match p.transmit(SimTime::ZERO, 1500, &mut rng, 0, 0, &scope) {
                PortOutcome::Forwarded { marked, .. } => marks += u64::from(marked),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(marks, 2);
        assert_eq!(p.ecn_marked(), 2);
        assert_eq!(p.peak_queue_bytes(), 6000);
    }

    #[test]
    fn a_down_port_drops_as_link_down_and_restores() {
        let mut p = port(12_000_000, 6000);
        let mut state = FaultState::default();
        let mut rng = SimRng::new(1);
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let scope = Telemetry::builder()
            .sink(Box::new(sink.clone()))
            .build()
            .scope(0);
        fault(&mut p, &mut state, FaultAction::IfaceDown);
        assert_eq!(
            p.transmit(SimTime::ZERO, 100, &mut rng, 0, 0, &scope),
            PortOutcome::Dropped(DropReason::LinkDown)
        );
        let reason = match &sink.lock().unwrap().records[..] {
            [(_, TraceEvent::RouterDrop { reason, .. })] => *reason,
            other => panic!("{other:?}"),
        };
        assert_eq!(reason, "link_down");
        // A rate restore while down must not resurrect the port.
        fault(&mut p, &mut state, FaultAction::Rate(None));
        assert_eq!(p.link().rate_bps(), 0);
        fault(&mut p, &mut state, FaultAction::IfaceUp);
        assert!(matches!(
            p.transmit(SimTime::ZERO, 100, &mut rng, 0, 0, &scope),
            PortOutcome::Forwarded { .. }
        ));
    }

    #[test]
    fn a_rate_override_survives_a_down_up_cycle() {
        let mut p = port(12_000_000, 6000);
        let mut state = FaultState::default();
        for action in [
            FaultAction::Rate(Some(2_000_000)),
            FaultAction::IfaceDown,
            FaultAction::IfaceUp,
        ] {
            fault(&mut p, &mut state, action);
        }
        assert_eq!(p.link().rate_bps(), 2_000_000);
        fault(&mut p, &mut state, FaultAction::Rate(None));
        assert_eq!(p.link().rate_bps(), 12_000_000);
    }

    #[test]
    fn fault_overrides_restore_nominal() {
        let mut p = port(12_000_000, 6000);
        let mut state = FaultState::default();
        fault(&mut p, &mut state, FaultAction::Rate(Some(0)));
        assert_eq!(p.link().rate_bps(), 0, "silent blackhole");
        fault(&mut p, &mut state, FaultAction::Rate(None));
        assert_eq!(p.link().rate_bps(), 12_000_000);
        let extra = SimDuration::from_millis(40);
        fault(&mut p, &mut state, FaultAction::ExtraDelay(Some(extra)));
        assert_eq!(p.link().prop_delay(), SimDuration::from_millis(41));
        fault(&mut p, &mut state, FaultAction::ExtraDelay(None));
        assert_eq!(p.link().prop_delay(), SimDuration::from_millis(1));
    }
}
