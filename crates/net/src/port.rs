//! Router output ports.
//!
//! A [`Port`] is one directed edge of the fleet's star made operational: a
//! rate-serializing, drop-tail [`Link`] plus the bookkeeping a router
//! needs around it — nominal configuration for fault restore, an
//! ECN-style marking threshold with edge-triggered queue-depth events,
//! and per-reason drop counters surfaced to the metrics registry.
//!
//! ECN here is *accounting-only*: a packet that enters the queue above
//! the threshold is counted (and traced) as marked, but the transports
//! are loss-based, so marks diagnose standing queues rather than drive
//! the control loop.

use emptcp_phy::link::{DropReason, EnqueueOutcome};
use emptcp_phy::{Link, LinkConfig, LossModel};
use emptcp_sim::{SimDuration, SimRng, SimTime};
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
    /// Nominal configuration, restored by fault actions carrying `None`.
    nominal: LinkConfig,
    /// Fault-injected extra one-way delay currently applied.
    extra_delay: SimDuration,
    /// Administratively down (distinct from a rate-0 blackhole).
    admin_down: bool,
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
            nominal: config,
            extra_delay: SimDuration::ZERO,
            admin_down: false,
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

    /// The nominal (fault-free) configuration.
    pub fn nominal(&self) -> LinkConfig {
        self.nominal
    }

    /// The underlying link (counters, current rate).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Packets ECN-marked so far.
    pub fn ecn_marked(&self) -> u64 {
        self.ecn_marked
    }

    /// Deepest queue observed at an enqueue.
    pub fn peak_queue_bytes(&self) -> u64 {
        self.peak_queue_bytes
    }

    /// Whether the port currently accepts traffic at all.
    #[cfg(test)]
    fn is_up(&self) -> bool {
        !self.admin_down && self.link.rate_bps() > 0
    }

    /// Administrative up/down (fault `IfaceDown`/`IfaceUp`). Down forces
    /// the link rate to zero; up restores the nominal rate.
    pub fn set_admin_up(&mut self, now: SimTime, up: bool) {
        self.admin_down = !up;
        let rate = if up { self.nominal.rate_bps } else { 0 };
        self.link.set_rate_bps(now, rate);
    }

    /// Override the rate (`Some`, with `Some(0)` a silent blackhole) or
    /// restore nominal (`None`). A restore while administratively down
    /// stays down until `set_admin_up`.
    pub fn set_rate(&mut self, now: SimTime, rate_bps: Option<u64>) {
        if self.admin_down {
            return;
        }
        self.link
            .set_rate_bps(now, rate_bps.unwrap_or(self.nominal.rate_bps));
    }

    /// Override the loss model or restore the nominal Bernoulli channel.
    pub fn set_loss(&mut self, model: Option<LossModel>) {
        match model {
            Some(m) => self.link.set_loss_model(m),
            None => self.link.set_loss_prob(self.nominal.loss_prob),
        }
    }

    /// Add fault-injected one-way delay (`None` removes it).
    pub fn set_extra_delay(&mut self, extra: Option<SimDuration>) {
        self.extra_delay = extra.unwrap_or(SimDuration::ZERO);
        self.link
            .set_prop_delay(self.nominal.prop_delay + self.extra_delay);
    }

    /// Offer a packet to the port. `router`/`port` identify this port in
    /// trace events; `scope` is the engine's telemetry scope (zero-cost
    /// when telemetry is disabled).
    pub fn transmit(
        &mut self,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SimRng,
        router: u32,
        port: u32,
        scope: &TelemetryScope,
    ) -> PortOutcome {
        if self.admin_down {
            self.note_drop(now, DropReason::LinkDown, router, port, scope);
            return PortOutcome::Dropped(DropReason::LinkDown);
        }
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
    use emptcp_telemetry::Telemetry;

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
    fn admin_down_drops_and_restores() {
        let mut p = port(12_000_000, 6000);
        let mut rng = SimRng::new(1);
        let scope = Telemetry::disabled().scope(0);
        p.set_admin_up(SimTime::ZERO, false);
        assert!(!p.is_up());
        assert_eq!(
            p.transmit(SimTime::ZERO, 100, &mut rng, 0, 0, &scope),
            PortOutcome::Dropped(DropReason::LinkDown)
        );
        // A rate restore while down must not resurrect the port.
        p.set_rate(SimTime::ZERO, None);
        assert!(!p.is_up());
        p.set_admin_up(SimTime::ZERO, true);
        assert!(p.is_up());
        assert!(matches!(
            p.transmit(SimTime::ZERO, 100, &mut rng, 0, 0, &scope),
            PortOutcome::Forwarded { .. }
        ));
    }

    #[test]
    fn fault_overrides_restore_nominal() {
        let mut p = port(12_000_000, 6000);
        p.set_rate(SimTime::ZERO, Some(0));
        assert!(!p.is_up(), "silent blackhole");
        p.set_rate(SimTime::ZERO, None);
        assert_eq!(p.link().rate_bps(), 12_000_000);
        p.set_extra_delay(Some(SimDuration::from_millis(40)));
        assert_eq!(p.link().prop_delay(), SimDuration::from_millis(41));
        p.set_extra_delay(None);
        assert_eq!(p.link().prop_delay(), SimDuration::from_millis(1));
    }
}
