//! The poll-loop reactor: the live engine under the protocol cores.
//!
//! There is no async runtime in this workspace (offline-vendored, no
//! tokio), and none is needed: the protocol cores are synchronous state
//! machines, so the engine under them is a classic reactor — a readiness
//! sweep over the transport, a timer sweep over per-connection deadlines,
//! and per-connection workers that feed arrivals into [`MpConnection`]
//! and drain its `poll_transmit` output back to the wire. The timer queue
//! is `crates/sim`'s [`EventQueue`](emptcp_sim::EventQueue) living inside
//! the shaped transports, keyed on the same monotonic nanoseconds the
//! wall clock produces.
//!
//! **One loop, one settle step.** [`Reactor::run_until`] reaches the next
//! instant, then `settle`s it: apply due faults, deliver *at most one*
//! frame, run every worker's deadline sweep and transmit drain in
//! registration order. This is the only pair pump in the workspace: the
//! simulator's chaos rig ([`MpChaosRig`](crate::MpChaosRig)) is this
//! reactor over a [`ChaosNet`](emptcp_faults::ChaosNet), so
//! event-for-event decision parity between the two backends is a
//! statement about two transports, not about two loops kept in step, and
//! a wall-clock run executes the certified step itself, not a copy of it.
//! Under the driver contract of [`emptcp_mptcp`] (DESIGN §15) sweeping a
//! worker nothing touched is a no-op. The sweep stays whole: it is the
//! reference the other drivers' [`rearm`](emptcp_mptcp::rearm) is checked
//! against, and with one or two workers a dirty set would save nothing.
//!
//! The only clock-dependent code is how the next instant is reached. A
//! virtual clock jumps to the earliest deadline or held frame, like a
//! discrete-event simulator, and stops when there is none. A wall clock
//! cannot jump: sockets can't announce their next arrival, and the
//! [`Transport`] trait deliberately has no blocking wait (a wrapper that
//! does not forward one would silently fall back to sleeping). So it
//! reads the time, and an empty settle is answered by [`IdleBackoff`]: a
//! run of `yield_now`s, then naps of 50 µs · 2ⁿ up to
//! [`MAX_WALL_SLEEP`](crate::clock::MAX_WALL_SLEEP), never past the next
//! protocol deadline or transport wake-up, and any arrival starts the
//! ladder over. A bulk transfer is CPU-bound rather than sleep-bound — the
//! stack adds microseconds, not a millisecond, to the RTTs it then
//! schedules by — while a quiet connection still costs one wake-up per
//! millisecond. [`ReactorStats`] says where the time went
//! (`idle_polls`, `yields`, `naps`, `nap_ns`).
//!
//! [`MpConnection`]: emptcp_mptcp::MpConnection

use crate::clock::{ClockSource, IdleBackoff, IdleStep};
use crate::transport::Transport;
use emptcp_faults::{FaultAction, FaultInjector, FaultPart, FaultSpec, FaultTarget};
use emptcp_mptcp::{MpConnection, Role, SubflowId};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::TcpConfig;
use emptcp_telemetry::Telemetry;

/// Iteration cap of the virtual loop: a runaway guard, far above what any
/// scripted transfer needs.
const GUARD_MAX: u64 = 3_000_000;

/// One connection plus its transport endpoint: the unit the reactor
/// pumps. Workers are plain structs driven by the loop (not threads) so
/// the whole engine stays deterministic under a virtual clock.
pub struct ConnWorker {
    /// The protocol core — the exact type the simulator drives.
    pub conn: MpConnection,
    /// Which transport endpoint this worker's frames enter and leave by.
    pub endpoint: usize,
}

impl ConnWorker {
    pub fn new(conn: MpConnection, endpoint: usize) -> ConnWorker {
        ConnWorker { conn, endpoint }
    }
}

/// What a reactor run did, for reports and assertions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorStats {
    /// Loop iterations executed.
    pub iterations: u64,
    /// Frames delivered into workers.
    pub arrivals: u64,
    /// Segments drained from workers onto the transport.
    pub sends: u64,
    /// Fault-plan events applied.
    pub fault_events: u64,
    /// Frames dropped because no worker is registered for their endpoint.
    pub unroutable: u64,
    /// Wall loop: iterations whose poll found nothing to deliver.
    pub idle_polls: u64,
    /// Wall loop: idle polls answered with a bare `yield_now`.
    pub yields: u64,
    /// Wall loop: idle polls answered with a sleep.
    pub naps: u64,
    /// Wall loop: time actually spent in those sleeps, nanoseconds.
    pub nap_ns: u64,
    /// Clock reading when the run ended.
    pub finished_at: SimTime,
}

/// The engine: clock + transport + workers (+ an optional fault plan).
pub struct Reactor<T: Transport> {
    pub clock: ClockSource,
    pub transport: T,
    pub workers: Vec<ConnWorker>,
    /// Replays a fault plan against the transport's shaped paths as the
    /// clock passes each event.
    pub injector: Option<FaultInjector>,
    /// Absolute clock cut-off for [`Reactor::run_until`].
    pub wall_limit: SimTime,
    stats: ReactorStats,
}

impl<T: Transport> Reactor<T> {
    pub fn new(clock: ClockSource, transport: T) -> Reactor<T> {
        Reactor {
            clock,
            transport,
            workers: Vec::new(),
            injector: None,
            wall_limit: SimTime::from_secs(900),
            stats: ReactorStats::default(),
        }
    }

    /// Register a worker; returns its index. Registration order is the
    /// settle order.
    pub fn register(&mut self, worker: ConnWorker) -> usize {
        self.workers.push(worker);
        self.workers.len() - 1
    }

    /// A complete two-host rig over `transport`: the data receiver
    /// (client, endpoint 0) registered first, the data sender (server,
    /// endpoint 1) second, one subflow per transport path on both ends —
    /// path 0 is WiFi, later paths cellular — default TCP config.
    pub fn pair(clock: ClockSource, mut transport: T) -> Reactor<T> {
        let mut client = MpConnection::new(Role::Client, TcpConfig::default());
        let mut server = MpConnection::new(Role::Server, TcpConfig::default());
        for idx in 0..transport.paths_mut().len() {
            let iface = if idx == 0 {
                IfaceKind::Wifi
            } else {
                IfaceKind::CellularLte
            };
            client.add_subflow(SimTime::ZERO, iface);
            server.add_subflow(SimTime::ZERO, iface);
        }
        let mut reactor = Reactor::new(clock, transport);
        reactor.register(ConnWorker::new(client, 0));
        reactor.register(ConnWorker::new(server, 1));
        reactor
    }

    /// The receiving end of a [`Reactor::pair`].
    pub fn client(&mut self) -> &mut MpConnection {
        &mut self.workers[0].conn
    }

    /// The sending end of a [`Reactor::pair`].
    pub fn server(&mut self) -> &mut MpConnection {
        &mut self.workers[1].conn
    }

    /// Attach a fault plan to replay as the clock passes each event; every
    /// fault applied is reported into `telemetry` at scope `u32::MAX`, the
    /// scope the shard engine's core reports its faults at.
    pub fn attach_faults(&mut self, faults: &[FaultSpec], telemetry: &Telemetry) {
        let mut injector = FaultInjector::new(faults);
        injector.set_telemetry(telemetry.scope(u32::MAX));
        self.injector = Some(injector);
    }

    /// Push `total` bytes from a [`Reactor::pair`]'s server to its client
    /// (or until progress stops or the wall limit hits); returns the bytes
    /// delivered.
    pub fn transfer(&mut self, total: u64) -> u64 {
        self.server().write(total);
        self.run_until(|workers| workers[0].conn.bytes_delivered() >= total);
        self.client().bytes_delivered()
    }

    fn poll_faults(&mut self, now: SimTime) {
        if let Some(mut inj) = self.injector.take() {
            self.stats.fault_events += inj.poll(now, self) as u64;
            self.injector = Some(inj);
        }
    }

    /// Drain every worker's pending transmissions onto the transport, in
    /// registration order.
    fn pump_transmit(&mut self, now: SimTime) {
        let Reactor {
            workers,
            transport,
            stats,
            ..
        } = self;
        for w in workers.iter_mut() {
            while let Some((sf, seg)) = w.conn.poll_transmit(now) {
                transport.send(now, w.endpoint, sf.0, &seg);
                stats.sends += 1;
            }
        }
    }

    /// Deliver at most one due frame into its worker; true when the
    /// transport had one. A frame for an endpoint nobody registered is
    /// dropped and counted.
    fn deliver_one(&mut self, now: SimTime) -> bool {
        let Some((ep, path, seg)) = self.transport.poll_recv(now) else {
            return false;
        };
        match self.workers.iter_mut().find(|w| w.endpoint == ep) {
            Some(w) => {
                self.stats.arrivals += 1;
                w.conn.on_segment(now, SubflowId(path), seg);
            }
            None => self.stats.unroutable += 1,
        }
        true
    }

    /// The earliest instant at which the reactor knows it has work: a
    /// protocol or fault deadline, or a frame the transport is holding.
    fn next_instant(&mut self) -> Option<SimTime> {
        self.workers
            .iter()
            .filter_map(|w| w.conn.next_deadline())
            .chain(self.injector.as_ref().and_then(|i| i.next_deadline()))
            .chain(self.transport.next_wakeup())
            .min()
    }

    /// The settle step, the same at every instant on either clock: faults
    /// due, at most one arrival, every worker's deadline sweep, then the
    /// transmit drain. Returns whether a frame arrived.
    fn settle(&mut self, now: SimTime) -> bool {
        self.stats.iterations += 1;
        self.poll_faults(now);
        let arrived = self.deliver_one(now);
        for w in &mut self.workers {
            w.conn.on_deadline(now);
        }
        self.pump_transmit(now);
        arrived
    }

    /// Answer a wall-clock settle at `now` that delivered nothing: yield,
    /// or nap toward the next known instant.
    fn idle(&mut self, now: SimTime, step: IdleStep) {
        self.stats.idle_polls += 1;
        let nap = match step {
            IdleStep::Yield => SimDuration::ZERO,
            IdleStep::Nap(d) => nap_within(d, now, self.next_instant()),
        };
        if nap == SimDuration::ZERO {
            self.stats.yields += 1;
            std::thread::yield_now();
        } else {
            self.stats.naps += 1;
            let woke = self.clock.advance_to(now + nap);
            self.stats.nap_ns += woke.saturating_since(now).as_nanos();
        }
    }

    /// Run the loop until `done` says so, no event source has anything
    /// left (virtual clock), or the wall limit passes. Returns the run's
    /// stats; cumulative stats stay on the reactor.
    pub fn run_until(&mut self, mut done: impl FnMut(&[ConnWorker]) -> bool) -> ReactorStats {
        let start = self.clock.now();
        // Prologue: apply faults due at the start instant and drain the
        // initial transmissions (SYNs, the first data the sender already
        // queued) — no deadline sweep yet.
        self.poll_faults(start);
        self.pump_transmit(start);
        let guard = self.stats.iterations + GUARD_MAX;
        let mut idle = IdleBackoff::default();
        let (mut now, mut arrived) = (start, true);
        while !done(&self.workers) {
            now = if self.clock.is_wall() {
                if let Some(step) = idle.on_poll(arrived) {
                    self.idle(now, step);
                }
                self.clock.now()
            } else {
                match self.next_instant() {
                    Some(next) if next <= self.wall_limit && self.stats.iterations < guard => {
                        self.clock.advance_to(next)
                    }
                    _ => break,
                }
            };
            if now > self.wall_limit {
                break;
            }
            arrived = self.settle(now);
        }
        self.stats.finished_at = self.clock.now();
        self.stats
    }

    /// Stats accumulated so far.
    pub fn stats(&self) -> ReactorStats {
        self.stats
    }
}

/// How long an idle reactor may sleep at `now`: the nap the backoff asked
/// for, but never past `next`, the earliest instant at which the reactor
/// knows it has work (a protocol or fault deadline, a shaped-egress
/// departure). Zero — a deadline already due — means yield instead.
fn nap_within(nap: SimDuration, now: SimTime, next: Option<SimTime>) -> SimDuration {
    next.map_or(nap, |t| nap.min(t.saturating_since(now)))
}

/// Fault application: plan targets map to transport paths by the
/// WiFi-first convention ([`FaultTarget::path_index`]) — a single path
/// for the interface targets, every path for the shared core (a congested
/// core hits all traffic crossing it), nothing for an out-of-range target
/// — and the action alone decides what the stacks hear: `IfaceDown` and
/// `IfaceUp` are announced to every stack, while a rate of zero is a
/// silent blackhole that only RTOs reveal.
impl<T: Transport> Reactor<T> {
    fn target_paths(&mut self, target: FaultTarget) -> std::ops::Range<usize> {
        let n = self.transport.paths_mut().len();
        match target.path_index() {
            Some(idx) if idx < n => idx..idx + 1,
            Some(_) => 0..0,
            None => 0..n,
        }
    }
}

impl<T: Transport> emptcp_faults::FaultSurface for Reactor<T> {
    fn apply(&mut self, now: SimTime, target: FaultTarget, action: FaultAction) {
        for idx in self.target_paths(target) {
            let part = self.transport.paths_mut()[idx].apply(action);
            if part == FaultPart::Up {
                let up = action == FaultAction::IfaceUp;
                for w in &mut self.workers {
                    w.conn.set_subflow_link_up(now, SubflowId(idx as u8), up);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MpChaosRig;
    use emptcp_faults::ChaosPath;

    fn two_paths() -> Vec<ChaosPath> {
        vec![
            ChaosPath::new(0.0, SimDuration::from_millis(12), 0),
            ChaosPath::new(0.0, SimDuration::from_millis(35), 0),
        ]
    }

    #[test]
    fn a_nap_never_outlasts_the_next_known_instant() {
        let now = SimTime::from_millis(7);
        let us = SimDuration::from_micros;
        // Nothing known: the backoff's nap stands.
        assert_eq!(nap_within(us(400), now, None), us(400));
        // A deadline inside the nap cuts it short; one beyond does not.
        assert_eq!(nap_within(us(400), now, Some(now + us(120))), us(120));
        assert_eq!(nap_within(us(400), now, Some(now + us(900))), us(400));
        // Already due: no sleep at all.
        assert_eq!(nap_within(us(400), now, Some(now)), SimDuration::ZERO);
        assert_eq!(
            nap_within(us(400), now, Some(SimTime::from_millis(3))),
            SimDuration::ZERO
        );
        // Whatever the ladder asks for, the clamp holds.
        let mut idle = IdleBackoff::default();
        for i in 0..200u64 {
            if let Some(IdleStep::Nap(d)) = idle.on_poll(i % 67 == 66) {
                let next = now + us(i * 13);
                assert!(now + nap_within(d, now, Some(next)) <= next);
            }
        }
    }

    /// A transport with a fixed notion of when it next has work, on which
    /// nothing arrives but `stray`, a frame for an endpoint nobody registered.
    struct Stub {
        wakeup: Option<SimTime>,
        stray: Option<emptcp_tcp::Segment>,
    }

    impl Transport for Stub {
        fn endpoints(&self) -> usize {
            1
        }
        fn send(&mut self, _: SimTime, _: usize, _: u8, _: &emptcp_tcp::Segment) {}
        fn poll_recv(&mut self, _: SimTime) -> Option<(usize, u8, emptcp_tcp::Segment)> {
            self.stray.take().map(|seg| (5, 0, seg))
        }
        fn next_wakeup(&mut self) -> Option<SimTime> {
            self.wakeup
        }
        fn paths_mut(&mut self) -> &mut [ChaosPath] {
            &mut []
        }
    }

    fn idle_for(wakeup: Option<SimTime>, stray: bool, limit: SimDuration) -> ReactorStats {
        let stray = stray.then(|| emptcp_tcp::Segment::empty(SimTime::ZERO));
        let mut reactor = Reactor::new(ClockSource::wall(), Stub { wakeup, stray });
        reactor.wall_limit = SimTime::ZERO + limit;
        reactor.run_until(|_| false)
    }

    #[test]
    fn an_idle_wall_loop_yields_first_then_naps_and_counts_both() {
        let stats = idle_for(None, false, SimDuration::from_millis(20));
        assert_eq!(stats.arrivals, 0);
        assert_eq!(stats.idle_polls, stats.iterations);
        assert_eq!(stats.yields + stats.naps, stats.idle_polls);
        assert!(stats.yields > 0 && stats.naps > 0, "{stats:?}");
        // Every nap is a real sleep of at least the first rung.
        assert!(stats.nap_ns >= stats.naps * 50_000, "{stats:?}");
    }

    #[test]
    fn a_wall_loop_with_work_already_due_never_sleeps() {
        let stats = idle_for(Some(SimTime::ZERO), false, SimDuration::from_millis(3));
        assert_eq!(stats.naps, 0, "{stats:?}");
        assert_eq!(stats.yields, stats.idle_polls);
    }

    #[test]
    fn a_frame_for_an_unregistered_endpoint_is_counted_and_the_loop_goes_on() {
        let stats = idle_for(None, true, SimDuration::from_millis(2));
        assert_eq!((stats.unroutable, stats.arrivals), (1, 0), "{stats:?}");
        assert!(stats.iterations > 1, "{stats:?}");
    }

    #[test]
    fn downed_path_passes_nothing() {
        let mut rig = MpChaosRig::over(3, two_paths());
        // Down the cellular path alone, unannounced to the stacks.
        rig.transport.paths_mut()[1].apply(FaultAction::IfaceDown);
        assert_eq!(rig.transfer(64 << 10), 64 << 10);
        assert_eq!(rig.client().delivered_by_iface(IfaceKind::CellularLte), 0);
    }
}
