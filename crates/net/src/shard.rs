//! Sharded fleet engine: conservative-lookahead epochs over flyweight
//! client rows.
//!
//! [`ShardedFleetSim`] is the workspace's one fleet engine: a star-shaped
//! population of N mixed TCP/MPTCP client stacks, each answered by its own
//! server endpoint over its own backbone link, all sharing one core
//! bottleneck, with optional cross-traffic and core fault injection. The
//! fleet is partitioned so it scales to a million clients:
//!
//! * **Shards.** Clients are split into contiguous blocks. Each shard owns
//!   its own [`EventQueue`], two [`LaneQueue`] lanes for what the core
//!   feeds it, telemetry pipeline and per-client RNG streams; a dedicated
//!   *core* shard owns the shared bottleneck port, the reverse (ack) core
//!   port, the cross-traffic sources and the fault injector. No state is
//!   shared between shards inside an epoch, so shards execute on
//!   independent workers.
//!
//! * **Conservative lookahead.** Every packet crossing a shard boundary
//!   traverses a link whose propagation delay is at least Δ — the minimum
//!   over the server backbone, the access links in use and the core
//!   bottleneck ([`lookahead`] computes it; [`FleetConfig::validate`]
//!   rejects a zero bound as [`FleetConfigError::NoLookahead`]). Shards therefore
//!   advance in epochs of length Δ ([`EpochClock`]): a message generated at
//!   time `t` inside epoch `k` arrives at `t + Δ ≥ (k+1)·Δ`, i.e. at or
//!   after the barrier every shard synchronizes on, so no shard ever sees
//!   an event from its past. Cross-shard segments ride [`Hops`] buffers:
//!   one outbox per client shard toward the core, and one per client
//!   shard on the core, filed by destination as the core sends. The
//!   barrier only swaps buffers — each outbox becomes its destination's
//!   inbox — and every shard files its inbox into its own queue or lanes
//!   at the start of its next task, on its own thread. A segment in flight
//!   is owned by whatever carries it — a queued event, a lane entry or a
//!   buffered [`Hop`] — so none can leak or be delivered twice.
//!
//! * **Canonical event keys.** Determinism across `(jobs, shards)` hinges
//!   on same-instant ordering being a pure function of the *simulation*,
//!   not the partition. Every scheduled event carries a caller-assigned
//!   key `(class, owner, seq)` — owner 0 is the core, owner `i + 1` is
//!   client `i`, `seq` counts that owner's schedules — installed with
//!   [`EventQueue::schedule_keyed`]. An owner's schedule sequence depends
//!   only on its own history, so the key of every event is identical for
//!   every shard count, and so is the pop order. The keys order a client
//!   shard's lanes too: the core's bottleneck hops and its reverse-port
//!   hops each leave one FIFO port under ascending core keys, so each
//!   stream rides a lane sorted on `(time, key)`
//!   ([`LaneQueue::schedule_keyed`]) that a hop joins at the back unless a
//!   core rate rise let it overtake (counted as
//!   `fleet.shard{N}.lane_inserted_ahead`), and the shard pops the least
//!   `(time, key)` of its heap and both lanes
//!   ([`LaneQueue::pop_merged_before`]): the order one heap of every event
//!   would give, without heaping the core's hops. There is **no** special
//!   single-shard code path: `shards == 1` runs the identical epoch and
//!   barrier machinery, which is what makes it the differential reference.
//!
//! * **Flyweight rows.** Per-client hot state lives in struct-of-arrays
//!   columns ([`Rows`]): connection endpoints, the six per-client ports,
//!   armed-timer slots, key counters and RNG streams are parallel vectors
//!   indexed by the client's local row. There is no topology graph, no
//!   routing table and no per-client name strings — the star's next hop is
//!   closed-form — which is what drops per-client footprint enough for
//!   `--clients 1000000` to complete.
//!
//! Traces stay byte-identical across shard counts: each shard's pipeline
//! tags every record with the key of the driving event, and at every epoch
//! barrier the records are merged into the outer pipeline by a stable sort
//! on `(time, key)` — so an attached monitor streams while the run is in
//! flight and no shard ever buffers more than one epoch of trace. Per-shard
//! pipelines inherit the outer pipeline's invariant switch; a violation a
//! shard catches rides the same barrier flush and is reported exactly once
//! on the outer handle.

use crate::fleet::{FleetConfig, FleetConfigError, FleetReport};
use crate::port::{NodeId, Port, PortOutcome};
use crate::reduce;
use emptcp_faults::{FaultAction, FaultInjector, FaultSpec, FaultState, FaultSurface, FaultTarget};
use emptcp_mptcp::{rearm, MpConnection, Role, SubflowId};
use emptcp_phy::modulation::OnOff;
use emptcp_phy::{IfaceKind, LinkConfig};
use emptcp_sim::{EpochClock, EventQueue, LaneQueue, SimDuration, SimRng, SimTime, TimerId};
use emptcp_tcp::{CcAlgorithm, Segment, TcpConfig};
use emptcp_telemetry::{shard_metric, Telemetry, TelemetryScope, TraceEvent, TraceSink};
use emptcp_workload::download::{BULK_REQUEST_BYTES, UNBOUNDED_BYTES};
use emptcp_workload::CrossTrafficSource;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Canonical event keys
// ---------------------------------------------------------------------

/// Fault-injector polls: applied before any same-instant packet event.
const CLASS_FAULT: u64 = 0;
/// Build-time and initial-drain trace tags (never queue keys).
const CLASS_INIT: u64 = 1;
/// Ordinary scheduled events.
const CLASS_EVENT: u64 = 2;
/// End-of-run finalization trace tags (never queue keys).
const CLASS_FINAL: u64 = 3;

/// The core shard's owner id; client `i` is owner `i + 1`.
const CORE_OWNER: u32 = 0;

/// Pack `(class, owner, seq)` into the canonical 64-bit ordering key:
/// 2 bits of class, 30 bits of owner, 32 bits of per-owner sequence.
fn pack(class: u64, owner: u32, seq: u32) -> u64 {
    debug_assert!(owner < (1 << 30));
    class << 62 | (owner as u64) << 32 | seq as u64
}

// Stable per-client port labels for trace events and metrics.
const P_SRV_EGRESS: u32 = 0;
const P_SRV_INGRESS: u32 = 1;
const P_DOWN_A: u32 = 2;
const P_UP_A: u32 = 3;
const P_DOWN_B: u32 = 4;
const P_UP_B: u32 = 5;
// Core shard port labels (router 0).
const P_BOTTLENECK: u32 = 0;
const P_REVERSE: u32 = 1;
const P_CROSS_SINK: u32 = 2;

/// The conservative lookahead bound Δ for a fleet config: the minimum
/// propagation delay over every link a cross-shard packet can traverse as
/// its boundary hop — the 1 ms server backbone, the access links in use,
/// and the core bottleneck (whose delay bounds both core-egress
/// directions). Fault actions can only *add* delay
/// ([`FaultState::delay`]) or drop packets, never shorten propagation,
/// so the bound holds under any fault plan.
pub fn lookahead(cfg: &FleetConfig) -> SimDuration {
    let mut d = SERVER_LINK_PROP.min(cfg.bottleneck.prop_delay);
    d = d.min(cfg.access_a.prop_delay);
    if cfg.mptcp_every != 0 {
        d = d.min(cfg.access_b.prop_delay);
    }
    d
}

/// Server-side backbone propagation.
const SERVER_LINK_PROP: SimDuration = SimDuration::from_millis(1);

// ---------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------

/// Runs the per-epoch shard closures. Implementations only promise that
/// every index in `0..n` is invoked exactly once before returning; order
/// and parallelism are theirs to choose — the engine's output is
/// byte-identical either way.
pub trait ShardExecutor: Sync {
    /// Invoke `f(i)` for every `i` in `0..n`.
    fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync));
}

/// The trivial executor: runs every shard on the calling thread.
pub struct SerialExecutor;

impl ShardExecutor for SerialExecutor {
    fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            f(i);
        }
    }
}

/// One step of a run, split into one task per client shard plus one for
/// the core: the init sweep at time zero, or an epoch's events before its
/// exclusive bound.
#[derive(Clone, Copy)]
enum Step {
    Init,
    Until(SimTime),
}

/// Idle polls a waiting thread spins through before it yields.
const SPINS: u32 = 1 << 8;
/// How long a waiting thread yields before it sleeps until rung: longer
/// than an epoch's barrier, so a thread sleeps only when it is short of a
/// CPU, and never pays a wake-up per epoch.
const YIELD_FOR: Duration = Duration::from_millis(1);

/// Where a waiting thread sleeps once spinning and yielding found nothing
/// to do, so a run on more threads than CPUs leaves the CPUs to the
/// threads that have work. Whoever changes what a sleeper waits for rings
/// after the change.
#[derive(Default)]
struct Bell {
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    rung: Condvar,
}

impl Bell {
    /// Return once `ready()` holds. `ready` reads only `SeqCst` atomics
    /// that are written before [`Bell::ring`]: either the ringer sees this
    /// thread counted as a sleeper and wakes it under the lock, or this
    /// thread, counted, sees the write.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        for _ in 0..SPINS {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        let yielding = Instant::now();
        while yielding.elapsed() < YIELD_FOR {
            if ready() {
                return;
            }
            std::thread::yield_now();
        }
        // The lock guards no data, so a poisoned one is as good as any.
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, SeqCst);
        while !ready() {
            guard = self
                .rung
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Wake every sleeper; never panics, so a thread unwinding may ring.
    fn ring(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            drop(self.lock.lock());
            self.rung.notify_all();
        }
    }
}

/// The hand-off between the thread that runs the barrier and the workers
/// it spawned once for the whole run. Steps are numbered from 0 (the init
/// sweep). A task's claim word counts the steps it has been claimed in, so
/// task `i` of step `s` is claimed by moving word `i` from `s` to `s + 1`:
/// the claim is tagged with its step. A late thread that still sees step
/// `s − 1` as the latest finds every word already past it, so it never
/// runs a task of one epoch under another epoch's bound; and step `s + 1`
/// is published only after every task of step `s` has finished.
///
/// Each thread first claims the tasks it is home to, so a shard keeps
/// running on one thread (its memory stays in that thread's cache and
/// allocator arena), then any task still unclaimed, so a descheduled
/// thread holds nobody up.
struct Crew<'a> {
    part: &'a Partition,
    threads: usize,
    /// Per task, the steps it has been claimed in.
    claims: Vec<AtomicU64>,
    /// Steps published so far.
    published: AtomicU64,
    /// The latest published epoch's bound, in nanoseconds.
    bound: AtomicU64,
    /// Tasks claimed, over every step.
    claimed: AtomicU64,
    /// Tasks finished, over every step.
    done: AtomicU64,
    /// The run is over, or a thread panicked: workers leave.
    stop: AtomicBool,
    bell: Bell,
}

impl<'a> Crew<'a> {
    fn new(part: &'a Partition, threads: usize) -> Crew<'a> {
        Crew {
            part,
            threads,
            claims: (0..part.width()).map(|_| AtomicU64::new(0)).collect(),
            published: AtomicU64::new(0),
            bound: AtomicU64::new(0),
            claimed: AtomicU64::new(0),
            done: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            bell: Bell::default(),
        }
    }

    fn width(&self) -> u64 {
        self.claims.len() as u64
    }

    /// Publish `step`, work its tasks beside the workers as thread 0, and
    /// return once all of them have finished. Panics if a worker panicked.
    fn step(&self, step: Step) {
        if let Step::Until(bound) = step {
            self.bound.store(bound.as_nanos(), SeqCst);
        }
        let s = self.published.fetch_add(1, SeqCst);
        debug_assert_eq!(s == 0, matches!(step, Step::Init));
        self.bell.ring();
        self.drain(0);
        let target = (s + 1) * self.width();
        let finished = || self.done.load(SeqCst) >= target;
        self.bell
            .wait_until(|| finished() || self.stop.load(SeqCst));
        assert!(finished(), "a shard worker panicked");
    }

    /// Worker `me` (1 or more): run claimed tasks until the run is over.
    fn work(&self, me: usize) {
        let _leave = self.stop_on_drop();
        while !self.stop.load(SeqCst) {
            self.drain(me);
            self.bell
                .wait_until(|| self.claimable() || self.stop.load(SeqCst));
        }
    }

    fn claimable(&self) -> bool {
        self.claimed.load(SeqCst) < self.published.load(SeqCst) * self.width()
    }

    /// Claim and run the tasks of the latest published step that thread
    /// `me` is home to (task `i`'s home is thread `i % threads`), then any
    /// other still unclaimed.
    fn drain(&self, me: usize) {
        let Some(s) = self.published.load(SeqCst).checked_sub(1) else {
            return;
        };
        let width = self.claims.len();
        let home = (0..width).filter(|i| i % self.threads == me);
        for i in home.chain(0..width) {
            if self.claims[i]
                .compare_exchange(s, s + 1, SeqCst, SeqCst)
                .is_err()
            {
                continue;
            }
            self.claimed.fetch_add(1, SeqCst);
            // Step s + 1 waits for this task, so the bound is still s's.
            let step = match s {
                0 => Step::Init,
                _ => Step::Until(SimTime::from_nanos(self.bound.load(SeqCst))),
            };
            self.part.task(i, step);
            if (self.done.fetch_add(1, SeqCst) + 1).is_multiple_of(self.width()) {
                self.bell.ring();
            }
        }
    }

    /// Tells every worker to leave when dropped: at the end of the run,
    /// or while a panic unwinds the thread holding it.
    fn stop_on_drop(&self) -> StopOnDrop<'_, 'a> {
        StopOnDrop(self)
    }
}

struct StopOnDrop<'c, 'p>(&'c Crew<'p>);

impl Drop for StopOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.stop.store(true, SeqCst);
        self.0.bell.ring();
    }
}

// ---------------------------------------------------------------------
// Trace taps
// ---------------------------------------------------------------------

/// Per-shard trace sink: records every event with the key of the driving
/// event, so the barrier flush can re-serialize all shards' records into
/// one deterministic `(time, key)` order.
struct ShardTap {
    tag: u64,
    /// False when the outer pipeline checks invariants but records no
    /// trace: only violation events are then kept for the flush.
    trace: bool,
    records: Vec<(SimTime, u64, TraceEvent)>,
}

impl TraceSink for ShardTap {
    fn record(&mut self, t: SimTime, event: &TraceEvent) {
        if self.trace || matches!(event, TraceEvent::InvariantViolated { .. }) {
            self.records.push((t, self.tag, event.clone()));
        }
    }
}

type Tap = Arc<Mutex<ShardTap>>;

/// A shard's own pipeline: metrics, the outer pipeline's invariant switch,
/// and a tap when the outer handle wants the shard's records or violations.
fn make_pipeline(outer: &Telemetry) -> (Telemetry, Option<Tap>) {
    if !outer.enabled() {
        return (Telemetry::disabled(), None);
    }
    let builder = Telemetry::builder().invariants(outer.invariants_enabled());
    if outer.tracing_active() || outer.invariants_enabled() {
        let tap: Tap = Arc::new(Mutex::new(ShardTap {
            tag: 0,
            trace: outer.tracing_active(),
            records: Vec::new(),
        }));
        (builder.sink(Box::new(tap.clone())).build(), Some(tap))
    } else {
        (builder.build(), None)
    }
}

// ---------------------------------------------------------------------
// Client shards
// ---------------------------------------------------------------------

/// Struct-of-arrays client rows: every per-client column is a parallel
/// vector indexed by the client's local row in its shard. MPTCP rows
/// additionally reference a `(down_b, up_b)` port pair in the shard's
/// arena — one contiguous allocation for all second-path pairs instead of
/// one heap box per MPTCP row, which at fleet scale removes millions of
/// small allocations and keeps the pairs cache-adjacent in shard order.
struct Rows {
    client: Vec<MpConnection>,
    server: Vec<MpConnection>,
    srv_egress: Vec<Port>,
    srv_ingress: Vec<Port>,
    down_a: Vec<Port>,
    up_a: Vec<Port>,
    /// Index into `b_arena` for MPTCP rows, `None` for plain-TCP rows.
    b_idx: Vec<Option<u32>>,
    /// Arena of second-path port pairs, in row order.
    b_arena: Vec<(Port, Port)>,
    answered: Vec<bool>,
    timer: Vec<Option<(SimTime, TimerId)>>,
    seq: Vec<u32>,
    rng: Vec<SimRng>,
}

/// Events local to a client shard. A segment-bearing event owns its
/// segment until it fires; one still queued at the horizon drops with the
/// queue. The two kinds the core feeds ride the shard's lanes
/// ([`LANE_DOWN`], [`LANE_UP`]); the rest sit in its heap.
enum ClientEvent {
    /// A data segment leaving the core toward this client: charge the
    /// access downlink of subflow `sf`.
    DownFromCore {
        local: u32,
        sf: SubflowId,
        seg: Segment,
    },
    /// An ack/request leaving the core toward this client's server:
    /// charge the server ingress link.
    UpFromCore {
        local: u32,
        sf: SubflowId,
        seg: Segment,
    },
    /// Access-downlink delivery at the NIC.
    DeliverClient {
        local: u32,
        sf: SubflowId,
        seg: Segment,
    },
    /// Server-ingress delivery at the server endpoint.
    DeliverServer {
        local: u32,
        sf: SubflowId,
        seg: Segment,
    },
    /// Per-client re-armed deadline sweep.
    Timer { local: u32 },
}

/// A packet crossing between a client shard and the core, generated
/// inside an epoch and filed at its destination in the epoch after the
/// next barrier. The segment crosses by value; `key` was assigned by the
/// sender's counter, so it is unique and shard-invariant.
struct Hop {
    client: u32,
    sf: SubflowId,
    at: SimTime,
    key: u64,
    seg: Segment,
    /// True for server→client data (bottleneck direction), false for
    /// client→server acks (reverse core direction).
    down: bool,
}

/// The client-shard lane of the bottleneck's hops ([`ClientEvent::DownFromCore`]).
const LANE_DOWN: usize = 0;
/// The client-shard lane of the reverse port's hops ([`ClientEvent::UpFromCore`]).
const LANE_UP: usize = 1;

/// The fewest hops of capacity a drained buffer keeps.
const HOPS_KEPT: usize = 64;

/// Hops on their way across one barrier, with the earliest arrival among
/// them. A sender posts into its outbox during an epoch; the barrier swaps
/// the outbox with the destination's drained inbox, so two buffers per
/// direction change hands and no hop is moved there; the destination
/// drains its inbox at the start of its next task.
#[derive(Default)]
struct Hops {
    hops: Vec<Hop>,
    /// The least `at` of `hops`, so the epoch bound sees a hop still
    /// waiting to be filed.
    earliest: Option<SimTime>,
}

impl Hops {
    /// Queue `hop` and keep the earliest `at` for the epoch bound. The
    /// buffer grows by about a quarter when full rather than doubling.
    fn post(&mut self, hop: Hop) {
        if self.hops.len() == self.hops.capacity() {
            self.hops.reserve_exact(self.hops.len() / 4 + 4);
        }
        self.earliest = SimTime::earliest(self.earliest, Some(hop.at));
        self.hops.push(hop);
    }

    /// Hand every hop to `file` in the order it was posted. A buffer left
    /// holding more than four times what it drained (at least
    /// [`HOPS_KEPT`]) shrinks to twice that, so a start-up burst is not
    /// kept for the whole run by both buffers of a direction.
    fn drain(&mut self, file: impl FnMut(Hop)) {
        let keep = self.hops.len().max(HOPS_KEPT);
        self.hops.drain(..).for_each(file);
        self.earliest = None;
        if self.hops.capacity() > 4 * keep {
            self.hops.shrink_to(2 * keep);
        }
    }
}

struct ClientShard {
    /// Global id of local row 0.
    base: u32,
    rows: Rows,
    /// Everything the shard schedules itself: deliveries and timers.
    queue: EventQueue<ClientEvent>,
    /// What the core feeds the shard, one lane per core port. Each port is
    /// a FIFO whose hops leave under ascending core keys, so a hop joins
    /// its lane's back unless a core rate rise or a shrinking extra delay
    /// let it overtake an earlier one.
    lanes: LaneQueue<ClientEvent, 2>,
    /// What the core sent at the last barrier, filed into `lanes` when
    /// the shard next runs.
    inbox: Hops,
    /// What the shard sends the core this epoch.
    outbox: Hops,
    telemetry: Telemetry,
    port_scope: TelemetryScope,
    tap: Option<Tap>,
    events: u64,
}

impl ClientShard {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: &FleetConfig,
        base: usize,
        count: usize,
        outer: &Telemetry,
        client_rng: &SimRng,
    ) -> ClientShard {
        let (telemetry, tap) = make_pipeline(outer);
        let now = SimTime::ZERO;
        let mut rows = Rows {
            client: Vec::with_capacity(count),
            server: Vec::with_capacity(count),
            srv_egress: Vec::with_capacity(count),
            srv_ingress: Vec::with_capacity(count),
            down_a: Vec::with_capacity(count),
            up_a: Vec::with_capacity(count),
            b_idx: Vec::with_capacity(count),
            b_arena: Vec::new(),
            answered: vec![false; count],
            timer: vec![None; count],
            seq: vec![0; count],
            rng: Vec::with_capacity(count),
        };
        let mut mp_tcfg = TcpConfig::default();
        if cfg.coupled {
            mp_tcfg.algorithm = CcAlgorithm::Lia;
        }
        let backbone = LinkConfig::backbone(SERVER_LINK_PROP);
        for local in 0..count {
            let i = base + local;
            let owner = i as u32 + 1;
            if let Some(tap) = &tap {
                tap.lock().expect("tap poisoned").tag = pack(CLASS_INIT, owner, 0);
            }
            let mptcp = cfg.mptcp_every != 0 && i.is_multiple_of(cfg.mptcp_every);
            let tcfg = if mptcp { mp_tcfg } else { TcpConfig::default() };
            let mut client = MpConnection::new(Role::Client, tcfg);
            let mut server = MpConnection::new(Role::Server, tcfg);
            client.set_telemetry(telemetry.scope(i as u32));
            server.set_telemetry(telemetry.scope(i as u32));
            client.add_subflow(now, IfaceKind::Wifi);
            server.add_subflow(now, IfaceKind::Wifi);
            if mptcp {
                client.add_subflow(now, IfaceKind::CellularLte);
                server.add_subflow(now, IfaceKind::CellularLte);
            }
            client.write(BULK_REQUEST_BYTES);
            rows.client.push(client);
            rows.server.push(server);
            // Dummy node ids: the star's routing is closed-form, so port
            // endpoints are labels only (trace/metric ids are explicit).
            rows.srv_egress
                .push(Port::new(NodeId(owner), NodeId(0), backbone));
            rows.srv_ingress
                .push(Port::new(NodeId(0), NodeId(owner), backbone));
            rows.down_a
                .push(Port::new(NodeId(1), NodeId(owner), cfg.access_a));
            rows.up_a
                .push(Port::new(NodeId(owner), NodeId(1), cfg.access_a));
            let b_idx = mptcp.then(|| {
                rows.b_arena.push((
                    Port::new(NodeId(1), NodeId(owner), cfg.access_b),
                    Port::new(NodeId(owner), NodeId(1), cfg.access_b),
                ));
                (rows.b_arena.len() - 1) as u32
            });
            rows.b_idx.push(b_idx);
            let mut forked = client_rng.clone();
            rows.rng.push(forked.fork(i as u64));
        }
        let port_scope = telemetry.scope(u32::MAX);
        ClientShard {
            base: base as u32,
            rows,
            queue: EventQueue::new(),
            lanes: LaneQueue::new(),
            inbox: Hops::default(),
            outbox: Hops::default(),
            telemetry,
            port_scope,
            tap,
            events: 0,
        }
    }

    fn owner(&self, local: usize) -> u32 {
        self.base + local as u32 + 1
    }

    fn next_key(&mut self, local: usize, class: u64) -> u64 {
        let seq = self.rows.seq[local];
        self.rows.seq[local] += 1;
        pack(class, self.owner(local), seq)
    }

    fn set_tag(&self, tag: u64) {
        if let Some(tap) = &self.tap {
            tap.lock().expect("tap poisoned").tag = tag;
        }
    }

    /// Initial drain at time zero: launch the handshakes/requests and arm
    /// the first per-client timers.
    fn init(&mut self) {
        for local in 0..self.rows.client.len() {
            self.set_tag(pack(CLASS_INIT, self.owner(local), 1));
            self.touch(SimTime::ZERO, local);
        }
    }

    /// File the inbox, then process every queued event strictly before
    /// `bound`, heap and lanes merged on the canonical `(time, key)`.
    fn run_until(&mut self, bound: SimTime) {
        self.file_inbox();
        while let Some((now, key, event)) = self.lanes.pop_merged_before(&mut self.queue, bound) {
            self.events += 1;
            self.set_tag(key);
            self.handle(now, event);
        }
    }

    /// File what the core sent into the lanes, in the order the core sent
    /// it: each port's hops reach their lane in ascending key order.
    fn file_inbox(&mut self) {
        let (base, lanes) = (self.base, &mut self.lanes);
        self.inbox.drain(|hop| {
            let (local, sf, seg) = (hop.client - base, hop.sf, hop.seg);
            let (lane, event) = if hop.down {
                (LANE_DOWN, ClientEvent::DownFromCore { local, sf, seg })
            } else {
                (LANE_UP, ClientEvent::UpFromCore { local, sf, seg })
            };
            lanes.schedule_keyed(lane, hop.at, hop.key, event);
        });
    }

    /// The earliest event the heap, a lane or the inbox holds.
    fn next_time(&mut self) -> Option<SimTime> {
        let lane = self.lanes.peek_key().map(|(at, _)| at);
        let queued = SimTime::earliest(self.queue.peek_time(), lane);
        SimTime::earliest(queued, self.inbox.earliest)
    }

    fn handle(&mut self, now: SimTime, event: ClientEvent) {
        match event {
            ClientEvent::DownFromCore { local, sf, seg } => {
                self.charge_access(now, local as usize, sf, seg, true);
            }
            ClientEvent::UpFromCore { local, sf, seg } => {
                let l = local as usize;
                let wire = seg.wire_bytes();
                let owner = self.owner(l);
                let outcome = self.rows.srv_ingress[l].transmit(
                    now,
                    wire,
                    &mut self.rows.rng[l],
                    owner,
                    P_SRV_INGRESS,
                    &self.port_scope,
                );
                if let PortOutcome::Forwarded { at, .. } = outcome {
                    let key = self.next_key(l, CLASS_EVENT);
                    self.queue.schedule_keyed(
                        at,
                        key,
                        ClientEvent::DeliverServer { local, sf, seg },
                    );
                }
            }
            ClientEvent::DeliverClient { local, sf, seg } => {
                let l = local as usize;
                self.rows.client[l].on_segment(now, sf, seg);
                self.drain_client(now, l);
                self.arm_timer(now, l, self.rows.client[l].next_deadline());
            }
            ClientEvent::DeliverServer { local, sf, seg } => {
                let l = local as usize;
                self.rows.server[l].on_segment(now, sf, seg);
                self.feed_server(l);
                self.drain_server(now, l);
                self.arm_timer(now, l, self.rows.server[l].next_deadline());
            }
            ClientEvent::Timer { local } => {
                let l = local as usize;
                self.rows.timer[l] = None;
                self.rows.client[l].on_deadline(now);
                self.rows.server[l].on_deadline(now);
                self.touch(now, l);
            }
        }
    }

    /// Charge one access link (downlink when `down`, uplink otherwise).
    /// Downlink forwards schedule the local NIC delivery; uplink forwards
    /// emit a core-bound message.
    fn charge_access(&mut self, now: SimTime, l: usize, sf: SubflowId, seg: Segment, down: bool) {
        let wire = seg.wire_bytes();
        let owner = self.owner(l);
        let (port, label) = match (sf.0, down) {
            (0, true) => (&mut self.rows.down_a[l], P_DOWN_A),
            (0, false) => (&mut self.rows.up_a[l], P_UP_A),
            (_, down) => {
                let idx = self.rows.b_idx[l].expect("subflow b on a TCP row") as usize;
                let pair = &mut self.rows.b_arena[idx];
                if down {
                    (&mut pair.0, P_DOWN_B)
                } else {
                    (&mut pair.1, P_UP_B)
                }
            }
        };
        let outcome = port.transmit(
            now,
            wire,
            &mut self.rows.rng[l],
            owner,
            label,
            &self.port_scope,
        );
        let PortOutcome::Forwarded { at, .. } = outcome else {
            return;
        };
        let key = self.next_key(l, CLASS_EVENT);
        if down {
            let local = l as u32;
            self.queue
                .schedule_keyed(at, key, ClientEvent::DeliverClient { local, sf, seg });
        } else {
            self.outbox.post(Hop {
                client: self.base + l as u32,
                sf,
                at,
                key,
                seg,
                down: false,
            });
        }
    }

    /// Launch a server→client segment onto the server egress backbone.
    fn launch_down(&mut self, now: SimTime, l: usize, sf: SubflowId, seg: Segment) {
        let wire = seg.wire_bytes();
        let owner = self.owner(l);
        let outcome = self.rows.srv_egress[l].transmit(
            now,
            wire,
            &mut self.rows.rng[l],
            owner,
            P_SRV_EGRESS,
            &self.port_scope,
        );
        if let PortOutcome::Forwarded { at, .. } = outcome {
            let key = self.next_key(l, CLASS_EVENT);
            self.outbox.post(Hop {
                client: self.base + l as u32,
                sf,
                at,
                key,
                seg,
                down: true,
            });
        }
    }

    /// Timed bulk: the first complete request unlocks a response far
    /// larger than any horizon can drain.
    fn feed_server(&mut self, l: usize) {
        if !self.rows.answered[l] && self.rows.server[l].bytes_delivered() >= BULK_REQUEST_BYTES {
            self.rows.answered[l] = true;
            self.rows.server[l].write(UNBOUNDED_BYTES);
        }
    }

    fn drain_client(&mut self, now: SimTime, l: usize) {
        while let Some((sf, seg)) = self.rows.client[l].poll_transmit(now) {
            self.charge_access(now, l, sf, seg, false);
        }
    }

    fn drain_server(&mut self, now: SimTime, l: usize) {
        while let Some((sf, seg)) = self.rows.server[l].poll_transmit(now) {
            self.launch_down(now, l, sf, seg);
        }
    }

    /// Drain both endpoints of row `l` and re-arm its timer from both
    /// deadlines. An arrival drains only the endpoint it reached: an empty
    /// poll changes nothing, so the untouched side has nothing new to say.
    fn touch(&mut self, now: SimTime, l: usize) {
        self.drain_client(now, l);
        self.drain_server(now, l);
        self.arm_timer(now, l, self.earliest_deadline(l));
    }

    fn earliest_deadline(&self, l: usize) -> Option<SimTime> {
        let r = &self.rows;
        SimTime::earliest(r.client[l].next_deadline(), r.server[l].next_deadline())
    }

    /// Move row `l`'s timer earlier if `touched`, the deadline of the
    /// endpoint an event reached, is due before it ([`rearm`]).
    fn arm_timer(&mut self, now: SimTime, l: usize, touched: Option<SimTime>) {
        let armed = self.rows.timer[l].map(|(at, _)| at);
        if let Some(d) = rearm(now, armed, touched, || self.earliest_deadline(l)) {
            if let Some((_, id)) = self.rows.timer[l].take() {
                self.queue.cancel(id);
            }
            let key = self.next_key(l, CLASS_EVENT);
            let event = ClientEvent::Timer { local: l as u32 };
            let id = self.queue.schedule_keyed(d, key, event);
            self.rows.timer[l] = Some((d, id));
        }
    }

    /// File what the last barrier handed over (past the horizon, but
    /// counted in `lane_inserted_ahead` like every hop the core sent),
    /// flush delivered-trace residue and publish the shard's aggregate
    /// metrics.
    fn finalize(&mut self, sid: usize, horizon: SimTime) {
        self.file_inbox();
        for l in 0..self.rows.client.len() {
            self.set_tag(pack(CLASS_FINAL, self.owner(l), 0));
            self.rows.client[l].flush_delivered_trace(horizon);
            self.rows.server[l].flush_delivered_trace(horizon);
        }
        let (mut delivered, mut drops_q, mut drops_c, mut marks) = (0, 0, 0, 0);
        self.for_each_port(|p| {
            delivered += p.link().delivered_packets();
            drops_q += p.link().dropped_queue();
            drops_c += p.link().dropped_channel();
            marks += p.ecn_marked();
        });
        let (events, ahead) = (self.events, self.lanes.inserted_ahead());
        self.telemetry.with_metrics(|m| {
            m.counter_add(&shard_metric(sid as u32, "events"), events);
            m.counter_add(&shard_metric(sid as u32, "lane_inserted_ahead"), ahead);
            m.counter_add(&shard_metric(sid as u32, "delivered"), delivered);
            m.counter_add(&shard_metric(sid as u32, "drops_queue"), drops_q);
            m.counter_add(&shard_metric(sid as u32, "drops_channel"), drops_c);
            m.counter_add(&shard_metric(sid as u32, "ecn_marked"), marks);
        });
    }

    fn for_each_port(&self, mut f: impl FnMut(&Port)) {
        for l in 0..self.rows.client.len() {
            f(&self.rows.srv_egress[l]);
            f(&self.rows.srv_ingress[l]);
            f(&self.rows.down_a[l]);
            f(&self.rows.up_a[l]);
            if let Some(idx) = self.rows.b_idx[l] {
                let pair = &self.rows.b_arena[idx as usize];
                f(&pair.0);
                f(&pair.1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The core shard
// ---------------------------------------------------------------------

/// The core shard's three ports, and the one fault state a fleet has.
/// Implements the fault surface: `FaultTarget::Core` is designated onto
/// the shared bottleneck; the access-path targets have no designated
/// ports here, and a fleet scenario that names one fails validation
/// before it can run.
#[derive(Debug)]
pub struct CorePorts {
    bottleneck: Port,
    reverse: Port,
    cross_sink: Port,
    /// What the plan holds over the bottleneck.
    fault: FaultState,
}

impl CorePorts {
    /// The core ports of the fleet `cfg` describes, fault-free.
    pub fn new(cfg: &FleetConfig) -> CorePorts {
        CorePorts {
            bottleneck: Port::new(NodeId(0), NodeId(1), cfg.bottleneck),
            reverse: Port::new(
                NodeId(1),
                NodeId(0),
                LinkConfig::backbone(cfg.bottleneck.prop_delay),
            ),
            cross_sink: Port::new(NodeId(1), NodeId(2), LinkConfig::backbone(SERVER_LINK_PROP)),
            fault: FaultState::default(),
        }
    }

    /// The shared bottleneck, where `FaultTarget::Core` lands.
    pub fn bottleneck(&self) -> &Port {
        &self.bottleneck
    }
}

impl FaultSurface for CorePorts {
    fn apply(&mut self, now: SimTime, target: FaultTarget, action: FaultAction) {
        if target == FaultTarget::Core {
            let part = self.fault.apply(action);
            self.fault.push(part, now, self.bottleneck.link_mut());
        }
    }
}

enum CoreEvent {
    /// A segment arriving at the core, which owns it until it fires:
    /// server→client data (`down`) charges the bottleneck, client→server
    /// acks the reverse port.
    AtCore {
        client: u32,
        sf: SubflowId,
        down: bool,
        seg: Segment,
    },
    /// A cross source is due to emit (or toggle).
    CrossPoll { src: u32 },
    /// A cross packet cleared the bottleneck: charge the sink backbone.
    CrossAtOut { src: u32 },
    /// A cross packet reached the sink (absorbed).
    CrossAtSink,
    /// The fault injector has an event due now.
    FaultPoll,
}

struct CoreShard {
    queue: EventQueue<CoreEvent>,
    ports: CorePorts,
    cross: Vec<CrossTrafficSource>,
    cross_packets: u64,
    injector: Option<FaultInjector>,
    faults_applied: u64,
    rng: SimRng,
    seq: u32,
    /// The global client id of each client shard's first row (ascending):
    /// where a hop is bound.
    starts: Vec<u32>,
    /// What each client shard sent at the last barrier, indexed as
    /// `starts`, filed into `queue` when the core next runs.
    inboxes: Vec<Hops>,
    /// One outbox per client shard, indexed as `starts`.
    outboxes: Vec<Hops>,
    telemetry: Telemetry,
    port_scope: TelemetryScope,
    tap: Option<Tap>,
    events: u64,
}

impl CoreShard {
    fn new(cfg: &FleetConfig, starts: Vec<u32>, outer: &Telemetry, root: &SimRng) -> CoreShard {
        let (telemetry, tap) = make_pipeline(outer);
        let now = SimTime::ZERO;
        let mut cross_rng = root.fork_labeled("cross");
        let cross = (0..cfg.cross_sources)
            .map(|i| {
                CrossTrafficSource::new(
                    now,
                    if i % 2 == 0 { OnOff::On } else { OnOff::Off },
                    cfg.cross_rate_bps,
                    1500,
                    0.5,
                    0.5,
                    cross_rng.fork(i as u64),
                )
            })
            .collect();
        let port_scope = telemetry.scope(u32::MAX);
        CoreShard {
            queue: EventQueue::new(),
            ports: CorePorts::new(cfg),
            cross,
            cross_packets: 0,
            injector: None,
            faults_applied: 0,
            rng: root.fork_labeled("net"),
            seq: 0,
            inboxes: starts.iter().map(|_| Hops::default()).collect(),
            outboxes: starts.iter().map(|_| Hops::default()).collect(),
            starts,
            telemetry,
            port_scope,
            tap,
            events: 0,
        }
    }

    fn next_key(&mut self, class: u64) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        pack(class, CORE_OWNER, seq)
    }

    fn set_tag(&self, tag: u64) {
        if let Some(tap) = &self.tap {
            tap.lock().expect("tap poisoned").tag = tag;
        }
    }

    /// Apply faults due at time zero and schedule the first fault poll
    /// and the cross sources' first wake-ups.
    fn init(&mut self) {
        self.set_tag(pack(CLASS_INIT, CORE_OWNER, 0));
        self.poll_faults(SimTime::ZERO);
        for src in 0..self.cross.len() {
            let at = self.cross[src].next_event();
            let key = self.next_key(CLASS_EVENT);
            let src = src as u32;
            self.queue
                .schedule_keyed(at, key, CoreEvent::CrossPoll { src });
        }
    }

    /// Apply every fault due at `now` and schedule the next poll exactly
    /// at the injector's next deadline (class 0, so it sorts before any
    /// same-instant packet event).
    fn poll_faults(&mut self, now: SimTime) {
        let Some(mut inj) = self.injector.take() else {
            return;
        };
        self.faults_applied += inj.poll(now, &mut self.ports) as u64;
        if let Some(d) = inj.next_deadline() {
            let key = self.next_key(CLASS_FAULT);
            self.queue.schedule_keyed(d, key, CoreEvent::FaultPoll);
        }
        self.injector = Some(inj);
    }

    /// File every client shard's inbox in shard order, then process every
    /// queued event strictly before `bound`.
    fn run_until(&mut self, bound: SimTime) {
        let queue = &mut self.queue;
        for inbox in &mut self.inboxes {
            inbox.drain(|hop| {
                let event = CoreEvent::AtCore {
                    client: hop.client,
                    sf: hop.sf,
                    down: hop.down,
                    seg: hop.seg,
                };
                queue.schedule_keyed(hop.at, hop.key, event);
            });
        }
        while let Some((now, key, event)) = self.queue.pop_before(bound) {
            self.events += 1;
            self.set_tag(key);
            self.handle(now, event);
        }
    }

    /// The earliest event the heap or an inbox holds.
    fn next_time(&mut self) -> Option<SimTime> {
        let queued = self.queue.peek_time();
        self.inboxes
            .iter()
            .fold(queued, |t, inbox| SimTime::earliest(t, inbox.earliest))
    }

    fn handle(&mut self, now: SimTime, event: CoreEvent) {
        match event {
            CoreEvent::AtCore {
                client,
                sf,
                down,
                seg,
            } => {
                let (port, label) = if down {
                    (&mut self.ports.bottleneck, P_BOTTLENECK)
                } else {
                    (&mut self.ports.reverse, P_REVERSE)
                };
                let outcome = port.transmit(
                    now,
                    seg.wire_bytes(),
                    &mut self.rng,
                    0,
                    label,
                    &self.port_scope,
                );
                // The ECN mark is accounting-only at the port (the
                // transports are loss-based).
                if let PortOutcome::Forwarded { at, .. } = outcome {
                    let key = self.next_key(CLASS_EVENT);
                    let sid = self.starts.partition_point(|&start| start <= client) - 1;
                    self.outboxes[sid].post(Hop {
                        client,
                        sf,
                        at,
                        key,
                        seg,
                        down,
                    });
                }
            }
            CoreEvent::CrossPoll { src } => {
                let i = src as usize;
                let packets = self.cross[i].poll(now);
                let bytes = self.cross[i].packet_bytes();
                for _ in 0..packets {
                    self.cross_packets += 1;
                    let outcome = self.ports.bottleneck.transmit(
                        now,
                        bytes,
                        &mut self.rng,
                        0,
                        P_BOTTLENECK,
                        &self.port_scope,
                    );
                    if let PortOutcome::Forwarded { at, .. } = outcome {
                        let key = self.next_key(CLASS_EVENT);
                        self.queue
                            .schedule_keyed(at, key, CoreEvent::CrossAtOut { src });
                    }
                }
                let at = self.cross[i].next_event();
                let key = self.next_key(CLASS_EVENT);
                self.queue
                    .schedule_keyed(at, key, CoreEvent::CrossPoll { src });
            }
            CoreEvent::CrossAtOut { src } => {
                let bytes = self.cross[src as usize].packet_bytes();
                let outcome = self.ports.cross_sink.transmit(
                    now,
                    bytes,
                    &mut self.rng,
                    0,
                    P_CROSS_SINK,
                    &self.port_scope,
                );
                if let PortOutcome::Forwarded { at, .. } = outcome {
                    let key = self.next_key(CLASS_EVENT);
                    self.queue.schedule_keyed(at, key, CoreEvent::CrossAtSink);
                }
            }
            CoreEvent::CrossAtSink => {}
            CoreEvent::FaultPoll => self.poll_faults(now),
        }
    }

    /// Publish the core's port metrics under router 0.
    fn finalize(&mut self) {
        use emptcp_telemetry::router_port_metric;
        let ports = [
            (P_BOTTLENECK, &self.ports.bottleneck),
            (P_REVERSE, &self.ports.reverse),
            (P_CROSS_SINK, &self.ports.cross_sink),
        ];
        self.telemetry.with_metrics(|m| {
            for (pid, port) in ports {
                let link = port.link();
                m.counter_add(
                    &router_port_metric(0, pid, "delivered"),
                    link.delivered_packets(),
                );
                m.counter_add(
                    &router_port_metric(0, pid, "drops_queue"),
                    link.dropped_queue(),
                );
                m.counter_add(
                    &router_port_metric(0, pid, "drops_channel"),
                    link.dropped_channel(),
                );
                m.counter_add(&router_port_metric(0, pid, "ecn_marked"), port.ecn_marked());
                m.gauge_set(
                    &router_port_metric(0, pid, "peak_queue_bytes"),
                    port.peak_queue_bytes() as f64,
                );
            }
        });
    }

    fn for_each_port(&self, mut f: impl FnMut(&Port)) {
        f(&self.ports.bottleneck);
        f(&self.ports.reverse);
        f(&self.ports.cross_sink);
    }
}

// ---------------------------------------------------------------------
// The sharded fleet simulation
// ---------------------------------------------------------------------

/// What every thread of a run shares: each client shard and the core
/// behind its own lock. Inside a step every task locks only its own shard;
/// the barrier between steps runs on one thread and moves no hop.
struct Partition {
    shards: Vec<Mutex<ClientShard>>,
    core: Mutex<CoreShard>,
}

impl Partition {
    /// Tasks per step: every client shard, then the core.
    fn width(&self) -> usize {
        self.shards.len() + 1
    }

    /// Task `i` of `step`: client shard `i`, or the core at `i == shards`.
    fn task(&self, i: usize, step: Step) {
        match (self.shards.get(i), step) {
            (Some(shard), Step::Init) => shard.lock().expect("shard poisoned").init(),
            (Some(shard), Step::Until(bound)) => {
                shard.lock().expect("shard poisoned").run_until(bound)
            }
            (None, Step::Init) => self.core.lock().expect("core shard poisoned").init(),
            (None, Step::Until(bound)) => self
                .core
                .lock()
                .expect("core shard poisoned")
                .run_until(bound),
        }
    }

    /// Barrier exchange: each client shard's outbox becomes the core's
    /// inbox for that shard, and the core's outbox for the shard becomes
    /// the shard's inbox, in exchange for the drained buffers — a swap per
    /// buffer, whatever they hold. Each shard files its inbox under the
    /// keys the sender assigned when it next runs. Arrival times are at or
    /// beyond the epoch bound by the lookahead argument, so no hop ever
    /// lands in a queue's past.
    fn exchange(&self) {
        let mut core = self.core.lock().expect("core shard poisoned");
        let core = &mut *core;
        let boxes = core.inboxes.iter_mut().zip(&mut core.outboxes);
        for (shard, (inbox, outbox)) in self.shards.iter().zip(boxes) {
            let mut shard = shard.lock().expect("shard poisoned");
            debug_assert!(inbox.hops.is_empty() && shard.inbox.hops.is_empty());
            std::mem::swap(&mut shard.outbox, inbox);
            std::mem::swap(outbox, &mut shard.inbox);
        }
    }

    /// The earliest pending event across every shard, counting the hops
    /// still waiting in an inbox, or `None` when all have drained.
    fn min_peek(&self) -> Option<SimTime> {
        let mut core = self.core.lock().expect("core shard poisoned");
        self.shards
            .iter()
            .filter_map(|shard| shard.lock().expect("shard poisoned").next_time())
            .chain(core.next_time())
            .min()
    }

    /// What [`Partition::min_peek`] must find, read the long way: every
    /// queue and lane, and every hop in every buffer. Checks on the way
    /// that each buffer's tracked earliest hop is the one a scan finds.
    fn scan_min(&self) -> Option<SimTime> {
        let scan = |hops: &Hops| {
            let min = hops.hops.iter().map(|hop| hop.at).min();
            assert_eq!(hops.earliest, min, "a buffer's earliest hop is stale");
            min
        };
        let mut core = self.core.lock().expect("core shard poisoned");
        let hops = core.inboxes.iter().chain(&core.outboxes).map(scan);
        let mut min = hops.fold(None, SimTime::earliest);
        min = SimTime::earliest(min, core.queue.peek_time());
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            let lane = shard.lanes.peek_key().map(|(at, _)| at);
            let hops = SimTime::earliest(scan(&shard.inbox), scan(&shard.outbox));
            let queued = SimTime::earliest(shard.queue.peek_time(), lane);
            min = SimTime::earliest(min, SimTime::earliest(queued, hops));
        }
        min
    }

    /// The epoch loop every run shares. The barrier — the buffer swap,
    /// trace flush, the earliest pending event and the next bound — runs
    /// on the calling thread; `run` runs every task of a step and returns
    /// once all of them have finished, however it spreads them over
    /// threads. A debug build checks every bound against
    /// [`Partition::scan_min`].
    fn epochs(&self, merge: &mut TraceMerge, clock: EpochClock, run: &mut dyn FnMut(Step)) {
        run(Step::Init);
        loop {
            self.exchange();
            merge.flush();
            let next = self.min_peek();
            debug_assert_eq!(next, self.scan_min(), "the epoch bound missed an event");
            let Some(next) = next else { break };
            if next > clock.horizon() {
                break;
            }
            run(Step::Until(clock.bound_for(next)));
        }
    }
}

/// The outer pipeline and every shard's trace tap (core last; empty when
/// nothing is tapped), with a reused staging buffer for the flush.
struct TraceMerge {
    telemetry: Telemetry,
    taps: Vec<Tap>,
    buf: Vec<(SimTime, u64, TraceEvent)>,
}

impl TraceMerge {
    /// Barrier flush: merge what every shard's tap recorded since the last
    /// barrier into the outer pipeline in canonical `(time, key)` order
    /// (equal keys mean one driving event on one shard, so the stable sort
    /// keeps emission order). A violation a shard caught is re-reported on
    /// the outer handle — recorded, counted and emitted there exactly once.
    fn flush(&mut self) {
        for tap in &self.taps {
            self.buf
                .append(&mut tap.lock().expect("tap poisoned").records);
        }
        self.buf.sort_by_key(|&(t, key, _)| (t, key));
        for (t, _, event) in self.buf.drain(..) {
            match event {
                TraceEvent::InvariantViolated { name, detail } => self
                    .telemetry
                    .check_invariants(t, |obs| obs.report(t, name, detail)),
                event => self.telemetry.emit(t, event),
            }
        }
    }
}

/// A fleet simulation partitioned into conservative-lookahead shards.
///
/// Construction takes a [`FleetConfig`] plus a shard count.
/// [`ShardedFleetSim::run_on`] executes on a given number of threads,
/// spawned once for the whole run; [`ShardedFleetSim::run`] on as many as
/// there are shards, capped by the machine's available parallelism (a
/// one-shard fleet stays on the calling thread); and
/// [`ShardedFleetSim::run_with`] hands each epoch to a caller-supplied
/// [`ShardExecutor`]. The report, the trace stream and every metric are
/// byte-identical for every `(threads or executor, shards)` combination.
pub struct ShardedFleetSim {
    cfg: FleetConfig,
    delta: SimDuration,
    part: Partition,
    merge: TraceMerge,
    per_client_buf: Vec<f64>,
}

impl ShardedFleetSim {
    /// Build a sharded fleet. Panics on an invalid configuration; use
    /// [`ShardedFleetSim::try_new_with_telemetry`] for the typed error.
    pub fn new(cfg: FleetConfig, shards: usize) -> ShardedFleetSim {
        ShardedFleetSim::new_with_telemetry(cfg, shards, Telemetry::disabled())
    }

    /// Build with an attached telemetry pipeline; panics on an invalid
    /// configuration.
    pub fn new_with_telemetry(
        cfg: FleetConfig,
        shards: usize,
        telemetry: Telemetry,
    ) -> ShardedFleetSim {
        match ShardedFleetSim::try_new_with_telemetry(cfg, shards, telemetry) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid fleet config: {e}"),
        }
    }

    /// Fallible construction: an invalid [`FleetConfig`] comes back as a
    /// [`FleetConfigError`]. The shard count is clamped to
    /// `1..=cfg.clients`.
    pub fn try_new_with_telemetry(
        cfg: FleetConfig,
        shards: usize,
        telemetry: Telemetry,
    ) -> Result<ShardedFleetSim, FleetConfigError> {
        cfg.validate()?;
        let delta = lookahead(&cfg);
        let s = shards.clamp(1, cfg.clients);
        let root = SimRng::new(cfg.seed);
        let client_rng = root.fork_labeled("client_net");
        let starts: Vec<usize> = (0..s).map(|k| k * cfg.clients / s).collect();
        let shards: Vec<Mutex<ClientShard>> = (0..s)
            .map(|k| {
                let base = starts[k];
                let end = if k + 1 == s {
                    cfg.clients
                } else {
                    starts[k + 1]
                };
                Mutex::new(ClientShard::new(
                    &cfg,
                    base,
                    end - base,
                    &telemetry,
                    &client_rng,
                ))
            })
            .collect();
        let starts = starts.into_iter().map(|start| start as u32).collect();
        let core = Mutex::new(CoreShard::new(&cfg, starts, &telemetry, &root));
        let taps = shards
            .iter()
            .map(|shard| shard.lock().expect("shard poisoned").tap.clone())
            .chain([core.lock().expect("core shard poisoned").tap.clone()])
            .flatten()
            .collect();
        let per_client_buf = Vec::with_capacity(cfg.clients);
        Ok(ShardedFleetSim {
            cfg,
            delta,
            part: Partition { shards, core },
            merge: TraceMerge {
                telemetry,
                taps,
                buf: Vec::new(),
            },
            per_client_buf,
        })
    }

    /// Attach a fault plan; `FaultTarget::Core` hits the bottleneck port,
    /// and nothing else has a port here (`Scenario::validate` rejects a
    /// fleet plan that names an access path).
    pub fn attach_faults(&mut self, faults: &[FaultSpec]) {
        let mut core = self.part.core.lock().expect("core shard poisoned");
        let mut injector = FaultInjector::new(faults);
        injector.set_telemetry(core.telemetry.scope(u32::MAX));
        core.injector = Some(injector);
    }

    /// The number of client shards (after clamping).
    pub fn shards(&self) -> usize {
        self.part.shards.len()
    }

    /// Raw per-client delivered byte counts in ascending client order —
    /// the quantity the differential harness pins across shard counts.
    pub fn per_client_delivered(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.cfg.clients);
        for shard in &self.part.shards {
            let shard = shard.lock().expect("shard poisoned");
            for conn in &shard.rows.client {
                out.push(conn.bytes_delivered());
            }
        }
        out
    }

    /// Run on one thread per shard, at most as many as the machine's
    /// available parallelism; a one-shard fleet runs on the calling thread
    /// alone.
    pub fn run(&mut self) -> FleetReport {
        let threads = match self.shards() {
            1 => 1,
            shards => std::thread::available_parallelism().map_or(1, |n| shards.min(n.get())),
        };
        self.run_on(threads)
    }

    /// Run the fleet to its horizon on `threads` threads, and summarize:
    /// the calling thread and `threads − 1` workers spawned once for the
    /// whole run (at most one thread per task of an epoch; none for one
    /// thread). Each epoch the calling thread runs the barrier, publishes
    /// the bound, and every thread claims that epoch's tasks until none is
    /// left. A waiting thread spins, then yields, then sleeps, so more
    /// threads than CPUs costs little.
    pub fn run_on(&mut self, threads: usize) -> FleetReport {
        let threads = threads.clamp(1, self.part.width());
        if threads == 1 {
            return self.run_with(&SerialExecutor);
        }
        let clock = self.clock();
        let part = &self.part;
        let merge = &mut self.merge;
        let crew = Crew::new(part, threads);
        std::thread::scope(|scope| {
            let _stop = crew.stop_on_drop();
            for me in 1..threads {
                let crew = &crew;
                scope.spawn(move || crew.work(me));
            }
            part.epochs(merge, clock, &mut |step| crew.step(step));
        });
        self.finalize(clock.horizon())
    }

    /// Run the fleet to its horizon with `exec` driving the per-epoch
    /// shard closures, and summarize. The core's init runs on the calling
    /// thread; then one `exec` call inits the client shards, and one per
    /// epoch runs the client shards and the core.
    pub fn run_with(&mut self, exec: &dyn ShardExecutor) -> FleetReport {
        let clock = self.clock();
        let part = &self.part;
        let shards = part.shards.len();
        part.epochs(&mut self.merge, clock, &mut |step| {
            let n = match step {
                Step::Init => {
                    part.task(shards, step);
                    shards
                }
                Step::Until(_) => shards + 1,
            };
            exec.run_indexed(n, &|i| part.task(i, step));
        });
        self.finalize(clock.horizon())
    }

    fn clock(&self) -> EpochClock {
        EpochClock::new(self.delta, SimTime::ZERO + self.cfg.duration)
    }

    fn finalize(&mut self, horizon: SimTime) -> FleetReport {
        let part = &self.part;
        for (sid, shard) in part.shards.iter().enumerate() {
            shard.lock().expect("shard poisoned").finalize(sid, horizon);
        }
        part.core.lock().expect("core shard poisoned").finalize();
        self.merge.flush();

        // Merge metric registries in shard order, core last, minus each
        // shard's violation count: the barrier flush already counted those.
        let core = part.core.lock().expect("core shard poisoned");
        let shard_metrics = part
            .shards
            .iter()
            .map(|shard| shard.lock().expect("shard poisoned").telemetry.metrics());
        for mut m in shard_metrics.chain([core.telemetry.metrics()]).flatten() {
            m.remove_counter("invariants.violations");
            self.merge.telemetry.with_metrics(|outer| outer.merge(&m));
        }

        // Fixed-order report reductions (ascending client id).
        let secs = self.cfg.duration.as_secs_f64();
        self.per_client_buf.clear();
        let mut packets_forwarded = 0;
        let mut total_queue_drops = 0;
        for shard in &part.shards {
            let shard = shard.lock().expect("shard poisoned");
            for conn in &shard.rows.client {
                self.per_client_buf
                    .push(reduce::mbps(conn.bytes_delivered(), secs));
            }
            shard.for_each_port(|p| {
                packets_forwarded += p.link().delivered_packets();
                total_queue_drops += p.link().dropped_queue();
            });
        }
        core.for_each_port(|p| {
            packets_forwarded += p.link().delivered_packets();
            total_queue_drops += p.link().dropped_queue();
        });
        let mptcp_every = self.cfg.mptcp_every;
        let stats = reduce::fairness_stats(&self.per_client_buf, |i| {
            mptcp_every != 0 && i % mptcp_every == 0
        });
        let bp = &core.ports.bottleneck;
        FleetReport {
            clients: self.cfg.clients,
            duration_s: secs,
            aggregate_mbps: stats.aggregate_mbps,
            mptcp_mean_mbps: stats.mptcp_mean_mbps,
            tcp_mean_mbps: stats.tcp_mean_mbps,
            mptcp_tcp_ratio: stats.mptcp_tcp_ratio,
            jain_index: stats.jain_index,
            bottleneck_drops: bp.link().dropped_queue(),
            bottleneck_ecn_marks: bp.ecn_marked(),
            bottleneck_peak_queue_bytes: bp.peak_queue_bytes(),
            total_queue_drops,
            cross_packets: core.cross_packets,
            faults_injected: core.faults_applied,
            packets_forwarded,
            per_client_mbps: std::mem::take(&mut self.per_client_buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(clients: usize, seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::contended(clients, seed);
        cfg.duration = SimDuration::from_secs(2);
        cfg.bottleneck.rate_bps = 20_000_000;
        cfg.cross_sources = 1;
        cfg
    }

    fn report_json(r: &FleetReport) -> String {
        serde_json::to_string(r).expect("report serializes")
    }

    #[test]
    fn a_queued_event_carrying_its_segment_is_copied_inline() {
        // rustc copies a value of at most 128 bytes with inline moves.
        let client = std::mem::size_of::<ClientEvent>();
        let core = std::mem::size_of::<CoreEvent>();
        assert!(client <= 128 && core <= 128, "{client} {core}");
    }

    #[test]
    fn lookahead_is_the_minimum_boundary_latency() {
        let cfg = FleetConfig::contended(4, 1);
        // contended preset: backbone 1 ms, access_a 3 ms, access_b 15 ms,
        // bottleneck 10 ms → Δ = 1 ms.
        assert_eq!(lookahead(&cfg), SimDuration::from_millis(1));
        let mut tcp_only = cfg.clone();
        tcp_only.mptcp_every = 0;
        tcp_only.access_b.prop_delay = SimDuration::ZERO;
        // access_b is out of the boundary set when no client uses it.
        assert_eq!(lookahead(&tcp_only), SimDuration::from_millis(1));
    }

    #[test]
    fn degenerate_configs_fail_with_typed_errors() {
        let try_new = |edit: fn(&mut FleetConfig)| {
            let mut cfg = FleetConfig::contended(4, 1);
            edit(&mut cfg);
            ShardedFleetSim::try_new_with_telemetry(cfg, 2, Telemetry::disabled()).err()
        };
        assert_eq!(
            try_new(|c| c.clients = 0),
            Some(FleetConfigError::NoClients)
        );
        assert_eq!(
            try_new(|c| c.bottleneck.rate_bps = 0),
            Some(FleetConfigError::ZeroCapacityLink("bottleneck"))
        );
        assert_eq!(
            try_new(|c| c.duration = SimDuration::ZERO),
            Some(FleetConfigError::EmptyWorkload)
        );
        assert_eq!(
            try_new(|c| c.cross_rate_bps = 0),
            Some(FleetConfigError::SilentCrossTraffic)
        );
        assert_eq!(
            try_new(|c| c.access_a.prop_delay = SimDuration::ZERO),
            Some(FleetConfigError::NoLookahead)
        );
        assert_eq!(try_new(|_| ()), None);
    }

    #[test]
    fn every_client_makes_progress() {
        let mut sim = ShardedFleetSim::new(small(6, 9), 3);
        let report = sim.run();
        assert_eq!(report.per_client_mbps.len(), 6);
        for (i, &mbps) in report.per_client_mbps.iter().enumerate() {
            assert!(mbps > 0.05, "client {i} starved: {mbps} Mbps");
        }
        assert!(report.aggregate_mbps > 5.0, "{report:?}");
        assert!(report.jain_index > 0.5, "{report:?}");
        assert!(report.packets_forwarded > 0, "{report:?}");
    }

    #[test]
    fn bottleneck_is_actually_shared() {
        let mut sim = ShardedFleetSim::new(small(6, 10), 2);
        let report = sim.run();
        // Offered load (6 clients + cross traffic) far exceeds 20 Mbps, so
        // the core queue must overflow and the aggregate must saturate
        // near (but never beyond) the bottleneck rate.
        assert!(report.bottleneck_drops > 0, "{report:?}");
        assert!(report.aggregate_mbps <= 20.0, "{report:?}");
        assert!(report.aggregate_mbps > 12.0, "{report:?}");
        assert!(report.bottleneck_ecn_marks > 0, "{report:?}");
    }

    #[test]
    fn shard_count_is_invisible_in_the_report() {
        let reference = report_json(&ShardedFleetSim::new(small(7, 42), 1).run());
        for shards in [2, 3, 4, 7] {
            let got = report_json(&ShardedFleetSim::new(small(7, 42), shards).run());
            assert_eq!(got, reference, "shards={shards} diverged");
        }
    }

    #[test]
    fn shard_count_clamps_to_the_population() {
        let mut sim = ShardedFleetSim::new(small(3, 5), 64);
        assert_eq!(sim.shards(), 3);
        let report = sim.run();
        assert_eq!(report.clients, 3);
    }

    #[test]
    fn same_seed_same_report() {
        let a = ShardedFleetSim::new(small(5, 77), 2).run();
        let b = ShardedFleetSim::new(small(5, 77), 2).run();
        assert_eq!(report_json(&a), report_json(&b));
    }

    #[test]
    fn a_shard_violation_reaches_the_outer_handle_exactly_once() {
        use emptcp_telemetry::MemorySink;
        // Client 5 of 8 sits in shard 2 of 4 (and shard 0 of 1).
        const CLIENT: usize = 5;
        let run = |shards: usize| {
            let record = Arc::new(Mutex::new(MemorySink::new()));
            let outer = Telemetry::builder()
                .sink(Box::new(Arc::clone(&record)))
                .invariants(true)
                .build();
            let mut sim = ShardedFleetSim::new_with_telemetry(small(8, 3), shards, outer.clone());
            {
                let starts = &sim.part.core.lock().unwrap().starts;
                let sid = starts.partition_point(|&start| start <= CLIENT as u32) - 1;
                assert_eq!(sid, if shards == 4 { 2 } else { 0 });
                let shard = sim.part.shards[sid].lock().unwrap();
                shard.set_tag(pack(CLASS_INIT, CLIENT as u32 + 1, 0));
                shard.telemetry.check_invariants(SimTime::ZERO, |obs| {
                    obs.report(SimTime::ZERO, "dss_coverage", "injected".to_string())
                });
            }
            sim.run();
            let violations = outer.violations();
            let counted = outer.metrics().unwrap().counter("invariants.violations");
            let jsonl = record.lock().unwrap().to_jsonl();
            (violations, counted, jsonl)
        };
        let (violations, counted, jsonl) = run(4);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].name, "dss_coverage");
        assert_eq!(violations[0].detail, "injected");
        assert_eq!(counted, 1);
        assert_eq!(jsonl.matches("InvariantViolated").count(), 1);
        assert_eq!(run(1), (violations, counted, jsonl));
    }

    /// The epoch hand-off under stress: 2 000 epochs of a few events each
    /// (Δ = 1 ms over 2 s), on more threads than most machines have CPUs,
    /// run again and again. Every run must give the serial executor's
    /// report and delivered bytes.
    #[test]
    fn thousands_of_tiny_epochs_hand_off_alike() {
        let run = |threads: Option<usize>| {
            let mut sim = ShardedFleetSim::new(small(8, 21), 4);
            let report = match threads {
                None => sim.run_with(&SerialExecutor),
                Some(threads) => sim.run_on(threads),
            };
            (report_json(&report), sim.per_client_delivered())
        };
        let reference = run(None);
        for round in 0..96 {
            assert!(run(Some(4)) == reference, "round {round} diverged");
        }
    }

    /// A hop still waiting in an inbox bounds the next epoch: in a
    /// one-client fleet without cross traffic, the SYNs the first barrier
    /// hands to the core are the only events ahead of the client's RTO
    /// timer. A bound that read only queues and lanes would run the first
    /// epoch up to the timer, past the SYNs' arrival. Once the core has
    /// forwarded the first, the next barrier hands it to the client
    /// shard's inbox, which must bound the epoch after: it is due before
    /// the core's second SYN and the timer.
    #[test]
    fn a_hop_waiting_in_an_inbox_bounds_the_epoch() {
        let mut cfg = small(1, 4);
        cfg.cross_sources = 0;
        let sim = ShardedFleetSim::new(cfg, 1);
        let part = &sim.part;
        part.task(1, Step::Init);
        part.task(0, Step::Init);
        let timer = part.shards[0].lock().unwrap().next_time();
        part.exchange();
        let syn = part.core.lock().unwrap().inboxes[0].earliest;
        assert!(syn.is_some() && syn < timer, "SYN {syn:?}, timer {timer:?}");
        assert_eq!(part.shards[0].lock().unwrap().next_time(), timer);
        assert_eq!(part.min_peek(), syn);
        assert_eq!(part.scan_min(), syn);

        let bound = sim.clock().bound_for(syn.unwrap());
        part.task(1, Step::Until(bound));
        part.exchange();
        let back = part.shards[0].lock().unwrap().inbox.earliest;
        assert!(
            back.is_some() && back < timer,
            "hop {back:?}, timer {timer:?}"
        );
        let core = part.core.lock().unwrap().next_time();
        assert!(
            core.is_none_or(|at| Some(at) > back),
            "core {core:?}, hop {back:?}"
        );
        assert_eq!(part.min_peek(), back);
        assert_eq!(part.scan_min(), back);
    }

    /// Hops of capacity the inboxes and outboxes hold.
    fn hops_held(part: &Partition) -> usize {
        let core = part.core.lock().unwrap();
        let core_held: usize = core
            .inboxes
            .iter()
            .chain(&core.outboxes)
            .map(|b| b.hops.capacity())
            .sum();
        let shards_held: usize = part
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().unwrap();
                shard.inbox.hops.capacity() + shard.outbox.hops.capacity()
            })
            .sum();
        core_held + shards_held
    }

    /// The hand-off buffers give a start-up burst back: every client's
    /// handshake leaves at time zero, but once the bottleneck paces the
    /// traffic each of the two buffers of a direction shrinks to what it
    /// carries. The four buffers per client shard must hold at most
    /// `4 × HOPS_KEPT` hops each on average; they read 148 (one shard) and
    /// 157 (three), and 528 and 295 when a drained buffer never shrinks.
    #[test]
    fn the_hop_buffers_give_back_the_start_up_burst() {
        for shards in [1, 3] {
            let mut cfg = small(384, 8);
            cfg.duration = SimDuration::from_secs(1);
            let mut sim = ShardedFleetSim::new(cfg, shards);
            sim.run();
            let (held, max) = (hops_held(&sim.part), 4 * shards * 4 * HOPS_KEPT);
            assert!(
                held <= max,
                "{shards} shard(s) hold {held} hops of capacity, over {max}"
            );
        }
    }

    #[test]
    fn faults_cross_epoch_barriers() {
        let mut cfg = small(4, 5);
        cfg.duration = SimDuration::from_secs(6);
        let plan = [FaultSpec::BandwidthCollapse {
            target: FaultTarget::Core,
            from_ms: 1_000,
            hold_ms: 2_000,
            collapsed_bps: 0,
            ramp_bps: vec![5_000_000],
            step_ms: 1_000,
        }];
        let run = |shards: usize| {
            let mut sim = ShardedFleetSim::new(cfg.clone(), shards);
            sim.attach_faults(&plan);
            sim.run()
        };
        let reference = run(1);
        assert!(reference.faults_injected >= 2, "{reference:?}");
        for &mbps in &reference.per_client_mbps {
            assert!(mbps > 0.0, "{reference:?}");
        }
        assert_eq!(report_json(&run(4)), report_json(&reference));
    }
}
