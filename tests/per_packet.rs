//! What one segment costs the allocator and the copy path: a steady bulk
//! transfer through a `TcpEndpoint` pair and through a 2-subflow
//! `MpConnection` pair allocates almost never per delivered segment, and
//! a segment, alone or tagged with its subflow, stays small enough that
//! rustc copies it inline (at most 128 bytes) instead of calling `memcpy`.
//! The host simulation is held to the same ceiling per data segment
//! under MPTCP, TCP over WiFi and eMPTCP; the shard engine has a budget
//! of its own per forwarded packet.
//!
//! Peak heap bytes are held too: per client of the same fleet, and for the
//! host MPTCP run, so capacity that no client or connection fills fails
//! here as soon as it is grown.
//!
//! Allocations and live heap bytes are counted per thread by this
//! binary's global allocator, so tests running side by side do not see
//! each other's.

use emptcp_expr::scenario::Workload;
use emptcp_expr::{Scenario, Simulation, Strategy};
use emptcp_mptcp::{MpConnection, Role, SubflowId};
use emptcp_net::{FleetConfig, ShardedFleetSim};
use emptcp_phy::IfaceKind;
use emptcp_sim::{EventQueue, SimDuration, SimTime};
use emptcp_tcp::{Segment, TcpConfig, TcpEndpoint};
use emptcp_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread; negative when it
    /// frees more than it allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`heap_baseline`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation and
/// the live heap bytes on the calling thread.
struct Counting;

fn count(grown: i64) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    resize(grown);
}

fn resize(by: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method hands its caller's arguments unchanged to `System`
// and returns what it returns, so `System`'s guarantees are this
// allocator's. The counts are `const`-initialized thread-local `Cell`s,
// which neither allocate nor reenter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Start a peak-heap measurement on this thread: returns the live bytes
/// now, which [`heap_peak_since`] subtracts.
fn heap_baseline() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The most heap bytes this thread has held at once since `baseline`.
fn heap_peak_since(baseline: i64) -> u64 {
    (PEAK.with(Cell::get) - baseline) as u64
}

const MIB: u64 = 1 << 20;

/// The four driver calls, on `TcpEndpoint` and `MpConnection` alike.
trait Pumped {
    fn poll(&mut self, now: SimTime) -> Option<(u8, Segment)>;
    fn deliver(&mut self, now: SimTime, path: u8, seg: Segment);
    fn deadline(&self) -> Option<SimTime>;
    fn expire(&mut self, now: SimTime);
    fn delivered(&self) -> u64;
    fn offer(&mut self, bytes: u64);
}

impl Pumped for TcpEndpoint {
    fn poll(&mut self, now: SimTime) -> Option<(u8, Segment)> {
        self.poll_transmit(now).map(|seg| (0, seg))
    }
    fn deliver(&mut self, now: SimTime, _path: u8, seg: Segment) {
        self.on_segment(now, seg);
    }
    fn deadline(&self) -> Option<SimTime> {
        self.next_deadline()
    }
    fn expire(&mut self, now: SimTime) {
        self.on_deadline(now);
    }
    fn delivered(&self) -> u64 {
        self.bytes_delivered_total()
    }
    fn offer(&mut self, bytes: u64) {
        self.write(bytes);
    }
}

impl Pumped for MpConnection {
    fn poll(&mut self, now: SimTime) -> Option<(u8, Segment)> {
        self.poll_transmit(now).map(|(sf, seg)| (sf.0, seg))
    }
    fn deliver(&mut self, now: SimTime, path: u8, seg: Segment) {
        self.on_segment(now, SubflowId(path), seg);
    }
    fn deadline(&self) -> Option<SimTime> {
        self.next_deadline()
    }
    fn expire(&mut self, now: SimTime) {
        self.on_deadline(now);
    }
    fn delivered(&self) -> u64 {
        self.bytes_delivered()
    }
    fn offer(&mut self, bytes: u64) {
        self.write(bytes);
    }
}

/// A client and a server joined by a fixed one-way delay per path: the
/// simulator's loop with nothing else in it.
struct Pair<E> {
    client: E,
    server: E,
    delays: Vec<SimDuration>,
    /// `(to_client, path, segment)` keyed by arrival time.
    net: EventQueue<(bool, u8, Segment)>,
    now: SimTime,
}

impl<E: Pumped> Pair<E> {
    fn drain(
        end: &mut E,
        to_client: bool,
        now: SimTime,
        delays: &[SimDuration],
        net: &mut EventQueue<(bool, u8, Segment)>,
    ) {
        while let Some((path, seg)) = end.poll(now) {
            net.schedule(now + delays[path as usize], (to_client, path, seg));
        }
    }

    /// Have the server send `bytes` more and run until the client has
    /// them all; returns the segments delivered on the way.
    fn transfer(&mut self, bytes: u64) -> u64 {
        let target = self.client.delivered() + bytes;
        self.server.offer(bytes);
        let mut segments = 0;
        loop {
            Self::drain(
                &mut self.client,
                false,
                self.now,
                &self.delays,
                &mut self.net,
            );
            Self::drain(
                &mut self.server,
                true,
                self.now,
                &self.delays,
                &mut self.net,
            );
            if self.client.delivered() >= target {
                return segments;
            }
            let timer = self
                .client
                .deadline()
                .into_iter()
                .chain(self.server.deadline())
                .min();
            let packet = self.net.peek_time();
            self.now = packet
                .into_iter()
                .chain(timer)
                .min()
                .expect("the pair stalled");
            if Some(self.now) == packet {
                let (_, (to_client, path, seg)) = self.net.pop().expect("peeked");
                let end = if to_client {
                    &mut self.client
                } else {
                    &mut self.server
                };
                end.deliver(self.now, path, seg);
                segments += 1;
            }
            self.client.expire(self.now);
            self.server.expire(self.now);
        }
    }

    /// Allocations per delivered segment over `bytes`, after a 4 MiB
    /// transfer has grown every table and queue to its working size.
    fn allocations_per_segment(&mut self, bytes: u64) -> f64 {
        self.transfer(4 * MIB);
        let before = allocations();
        let segments = self.transfer(bytes);
        (allocations() - before) as f64 / segments as f64
    }
}

fn tcp_pair() -> Pair<TcpEndpoint> {
    let mut client = TcpEndpoint::client(TcpConfig::default());
    client.connect(SimTime::ZERO);
    Pair {
        client,
        server: TcpEndpoint::listener(TcpConfig::default()),
        delays: vec![SimDuration::from_millis(12)],
        net: EventQueue::new(),
        now: SimTime::ZERO,
    }
}

fn mptcp_pair() -> Pair<MpConnection> {
    let mut client = MpConnection::new(Role::Client, TcpConfig::default());
    let mut server = MpConnection::new(Role::Server, TcpConfig::default());
    for iface in [IfaceKind::Wifi, IfaceKind::CellularLte] {
        client.add_subflow(SimTime::ZERO, iface);
        server.add_subflow(SimTime::ZERO, iface);
    }
    Pair {
        client,
        server,
        delays: vec![SimDuration::from_millis(12), SimDuration::from_millis(35)],
        net: EventQueue::new(),
        now: SimTime::ZERO,
    }
}

/// The most a steady transfer may allocate per delivered segment. The
/// receive path used to build a `Vec` of delivered ranges per data
/// segment, and MPTCP a second to translate them: 0.68 and 1.35.
const CEILING: f64 = 0.02;

#[test]
fn a_steady_tcp_transfer_almost_never_allocates() {
    let per_segment = tcp_pair().allocations_per_segment(64 * MIB);
    assert!(
        per_segment <= CEILING,
        "{per_segment:.3} allocations per segment"
    );
}

#[test]
fn a_steady_two_path_mptcp_transfer_almost_never_allocates() {
    let per_segment = mptcp_pair().allocations_per_segment(64 * MIB);
    assert!(
        per_segment <= CEILING,
        "{per_segment:.3} allocations per segment"
    );
}

/// Allocations per forwarded packet of a 64-client contended fleet over
/// 2 simulated seconds on one shard, counted from `run` on (construction
/// excluded): 0.02161 (0.02292 when the barrier staged the core's outbox
/// per shard), pinned just above the older reading.
const FLEET_PER_PACKET: f64 = 0.0230;

/// The fleet every shard-engine budget is measured on.
fn budget_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::contended(64, 1);
    cfg.duration = SimDuration::from_secs(2);
    cfg
}

#[test]
fn the_shard_engine_allocates_at_most_its_budget_per_forwarded_packet() {
    let mut sim = ShardedFleetSim::new(budget_fleet(), 1);
    let before = allocations();
    let report = sim.run();
    let per_packet = (allocations() - before) as f64 / report.packets_forwarded as f64;
    println!("fleet: {per_packet:.6} allocations per forwarded packet");
    assert!(
        per_packet <= FLEET_PER_PACKET,
        "{per_packet:.4} allocations per forwarded packet"
    );
}

/// Peak heap bytes per client of the same fleet, from construction to
/// the report: 14 163, pinned just above. Growing every subflow list to
/// four entries and every emission queue to four segments read 19 139.
const FLEET_HEAP_PER_CLIENT: u64 = 14_200;

#[test]
fn a_fleet_client_holds_at_most_its_budget_of_heap() {
    let cfg = budget_fleet();
    let clients = cfg.clients as u64;
    let baseline = heap_baseline();
    ShardedFleetSim::new(cfg, 1).run();
    let per_client = heap_peak_since(baseline) / clients;
    println!("fleet: {per_client} peak heap bytes per client");
    assert!(
        per_client <= FLEET_HEAP_PER_CLIENT,
        "{per_client} peak heap bytes per client"
    );
}

/// Allocations per data segment of one host 16 MB download on static good
/// WiFi under `strategy`, counted from `run` on, held to the [`CEILING`]
/// of the bare pairs. The data segment count comes from a same-seed twin
/// run with metrics on; this run has telemetry off. Returns the run's peak
/// heap bytes, from construction to the result.
fn assert_host_run_within_ceiling(strategy: Strategy) -> u64 {
    let scenario = || Scenario::static_good_wifi().with(Workload::Download { size: 16 << 20 });
    let metrics = Telemetry::builder().build();
    Simulation::new_with_telemetry(scenario(), strategy, 1, metrics.clone()).run();
    let segments = metrics
        .metrics()
        .expect("metrics on")
        .counter("tcp.data_segments");
    let baseline = heap_baseline();
    let sim = Simulation::new_with_telemetry(scenario(), strategy, 1, Telemetry::disabled());
    let before = allocations();
    let result = sim.run();
    let per_segment = (allocations() - before) as f64 / segments as f64;
    let peak = heap_peak_since(baseline);
    assert!(result.completed, "{result:?}");
    let name = strategy.label();
    println!("host {name}: {per_segment:.6} allocations per data segment of {segments}, {peak} peak heap bytes");
    assert!(
        per_segment <= CEILING,
        "{name}: {per_segment:.4} allocations per data segment"
    );
    peak
}

/// Peak heap bytes of the host MPTCP run, from construction to the
/// result: 151 974, pinned just above (156 070 with four-entry subflow
/// lists and emission queues).
const HOST_MPTCP_HEAP: u64 = 152_000;

#[test]
fn a_host_mptcp_run_allocates_at_most_its_budget_per_data_segment() {
    let peak = assert_host_run_within_ceiling(Strategy::Mptcp);
    assert!(peak <= HOST_MPTCP_HEAP, "{peak} peak heap bytes");
}

#[test]
fn a_host_tcp_over_wifi_run_allocates_at_most_its_budget_per_data_segment() {
    assert_host_run_within_ceiling(Strategy::TcpWifi);
}

#[test]
fn a_host_emptcp_run_allocates_at_most_its_budget_per_data_segment() {
    assert_host_run_within_ceiling(Strategy::emptcp_default());
}

#[test]
fn a_segment_is_copied_inline_alone_and_tagged_with_its_subflow() {
    // rustc copies a value of at most 128 bytes with inline moves; past
    // that, every copy is a call to `memcpy`.
    assert!(
        std::mem::size_of::<Segment>() <= 120,
        "{}",
        std::mem::size_of::<Segment>()
    );
    let tagged = std::mem::size_of::<Option<(SubflowId, Segment)>>();
    assert!(tagged <= 128, "{tagged}");
}
