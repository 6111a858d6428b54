//! The device ↔ server simulation host.
//!
//! One [`Simulation`] runs one strategy through one scenario: it owns the
//! radios (WiFi channel, cellular RRC machine), the two network paths, one
//! or more MPTCP connection pairs, the optional eMPTCP engine per
//! connection, and the energy meter. Everything advances through a single
//! deterministic event queue; a 100 ms control tick drives the environment
//! processes, the eMPTCP control loop and energy integration, while packet
//! deliveries, TCP timers and scripted faults are exact events.
//!
//! The queue is a [`LaneQueue`] with one lane per link direction for the
//! segments in flight, one lane for each of the three timers (tick,
//! TimerCheck, CellReady), each of which has at most one event pending,
//! one lane holding the instants of an attached fault plan and one the
//! two edges of a scenario's WiFi outage. A link delivers nearly in order,
//! so a delivery almost always joins the back of its lane;
//! `host.link.reordered` in the run's metrics counts the ones that did not.
//!
//! Modelling notes (deviations documented in DESIGN.md):
//!
//! * the RRC machine models the *device* radio; downlink packets arriving
//!   while the radio is idle trigger a promotion (standing in for paging)
//!   and are buffered until the radio is connected;
//! * the §3.6 resume tweaks are applied to both ends of a resumed subflow —
//!   the paper patches the phone's kernel, and the server-side minRTT
//!   probing effect it describes is reproduced this way;
//! * "MPTCP with WiFi-First" pins the cellular subflow to backup on both
//!   ends at creation (the host is omniscient, no MP_PRIO race).

use crate::scenario::{Scenario, WifiEnvironment, Workload};
use crate::strategy::Strategy;
use emptcp::{Action, EmptcpClient, IfaceTotals};
use emptcp_energy::{Eib, EnergyMeter, EnergyModel, RadioSnapshot};
use emptcp_faults::{
    plan, FaultAction, FaultInjector, FaultPart, FaultSpec, FaultSurface, FaultTarget,
};
use emptcp_mptcp::{rearm, MpConnection, RecoveryStats, Role, Subflow, SubflowId};
use emptcp_phy::link::EnqueueOutcome;
use emptcp_phy::mobility::MobilityModel;
use emptcp_phy::path::{Path, PathConfig};
use emptcp_phy::rrc::RrcState;
use emptcp_phy::{IfaceKind, RrcMachine, WifiChannel};
use emptcp_sim::trace::TimeSeries;
use emptcp_sim::{LaneQueue, SimDuration, SimRng, SimTime};
use emptcp_tcp::{Segment, TcpConfig};
use emptcp_telemetry::Telemetry;
use emptcp_workload::download::{BULK_REQUEST_BYTES, UNBOUNDED_BYTES};
use emptcp_workload::web::{FetchQueue, WebPage, BROWSER_CONNECTIONS, REQUEST_BYTES};
use emptcp_workload::{BandwidthModulator, InterfererSet};
use serde::Serialize;

const TICK: SimDuration = SimDuration::from_millis(100);
/// How long after workload completion the simulation keeps integrating
/// energy, waiting for the cellular tail to drain.
const DRAIN_CAP: SimDuration = SimDuration::from_secs(16);

/// The queue's lanes: [`deliver_lane`] numbers the four link directions,
/// then one lane per timer, then the fault instants, then the outage's
/// edges (a lane of their own, so that each lane is filled in order).
const TICK_LANE: usize = 4;
const TIMER_LANE: usize = 5;
const CELL_READY_LANE: usize = 6;
const FAULT_LANE: usize = 7;
const OUTAGE_LANE: usize = 8;
const LANES: usize = 9;

/// The index of `iface`'s path: WiFi first, as [`FaultTarget::path_index`]
/// numbers the targets.
fn path_index(iface: IfaceKind) -> usize {
    usize::from(iface.is_cellular())
}

/// The lane of the segments in flight on `iface`'s path toward the client
/// (`to_client`) or the server.
fn deliver_lane(iface: IfaceKind, to_client: bool) -> usize {
    2 * path_index(iface) + usize::from(to_client)
}

#[derive(Clone, Debug)]
enum Event {
    /// A segment arriving at one end of a connection; the event owns it
    /// until it fires. `conn` is a `u32` so the event fits in 128 bytes.
    Deliver {
        conn: u32,
        sf: SubflowId,
        to_client: bool,
        seg: Segment,
    },
    Tick,
    TimerCheck,
    CellReady,
    /// One or more scripted faults are due.
    Faults,
    /// An edge of the scenario's WiFi outage: `IfaceDown` or `IfaceUp`.
    Outage(FaultAction),
}

/// Everything measured from one run.
#[derive(Clone, Debug, Serialize)]
pub struct RunResult {
    /// Strategy label.
    pub strategy: String,
    /// Scenario name.
    pub scenario: String,
    /// The workload finished before the horizon.
    pub completed: bool,
    /// Time from start to the last workload byte (or the timed duration).
    pub download_time_s: f64,
    /// Total energy including the post-completion radio drain (J).
    pub energy_j: f64,
    /// Energy at the moment the last byte arrived (J).
    pub energy_at_completion_j: f64,
    /// Workload payload bytes delivered to the client.
    pub bytes_delivered: u64,
    /// Payload bytes that rode WiFi.
    pub wifi_bytes: u64,
    /// Payload bytes that rode cellular.
    pub cell_bytes: u64,
    /// Energy per delivered byte (J/B), drain included.
    pub joules_per_byte: f64,
    /// Cellular promotions performed (each costs fixed energy).
    pub promotions: u64,
    /// eMPTCP controller state switches (0 for other strategies).
    pub usage_switches: u64,
    /// TCP-level retransmissions across all subflows.
    pub retransmissions: u64,
    /// Streaming workloads: chunks that missed their playback deadline.
    pub rebuffer_events: u64,
    /// Cellular energy spent in the promotion state (J).
    pub promo_energy_j: f64,
    /// Cellular energy spent in the tail state (J) — stranded fixed cost.
    pub tail_energy_j: f64,
    /// Average WiFi throughput over the download (Mbps).
    pub avg_wifi_mbps: f64,
    /// Average cellular throughput over the download (Mbps).
    pub avg_cell_mbps: f64,
    /// Accumulated energy over time (downsampled).
    pub energy_trace: TimeSeries,
    /// WiFi goodput over time, Mbps (downsampled).
    pub wifi_thpt_trace: TimeSeries,
    /// Cellular goodput over time, Mbps (downsampled).
    pub cell_thpt_trace: TimeSeries,
    /// Effective WiFi capacity over time, Mbps (downsampled).
    pub wifi_capacity_trace: TimeSeries,
    /// Fault events the injector applied (0 when no plan was attached).
    pub faults_injected: u64,
    /// Subflows declared dead by the consecutive-RTO detector (both ends).
    pub subflow_failures: u64,
    /// Link-down notifications propagated to the stack (both ends).
    pub link_down_events: u64,
    /// Data-level bytes queued for reinjection on surviving subflows.
    pub bytes_reinjected: u64,
    /// Backup subflows promoted because no regular path survived.
    pub backup_promotions: u64,
    /// Dead subflows that came back into service.
    pub subflow_revivals: u64,
    /// Worst failure-to-progress latency in seconds (0 when no failure).
    pub worst_recovery_latency_s: f64,
    /// Subflows (both ends) still flagged link-down when the run ended.
    /// Non-zero after a fault plan that restores every interface means a
    /// link-up notification was lost — the no-stuck-subflows oracle.
    pub stuck_subflows: u64,
}

struct ConnState {
    client: MpConnection,
    server: MpConnection,
    engine: Option<EmptcpClient>,
    wifi_sf: Option<SubflowId>,
    cell_sf: Option<SubflowId>,
    /// Response bytes the server still owes once requests arrive.
    request_cursor: u64,
    /// Total payload the client expects (grows per web object).
    expected_bytes: u64,
    /// Bytes of the current in-flight web object (None = idle).
    web_current: Option<u64>,
    wifi_established_seen: bool,
}

impl ConnState {
    /// Every subflow of the connection, the client's then the server's.
    fn subflows(&self) -> impl Iterator<Item = &Subflow> {
        self.client.subflows().iter().chain(self.server.subflows())
    }

    fn total_retransmissions(&self) -> u64 {
        self.subflows().map(|sf| sf.tcp.retransmissions()).sum()
    }
}

/// The earliest deadline of any endpoint of `conns`.
fn earliest_deadline(conns: &[ConnState]) -> Option<SimTime> {
    conns.iter().fold(None, |next, c| {
        let next = SimTime::earliest(next, c.client.next_deadline());
        SimTime::earliest(next, c.server.next_deadline())
    })
}

/// One strategy through one scenario.
pub struct Simulation {
    scenario: Scenario,
    strategy: Strategy,
    rng: SimRng,
    queue: LaneQueue<Event, LANES>,

    wifi_channel: WifiChannel,
    rrc: RrcMachine,
    /// The WiFi path, then the cellular one ([`path_index`]).
    paths: [Path; 2],
    cell_pending: Vec<(usize, SubflowId, bool, Segment)>,

    modulator: Option<BandwidthModulator>,
    interferers: Option<InterfererSet>,
    mobility: Option<MobilityModel>,

    conns: Vec<ConnState>,
    web_queue: Option<FetchQueue>,

    meter: EnergyMeter,
    /// Wire bytes seen at the device per interface since the last tick:
    /// `[wifi, cellular]`.
    window_bytes: [u64; 2],

    energy_trace: TimeSeries,
    wifi_thpt_trace: TimeSeries,
    cell_thpt_trace: TimeSeries,
    wifi_capacity_trace: TimeSeries,

    completed_at: Option<SimTime>,
    energy_at_completion: f64,
    /// Streaming: when the next chunk is due, how many were pushed, and
    /// how many missed their deadline.
    stream_next_at: SimTime,
    stream_chunks: u64,
    stream_misses: u64,
    mdp_policy: Option<crate::mdp::MdpPolicy>,
    mdp_epoch_bytes: [u64; 2],
    done: bool,

    telemetry: Telemetry,
    /// Energy at the previous tick, for the monotonicity invariant.
    last_energy_j: f64,

    /// Scripted fault injection (None = fault-free run), polled by an
    /// [`Event::Faults`] at each instant the plan names.
    injector: Option<FaultInjector>,
    /// Fault events applied so far.
    faults_applied: u64,
}

impl Simulation {
    /// Build a simulation; `seed` controls every random process. Telemetry
    /// comes from [`emptcp_telemetry::current`]: the calling thread's
    /// override if one is installed (the parallel experiment runner sets
    /// one per exhibit), otherwise disabled.
    pub fn new(scenario: Scenario, strategy: Strategy, seed: u64) -> Simulation {
        Simulation::new_with_telemetry(scenario, strategy, seed, emptcp_telemetry::current())
    }

    /// Build a simulation reporting through an explicit telemetry pipeline.
    pub fn new_with_telemetry(
        scenario: Scenario,
        strategy: Strategy,
        seed: u64,
        telemetry: Telemetry,
    ) -> Simulation {
        let mut rng = SimRng::new(seed);
        let model = EnergyModel::new(scenario.device.profile(), scenario.cell_kind);
        let mut meter = EnergyMeter::new(model.clone(), SimTime::ZERO, scenario.baseline_w);

        // The one process that drives the WiFi capacity, and where it starts.
        let (mut modulator, mut interferers, mut mobility) = (None, None, None);
        let mut queue = LaneQueue::new();
        let initial_wifi_bps = match &scenario.wifi {
            WifiEnvironment::Static { bps } => *bps,
            WifiEnvironment::StaticWithOutage {
                bps,
                outage_start,
                outage_end,
            } => {
                // The WiFi interface goes down and comes back, queued
                // first so that at a shared instant it lands first.
                if outage_start < outage_end {
                    let (down, up) = (FaultAction::IfaceDown, FaultAction::IfaceUp);
                    queue.schedule(OUTAGE_LANE, *outage_start, Event::Outage(down));
                    queue.schedule(OUTAGE_LANE, *outage_end, Event::Outage(up));
                }
                *bps
            }
            WifiEnvironment::Modulated {
                mean_hold_s,
                start_high,
            } => {
                use emptcp_workload::bwplan::Band;
                let high = Band {
                    lo_bps: 10_000_000,
                    hi_bps: 12_000_000,
                };
                let low = Band {
                    lo_bps: 300_000,
                    hi_bps: 1_000_000,
                };
                let rate = 1.0 / mean_hold_s;
                let m =
                    BandwidthModulator::new(SimTime::ZERO, *start_high, rate, high, low, &mut rng);
                modulator.insert(m).current_bps()
            }
            WifiEnvironment::Contended { bps, n, lambda_off } => {
                use emptcp_workload::interference::LAMBDA_ON;
                interferers = Some(InterfererSet::new(
                    SimTime::ZERO,
                    *n,
                    LAMBDA_ON,
                    *lambda_off,
                    &mut rng,
                ));
                *bps
            }
            WifiEnvironment::Mobile { model } => {
                mobility = Some(model.clone());
                model.wifi_goodput_bps(SimTime::ZERO)
            }
        };
        let wifi_channel = WifiChannel::new(initial_wifi_bps);
        let rrc_cfg = model.cellular().rrc;
        let paths = [
            PathConfig::wifi(initial_wifi_bps, scenario.wifi_rtt),
            PathConfig::cellular(scenario.cell_kind, scenario.cell_bps, scenario.cell_rtt),
        ]
        .map(Path::new);

        let mdp_policy = if matches!(strategy, Strategy::MdpScheduler) {
            Some(crate::mdp::MdpPolicy::pluntke(&model))
        } else {
            None
        };

        let mut rrc = RrcMachine::new(rrc_cfg);
        rrc.set_telemetry(telemetry.scope(0));
        meter.set_telemetry(telemetry.scope(0));
        let mut sim = Simulation {
            scenario,
            strategy,
            rng,
            queue,
            wifi_channel,
            rrc,
            paths,
            cell_pending: Vec::new(),
            modulator,
            interferers,
            mobility,
            conns: Vec::new(),
            web_queue: None,
            meter,
            window_bytes: [0, 0],
            energy_trace: TimeSeries::new("energy_j"),
            wifi_thpt_trace: TimeSeries::new("wifi_mbps"),
            cell_thpt_trace: TimeSeries::new("cell_mbps"),
            wifi_capacity_trace: TimeSeries::new("wifi_capacity_mbps"),
            completed_at: None,
            energy_at_completion: 0.0,
            stream_next_at: SimTime::ZERO,
            stream_chunks: 0,
            stream_misses: 0,
            mdp_policy,
            mdp_epoch_bytes: [0, 0],
            done: false,
            telemetry,
            last_energy_j: 0.0,
            injector: None,
            faults_applied: 0,
        };
        sim.setup_connections();
        sim
    }

    /// Arm a scripted fault plan, once, before [`Simulation::run`]. Each
    /// fault fires at its own instant: every instant the plan names is
    /// queued here, ahead of anything the run will queue, so at a shared
    /// instant the faults land before the tick and every other event, and
    /// after the scenario outage's edge queued at construction. Two runs
    /// with the same seed and plan stay byte-identical.
    pub fn attach_faults(&mut self, faults: &[FaultSpec]) {
        let mut instants: Vec<SimTime> = plan::expand(faults).iter().map(|e| e.at).collect();
        instants.dedup();
        for at in instants {
            self.queue.schedule(FAULT_LANE, at, Event::Faults);
        }
        let mut injector = FaultInjector::new(faults);
        injector.set_telemetry(self.telemetry.scope(0));
        self.injector = Some(injector);
    }

    /// The network path `iface`'s traffic rides: WiFi, or the cellular
    /// path for any cellular kind.
    pub fn path(&self, iface: IfaceKind) -> &Path {
        &self.paths[path_index(iface)]
    }

    fn setup_connections(&mut self) {
        let now = SimTime::ZERO;
        let n_conns = match self.scenario.workload {
            Workload::WebPage => BROWSER_CONNECTIONS,
            _ => 1,
        };
        if matches!(self.scenario.workload, Workload::WebPage) {
            let page = WebPage::cnn_like(&mut self.rng.fork(0xCAFE));
            self.web_queue = Some(FetchQueue::new(&page));
        }
        for conn_idx in 0..n_conns {
            let mut client = MpConnection::new(Role::Client, TcpConfig::default());
            let mut server = MpConnection::new(Role::Server, TcpConfig::default());
            // Both ends report under the same connection id; the client is
            // the device whose behaviour the traces describe.
            client.set_telemetry(self.telemetry.scope(conn_idx as u32));
            server.set_telemetry(self.telemetry.scope(conn_idx as u32));
            let mut wifi_sf = None;
            let mut cell_sf = None;
            if self.strategy.uses_wifi() {
                let id = client.add_subflow(now, IfaceKind::Wifi);
                server.add_subflow(now, IfaceKind::Wifi);
                wifi_sf = Some(id);
            }
            if self.strategy.opens_cellular_immediately() {
                let id = client.add_subflow(now, self.scenario.cell_kind);
                server.add_subflow(now, self.scenario.cell_kind);
                cell_sf = Some(id);
                if matches!(self.strategy, Strategy::WifiFirst) {
                    client.subflow_mut(id).backup = true;
                    server.subflow_mut(id).backup = true;
                }
            }
            let engine = match &self.strategy {
                Strategy::Emptcp(cfg) => {
                    let model =
                        EnergyModel::new(self.scenario.device.profile(), self.scenario.cell_kind);
                    let eib = Eib::generate_default(&model);
                    let mut engine = EmptcpClient::new(*cfg, eib, self.scenario.cell_kind);
                    engine.set_telemetry(self.telemetry.scope(conn_idx as u32));
                    Some(engine)
                }
                _ => None,
            };
            // The client uploads its request immediately; it flows once the
            // handshake completes. Upload workloads have no request — the
            // client writes the payload itself.
            match self.scenario.workload {
                Workload::WebPage => {}
                Workload::Upload { size } => client.write(size),
                _ => client.write(BULK_REQUEST_BYTES),
            }
            self.conns.push(ConnState {
                client,
                server,
                engine,
                wifi_sf,
                cell_sf,
                request_cursor: 0,
                expected_bytes: 0,
                web_current: None,
                wifi_established_seen: false,
            });
        }
    }

    // ------------------------------------------------------------------
    // wire plumbing
    // ------------------------------------------------------------------

    /// Offer `seg` to one path. A segment the link accepts rides its
    /// [`Event::Deliver`] in the link direction's lane; a dropped one is
    /// gone.
    fn transmit(
        &mut self,
        now: SimTime,
        iface: IfaceKind,
        conn: usize,
        sf: SubflowId,
        to_client: bool,
        seg: Segment,
    ) {
        let path = &mut self.paths[path_index(iface)];
        if let EnqueueOutcome::Delivered(at) =
            path.enqueue(to_client, now, seg.wire_bytes(), &mut self.rng)
        {
            let deliver = Event::Deliver {
                conn: conn as u32,
                sf,
                to_client,
                seg,
            };
            self.queue
                .schedule(deliver_lane(iface, to_client), at, deliver);
        }
    }

    fn send(&mut self, now: SimTime, conn: usize, sf: SubflowId, seg: Segment, from_client: bool) {
        let iface = self.conns[conn].client.subflow(sf).iface;
        if iface.is_cellular() {
            // Cellular: the device radio must be connected.
            let (_transitions, ready) = self.rrc.on_activity(now);
            if !self.rrc.state().can_transfer() {
                self.cell_pending.push((conn, sf, !from_client, seg));
                if self.queue.head(CELL_READY_LANE).is_none() {
                    self.queue
                        .schedule(CELL_READY_LANE, ready, Event::CellReady);
                }
                return;
            }
        }
        if from_client {
            self.window_bytes[path_index(iface)] += seg.wire_bytes();
        }
        self.transmit(now, iface, conn, sf, !from_client, seg);
    }

    /// Put everything one endpoint of connection `i` has to say on the wire.
    fn drain_side(&mut self, now: SimTime, i: usize, from_client: bool) {
        loop {
            let c = &mut self.conns[i];
            let side = if from_client {
                &mut c.client
            } else {
                &mut c.server
            };
            let Some((sf, seg)) = side.poll_transmit(now) else {
                break;
            };
            self.send(now, i, sf, seg, from_client);
        }
    }

    fn drain_conn(&mut self, now: SimTime, i: usize) {
        self.drain_side(now, i, true);
        self.drain_side(now, i, false);
    }

    /// Drain every endpoint, then re-arm the timer from every deadline.
    fn drain_all(&mut self, now: SimTime) {
        for i in 0..self.conns.len() {
            self.drain_conn(now, i);
        }
        self.arm_timer(now, earliest_deadline(&self.conns));
    }

    /// Move the single TimerCheck, the head of its lane, earlier if
    /// `touched` is due before it ([`rearm`]).
    fn arm_timer(&mut self, now: SimTime, touched: Option<SimTime>) {
        let all = || earliest_deadline(&self.conns);
        if let Some(d) = rearm(now, self.queue.head(TIMER_LANE), touched, all) {
            self.queue.replace(TIMER_LANE, d, Event::TimerCheck);
        }
    }

    // ------------------------------------------------------------------
    // event handlers
    // ------------------------------------------------------------------

    fn on_deliver(
        &mut self,
        now: SimTime,
        conn: usize,
        sf: SubflowId,
        to_client: bool,
        seg: Segment,
    ) {
        let iface = self.conns[conn].client.subflow(sf).iface;
        if iface.is_cellular() {
            // Keep the device radio's activity clock fresh; deliveries only
            // happen while connected, so this never queues.
            let _ = self.rrc.on_activity(now);
        }
        if to_client {
            self.window_bytes[path_index(iface)] += seg.wire_bytes();
        }

        let outcome = if to_client {
            self.conns[conn].client.on_segment(now, sf, seg)
        } else {
            self.conns[conn].server.on_segment(now, sf, seg)
        };

        if to_client && outcome.established_now {
            self.on_subflow_established(now, conn, sf);
        }
        if !to_client {
            self.feed_server(conn);
        }
        // Only the endpoint the segment reached can have news: an empty
        // poll of the other side would change nothing.
        self.drain_side(now, conn, to_client);
        // Nor can any other endpoint's deadline have moved: the touched
        // endpoint's deadline alone decides the re-arm.
        let c = &self.conns[conn];
        let touched = if to_client { &c.client } else { &c.server }.next_deadline();
        self.arm_timer(now, touched);
        self.check_completion(now);
    }

    fn on_subflow_established(&mut self, now: SimTime, conn: usize, sf: SubflowId) {
        let c = &mut self.conns[conn];
        if Some(sf) == c.wifi_sf && !c.wifi_established_seen {
            c.wifi_established_seen = true;
            if let Some(engine) = c.engine.as_mut() {
                engine.on_wifi_established(now, sf, &c.client);
            }
            if matches!(self.scenario.workload, Workload::WebPage) {
                self.start_next_web_object(conn);
            }
        } else if Some(sf) == c.cell_sf {
            if let Some(engine) = c.engine.as_mut() {
                engine.on_cellular_established(now, sf, &c.client);
            }
        }
    }

    /// Server-side workload logic: answer requests.
    fn feed_server(&mut self, conn: usize) {
        let c = &mut self.conns[conn];
        let got = c.server.bytes_delivered();
        match self.scenario.workload {
            Workload::Download { size } => {
                if got >= BULK_REQUEST_BYTES && c.request_cursor == 0 {
                    c.request_cursor = BULK_REQUEST_BYTES;
                    c.server.write(size);
                    c.expected_bytes = size;
                }
            }
            Workload::TimedBulk { .. } => {
                if got >= BULK_REQUEST_BYTES && c.request_cursor == 0 {
                    c.request_cursor = BULK_REQUEST_BYTES;
                    c.server.write(UNBOUNDED_BYTES);
                    c.expected_bytes = u64::MAX;
                }
            }
            Workload::WebPage => {
                // Each request unlocks one object response.
                if let Some(obj) = c.web_current {
                    let needed = c.request_cursor + REQUEST_BYTES;
                    if got >= needed {
                        c.request_cursor = needed;
                        c.server.write(obj);
                        c.expected_bytes += obj;
                    }
                }
            }
            Workload::Upload { .. } => {}
            Workload::Streaming { .. } => {} // chunks pushed from on_tick
        }
    }

    /// Client-side web driving: fetch the next object when idle.
    fn start_next_web_object(&mut self, conn: usize) {
        let Some(queue) = self.web_queue.as_mut() else {
            return;
        };
        let c = &mut self.conns[conn];
        if c.web_current.is_some() {
            return;
        }
        if let Some(size) = queue.pop() {
            c.web_current = Some(size);
            c.client.write(REQUEST_BYTES);
        }
    }

    fn on_cell_ready(&mut self, now: SimTime) {
        self.rrc.poll(now);
        if !self.rrc.state().can_transfer() {
            // Still promoting (e.g. spurious event); re-arm.
            if let Some(d) = self.rrc.next_deadline() {
                self.queue.schedule(CELL_READY_LANE, d, Event::CellReady);
            }
            return;
        }
        let pending = std::mem::take(&mut self.cell_pending);
        let kind = self.scenario.cell_kind;
        for (conn, sf, to_client, seg) in pending {
            if !to_client {
                self.window_bytes[1] += seg.wire_bytes();
            }
            self.transmit(now, kind, conn, sf, to_client, seg);
        }
    }

    /// Open connection `i`'s cellular subflow on both ends and remember it.
    fn open_cellular(&mut self, now: SimTime, i: usize) {
        let kind = self.scenario.cell_kind;
        let c = &mut self.conns[i];
        let id = c.client.add_subflow(now, kind);
        c.server.add_subflow(now, kind);
        c.cell_sf = Some(id);
    }

    /// Payload bytes the device has moved over `iface`, all connections:
    /// what the client saw acked for an upload, what reached it otherwise
    /// (§3.2 samples per interface across all connections).
    fn bytes_by_iface(&self, iface: IfaceKind) -> u64 {
        let upload = matches!(self.scenario.workload, Workload::Upload { .. });
        let moved = |c: &ConnState| {
            if upload {
                c.client.acked_by_iface(iface)
            } else {
                c.client.delivered_by_iface(iface)
            }
        };
        self.conns.iter().map(moved).sum()
    }

    /// Path `idx` went up or down: propagate its link state to the
    /// subflow on it, on both ends (the kernel learns this from the link
    /// layer; the server infers it from timeouts — the host short-circuits
    /// that, see DESIGN.md §8), and let Single-Path mode fail over when
    /// WiFi goes.
    fn on_link_change(&mut self, now: SimTime, idx: usize) {
        let up = !self.paths[idx].fault().down;
        let fail_over = !up && idx == 0 && matches!(self.strategy, Strategy::SinglePath);
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if let Some(id) = [c.wifi_sf, c.cell_sf][idx] {
                c.client.set_subflow_link_up(now, id, up);
                c.server.set_subflow_link_up(now, id, up);
            }
            if fail_over && c.cell_sf.is_none() {
                // §2.1: Single-Path mode establishes a new subflow only
                // after the current interface goes down.
                self.open_cellular(now, i);
            }
        }
    }

    fn on_timer_check(&mut self, now: SimTime) {
        for i in 0..self.conns.len() {
            self.conns[i].client.on_deadline(now);
            self.conns[i].server.on_deadline(now);
        }
        self.drain_all(now);
        self.check_completion(now);
    }

    fn apply_engine_actions(&mut self, now: SimTime, conn: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::EstablishCellular => self.open_cellular(now, conn),
                Action::SetPriority { id, backup } => {
                    self.conns[conn]
                        .client
                        .set_subflow_priority(now, id, backup);
                }
                Action::Resume { id } => {
                    self.conns[conn].client.prepare_subflow_resume(id);
                    self.conns[conn].server.prepare_subflow_resume(id);
                }
            }
        }
    }

    fn apply_mdp_policy(&mut self, now: SimTime) {
        let Some(policy) = self.mdp_policy.as_ref() else {
            return;
        };
        // Epoch throughputs in Mbps over the last second.
        let wifi = self.mdp_epoch_bytes[0] as f64 * 8.0 / 1e6;
        let cell = self.mdp_epoch_bytes[1] as f64 * 8.0 / 1e6;
        self.mdp_epoch_bytes = [0, 0];
        let usage = policy.action(wifi.max(0.1), cell);
        for i in 0..self.conns.len() {
            let (wifi_sf, cell_sf) = (self.conns[i].wifi_sf, self.conns[i].cell_sf);
            if usage.uses_cellular() {
                match cell_sf {
                    None => self.open_cellular(now, i),
                    Some(id) => {
                        self.conns[i].client.set_subflow_priority(now, id, false);
                    }
                }
            } else if let Some(id) = cell_sf {
                self.conns[i].client.set_subflow_priority(now, id, true);
            }
            if let Some(id) = wifi_sf {
                self.conns[i]
                    .client
                    .set_subflow_priority(now, id, !usage.uses_wifi());
            }
        }
    }

    /// Apply the faults due at `now`. The stacks learn of a link change at
    /// once; what they send in reply leaves on the next event that drains
    /// them. The injector is taken out of `self` for the call because the
    /// simulation is its own fault surface.
    fn on_faults(&mut self, now: SimTime) {
        let mut injector = self.injector.take().expect("fault event without a plan");
        self.faults_applied += injector.poll(now, self) as u64;
        self.injector = Some(injector);
    }

    fn on_tick(&mut self, now: SimTime) {
        // 1. Environment updates.
        if let Some(m) = self.modulator.as_mut() {
            if let Some(rate) = m.poll(now) {
                self.wifi_channel.set_nominal_bps(rate);
            }
        }
        if let Some(set) = self.interferers.as_mut() {
            set.poll(now);
            let k = set.active(now);
            self.wifi_channel.set_active_contenders(k);
        }
        if let Some(mob) = self.mobility.as_ref() {
            self.wifi_channel.set_nominal_bps(mob.wifi_goodput_bps(now));
        }
        let ch = &self.wifi_channel;
        let eff = self.paths[0].set_down_nominal(now, ch.effective_rate_bps(), ch.loss_prob());

        // 2. RRC timers (tail/idle transitions).
        self.rrc.poll(now);

        // 3. eMPTCP control loops, fed the device-wide per-interface
        //    counters.
        let totals = IfaceTotals {
            wifi_bytes: self.bytes_by_iface(IfaceKind::Wifi),
            cell_bytes: self.bytes_by_iface(self.scenario.cell_kind),
        };
        for i in 0..self.conns.len() {
            if self.conns[i].engine.is_some() {
                let actions = {
                    let c = &mut self.conns[i];
                    let engine = c.engine.as_mut().expect("checked");
                    engine.on_tick(now, &c.client, totals)
                };
                if !actions.is_empty() {
                    self.apply_engine_actions(now, i, actions);
                }
            }
        }

        // 4. MDP policy at one-second epochs.
        self.mdp_epoch_bytes[0] += self.window_bytes[0];
        self.mdp_epoch_bytes[1] += self.window_bytes[1];
        if self.mdp_policy.is_some() && now.as_nanos().is_multiple_of(1_000_000_000) {
            self.apply_mdp_policy(now);
        }

        // 5. Web workload: hand idle connections their next object.
        if matches!(self.scenario.workload, Workload::WebPage) {
            self.drive_web(now);
        }

        // 5b. Streaming workload: push chunks on the playback clock and
        //     count deadline misses (the previous chunk not fully delivered
        //     when the next one is due).
        if let Workload::Streaming {
            chunk_bytes,
            interval,
            duration,
        } = self.scenario.workload
        {
            if now >= self.stream_next_at
                && now < SimTime::ZERO + duration
                && self.conns[0].wifi_established_seen
            {
                if self.stream_chunks > 0
                    && self.conns[0].client.bytes_delivered() < self.conns[0].expected_bytes
                {
                    self.stream_misses += 1;
                }
                self.conns[0].server.write(chunk_bytes);
                self.conns[0].expected_bytes += chunk_bytes;
                self.stream_chunks += 1;
                self.stream_next_at = now + interval;
                self.drain_conn(now, 0);
            }
        }

        // 6. Energy accounting.
        let dt = TICK.as_secs_f64();
        let wifi_mbps = self.window_bytes[0] as f64 * 8.0 / dt / 1e6;
        let cell_mbps = self.window_bytes[1] as f64 * 8.0 / dt / 1e6;
        self.window_bytes = [0, 0];
        self.meter.update(
            now,
            RadioSnapshot {
                wifi_on: true,
                wifi_mbps,
                cell_state: self.rrc.state(),
                cell_mbps,
            },
        );
        self.energy_trace.push(now, self.meter.energy_j(now));
        self.wifi_thpt_trace.push(now, wifi_mbps);
        self.cell_thpt_trace.push(now, cell_mbps);
        self.wifi_capacity_trace.push(now, eff as f64 / 1e6);

        // 6b. Online invariant checks over the whole stack.
        if self.telemetry.invariants_enabled() {
            self.run_invariant_checks(now);
        }

        // 7. Completion / drain management.
        self.check_completion(now);
        if let Some(done_at) = self.completed_at {
            let drained = self.rrc.state() == RrcState::Idle;
            if drained || now.saturating_since(done_at) >= DRAIN_CAP {
                self.done = true;
                return;
            }
        }
        self.drain_all(now);
        self.queue.schedule(TICK_LANE, now + TICK, Event::Tick);
    }

    /// Conservation checks run every tick when invariants are enabled:
    /// per-subflow ACK conservation, energy monotonicity, and radio-state
    /// residency partitioning (DSS coverage is checked inside
    /// [`MpConnection::on_segment`]).
    fn run_invariant_checks(&mut self, now: SimTime) {
        let energy = self.meter.energy_j(now);
        let prev_energy = self.last_energy_j;
        self.last_energy_j = energy;
        let residency = self.rrc.residency_sum_ns(now);
        let conns = &self.conns;
        self.telemetry.check_invariants(now, |obs| {
            for (i, c) in conns.iter().enumerate() {
                for (side, mp) in [("client", &c.client), ("server", &c.server)] {
                    for sf in mp.subflows() {
                        obs.check_ack_conservation(
                            now,
                            format_args!("conn{i}.{side}.sf{}", sf.id.0),
                            sf.tcp.bytes_acked_total(),
                            sf.tcp.bytes_sent_total(),
                        );
                    }
                }
            }
            obs.check_energy_monotone(now, prev_energy, energy);
            obs.check_residency_sum(now, residency, now.as_nanos());
        });
    }

    fn drive_web(&mut self, now: SimTime) {
        for i in 0..self.conns.len() {
            let c = &self.conns[i];
            if c.web_current.is_some()
                && c.expected_bytes > 0
                && c.client.bytes_delivered() >= c.expected_bytes
            {
                self.conns[i].web_current = None;
                self.start_next_web_object(i);
                self.drain_conn(now, i);
            } else if c.web_current.is_none() && c.wifi_established_seen {
                self.start_next_web_object(i);
                self.drain_conn(now, i);
            }
        }
    }

    fn workload_complete(&self, now: SimTime) -> bool {
        match self.scenario.workload {
            Workload::Download { size } => self
                .conns
                .iter()
                .all(|c| c.client.bytes_delivered() >= size),
            Workload::TimedBulk { duration } => now >= SimTime::ZERO + duration,
            Workload::Upload { size } => self
                .conns
                .iter()
                .all(|c| c.server.bytes_delivered() >= size),
            Workload::Streaming { duration, .. } => {
                now >= SimTime::ZERO + duration
                    && self
                        .conns
                        .iter()
                        .all(|c| c.client.bytes_delivered() >= c.expected_bytes)
            }
            Workload::WebPage => {
                self.web_queue
                    .as_ref()
                    .map(|q| q.remaining() == 0)
                    .unwrap_or(true)
                    && self.conns.iter().all(|c| {
                        c.web_current.is_none() || c.client.bytes_delivered() >= c.expected_bytes
                    })
            }
        }
    }

    fn check_completion(&mut self, now: SimTime) {
        if self.completed_at.is_none() && self.workload_complete(now) {
            self.completed_at = Some(now);
            self.energy_at_completion = self.meter.energy_j(now);
        }
    }

    // ------------------------------------------------------------------
    // the run loop
    // ------------------------------------------------------------------

    /// Run to completion (workload + radio drain) or the horizon.
    pub fn run(mut self) -> RunResult {
        self.queue.schedule(TICK_LANE, SimTime::ZERO, Event::Tick);
        self.drain_all(SimTime::ZERO);
        while self.step() {}
        self.finish()
    }

    /// Handle the next event; false once the run is over.
    fn step(&mut self) -> bool {
        let next = if self.done { None } else { self.queue.pop() };
        let Some((now, event)) = next.filter(|e| e.0 <= self.scenario.horizon) else {
            return false;
        };
        match event {
            Event::Deliver {
                conn,
                sf,
                to_client,
                seg,
            } => self.on_deliver(now, conn as usize, sf, to_client, seg),
            Event::Tick => self.on_tick(now),
            Event::TimerCheck => self.on_timer_check(now),
            Event::CellReady => {
                self.on_cell_ready(now);
                self.drain_all(now);
            }
            Event::Faults => self.on_faults(now),
            Event::Outage(edge) => self.apply(now, FaultTarget::Wifi, edge),
        }
        true
    }

    fn finish(mut self) -> RunResult {
        let end = self.queue.now();
        // Close the final cellular-state segment for the breakdown.
        let final_snapshot = self.meter.snapshot();
        self.meter.update(end, final_snapshot);
        self.meter.export_metrics(end);
        if self.telemetry.enabled() {
            let endpoints = || {
                let subflows = self.conns.iter().flat_map(ConnState::subflows);
                subflows.map(|sf| &sf.tcp)
            };
            self.telemetry.with_metrics(|m| {
                // How much of the data on the simulated wire left as runts
                // (ROADMAP: sender-side SWS avoidance, sized before fixed).
                m.counter_add(
                    "tcp.data_segments",
                    endpoints().map(|tcp| tcp.data_segments()).sum(),
                );
                // A runt is cut either by an endpoint (application-fed) or
                // by the scheduler sizing a chunk to a subflow's window.
                let cut_by_scheduler =
                    |c: &ConnState| c.client.runt_chunks() + c.server.runt_chunks();
                m.counter_add(
                    "tcp.runts",
                    endpoints().map(|tcp| tcp.runts()).sum::<u64>()
                        + self.conns.iter().map(cut_by_scheduler).sum::<u64>(),
                );
                // Deliveries that overtook an earlier one on the same link
                // (the timer lanes never hold two events and the fault and
                // outage lanes are filled in order, so every insert ahead
                // of a lane's tail is one).
                m.counter_add("host.link.reordered", self.queue.inserted_ahead());
                m.gauge_set("rrc.promotions_total", self.rrc.promotions() as f64);
                for state in emptcp_phy::rrc::RrcState::ALL {
                    m.gauge_set(
                        &format!("rrc.residency.{}_s", state.name()),
                        self.rrc.residency_ns(state, end) as f64 / 1e9,
                    );
                }
            });
            let _ = self.telemetry.flush();
        }
        let (_, promo_energy_j, _, tail_energy_j) = self.meter.cell_state_energy_j();
        let completed = self.completed_at.is_some();
        let done_at = self.completed_at.unwrap_or(end);
        let download_time_s = done_at.as_secs_f64();
        let energy_j = self.meter.energy_j(end);
        let upload = matches!(self.scenario.workload, Workload::Upload { .. });
        let bytes_delivered: u64 = if upload {
            self.conns.iter().map(|c| c.server.bytes_delivered()).sum()
        } else {
            self.conns.iter().map(|c| c.client.bytes_delivered()).sum()
        };
        let wifi_bytes = self.bytes_by_iface(IfaceKind::Wifi);
        let cell_bytes = self.bytes_by_iface(self.scenario.cell_kind);
        let usage_switches = self
            .conns
            .iter()
            .filter_map(|c| c.engine.as_ref())
            .map(|e| e.switches())
            .sum();
        let retransmissions = self.conns.iter().map(|c| c.total_retransmissions()).sum();
        let mut recovery = RecoveryStats::default();
        for c in &self.conns {
            recovery.absorb(c.client.recovery_stats());
            recovery.absorb(c.server.recovery_stats());
        }
        let t = download_time_s.max(1e-9);
        RunResult {
            strategy: self.strategy.label().to_string(),
            scenario: self.scenario.name.clone(),
            completed,
            download_time_s,
            energy_j,
            energy_at_completion_j: if completed {
                self.energy_at_completion
            } else {
                energy_j
            },
            bytes_delivered,
            wifi_bytes,
            cell_bytes,
            joules_per_byte: if bytes_delivered > 0 {
                energy_j / bytes_delivered as f64
            } else {
                f64::INFINITY
            },
            promotions: self.rrc.promotions(),
            usage_switches,
            retransmissions,
            rebuffer_events: self.stream_misses,
            promo_energy_j,
            tail_energy_j,
            avg_wifi_mbps: wifi_bytes as f64 * 8.0 / t / 1e6,
            avg_cell_mbps: cell_bytes as f64 * 8.0 / t / 1e6,
            energy_trace: self.energy_trace.downsample(2000),
            wifi_thpt_trace: self.wifi_thpt_trace.downsample(2000),
            cell_thpt_trace: self.cell_thpt_trace.downsample(2000),
            wifi_capacity_trace: self.wifi_capacity_trace.downsample(2000),
            faults_injected: self.faults_applied,
            subflow_failures: recovery.subflow_failures,
            link_down_events: recovery.link_down_events,
            bytes_reinjected: recovery.bytes_reinjected,
            backup_promotions: recovery.backup_promotions,
            subflow_revivals: recovery.revivals,
            worst_recovery_latency_s: recovery
                .worst_recovery_latency()
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0),
            stuck_subflows: self
                .conns
                .iter()
                .flat_map(ConnState::subflows)
                .filter(|sf| sf.link_down)
                .count() as u64,
        }
    }
}

/// How the fault injector mutates this host: each interface is one
/// [`Path`], which keeps its own fault state and takes every action in
/// both directions, each link over its own nominal (the WiFi downlink's
/// is the channel model's current output). When an action takes a path
/// down or brings it up, its subflows learn at once, on both ends. A
/// scenario's WiFi outage arrives through this same call, and a `Core`
/// fault is both access paths at once.
///
/// `Rate(Some(0))` is a *silent* blackhole — packets die in the link but
/// no link-down notification reaches the stack, so only the
/// consecutive-RTO failure detector can react. `IfaceDown` is the
/// *notified* variant. Extra delay rides each direction, so the RTT grows
/// by twice the added one-way delay.
impl FaultSurface for Simulation {
    fn apply(&mut self, now: SimTime, target: FaultTarget, action: FaultAction) {
        // A `Core` target has no path index: it is both paths.
        for idx in 0..self.paths.len() {
            let hit = target.path_index().is_none_or(|i| i == idx);
            if hit && self.paths[idx].apply(now, action) == FaultPart::Up {
                self.on_link_change(now, idx);
            }
        }
    }
}

/// Convenience: build and run in one call.
pub fn run(scenario: Scenario, strategy: Strategy, seed: u64) -> RunResult {
    Simulation::new(scenario, strategy, seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_workload::download::MB;

    fn quick_download(size: u64) -> Scenario {
        Scenario::static_good_wifi().with(Workload::Download { size })
    }

    #[test]
    fn tcp_wifi_completes_small_download() {
        let r = run(quick_download(MB), Strategy::TcpWifi, 1);
        assert!(r.completed, "did not complete: {r:?}");
        assert_eq!(r.bytes_delivered, MB);
        assert_eq!(r.cell_bytes, 0);
        assert!(r.download_time_s > 0.5 && r.download_time_s < 10.0);
        assert!(r.energy_j > 0.0);
        assert_eq!(r.promotions, 0);
    }

    #[test]
    fn mptcp_uses_both_paths() {
        let r = run(quick_download(16 * MB), Strategy::Mptcp, 2);
        assert!(r.completed);
        assert!(r.wifi_bytes > 0);
        assert!(r.cell_bytes > 0, "LTE never used: {r:?}");
        assert_eq!(r.promotions, 1);
        // Both paths: faster than WiFi alone would be (11 Mbps).
        assert!(r.download_time_s < 16.0 * 8.0 / 11.0 * 1.2);
    }

    #[test]
    fn tcp_cellular_promotes_radio() {
        let r = run(quick_download(MB), Strategy::TcpCellular, 3);
        assert!(r.completed);
        assert_eq!(r.wifi_bytes, 0);
        assert_eq!(r.bytes_delivered, MB);
        assert_eq!(r.promotions, 1);
        // Fixed overhead: at least promotion+tail energy.
        assert!(r.energy_j > 11.0, "energy {j}", j = r.energy_j);
    }

    #[test]
    fn emptcp_avoids_cellular_on_good_wifi() {
        let r = run(quick_download(16 * MB), Strategy::emptcp_default(), 4);
        assert!(r.completed);
        assert_eq!(r.cell_bytes, 0, "eMPTCP woke LTE on good WiFi");
        assert_eq!(r.promotions, 0);
        // And beats MPTCP on energy (no LTE fixed costs).
        let m = run(quick_download(16 * MB), Strategy::Mptcp, 4);
        assert!(
            r.energy_j < m.energy_j * 0.8,
            "eMPTCP {e} vs MPTCP {me}",
            e = r.energy_j,
            me = m.energy_j
        );
    }

    #[test]
    fn emptcp_uses_both_on_bad_wifi() {
        let s = Scenario::static_bad_wifi().with(Workload::Download { size: 8 * MB });
        let r = run(s, Strategy::emptcp_default(), 5);
        assert!(r.completed, "{r:?}");
        assert!(r.cell_bytes > 0, "eMPTCP never used LTE on bad WiFi");
        assert!(r.promotions >= 1);
    }

    #[test]
    fn wifi_first_ignores_cellular_while_wifi_up() {
        let r = run(quick_download(16 * MB), Strategy::WifiFirst, 6);
        assert!(r.completed);
        assert_eq!(r.cell_bytes, 0, "WiFi-First used LTE despite WiFi up");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(quick_download(4 * MB), Strategy::Mptcp, 42);
        let b = run(quick_download(4 * MB), Strategy::Mptcp, 42);
        assert_eq!(a.download_time_s, b.download_time_s);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.wifi_bytes, b.wifi_bytes);
    }

    #[test]
    fn timed_bulk_stops_at_duration() {
        let duration = SimDuration::from_secs(20);
        let s = Scenario::static_good_wifi().with(Workload::TimedBulk { duration });
        let r = run(s, Strategy::TcpWifi, 7);
        assert!(r.completed);
        assert!((r.download_time_s - 20.0).abs() < 0.2, "{r:?}");
        assert!(
            r.bytes_delivered > 10 * MB,
            "moved {b}",
            b = r.bytes_delivered
        );
    }

    #[test]
    fn fixed_cost_breakdown_reported() {
        let r = run(quick_download(MB), Strategy::TcpCellular, 30);
        assert!(r.completed);
        // One promotion (~0.5 J) and one full tail (~11 J).
        assert!(
            (0.3..1.0).contains(&r.promo_energy_j),
            "{}",
            r.promo_energy_j
        );
        assert!(
            (8.0..12.0).contains(&r.tail_energy_j),
            "{}",
            r.tail_energy_j
        );
        let w = run(quick_download(MB), Strategy::TcpWifi, 30);
        assert_eq!(w.promo_energy_j, 0.0);
        assert_eq!(w.tail_energy_j, 0.0);
    }

    #[test]
    fn upload_completes_and_counts_sender_side() {
        let s = Scenario::upload().with(Workload::Upload { size: 4 * MB });
        let r = run(s, Strategy::TcpWifi, 20);
        assert!(r.completed, "{r:?}");
        assert_eq!(r.bytes_delivered, 4 * MB);
        assert_eq!(r.wifi_bytes, 4 * MB);
        assert_eq!(r.cell_bytes, 0);
    }

    #[test]
    fn upload_emptcp_stays_wifi_only_on_good_wifi() {
        let s = Scenario::upload().with(Workload::Upload { size: 8 * MB });
        let r = run(s, Strategy::emptcp_default(), 21);
        assert!(r.completed, "{r:?}");
        assert_eq!(r.promotions, 0, "LTE woken for a WiFi-friendly upload");
    }

    #[test]
    fn streaming_counts_rebuffers() {
        // Shrink the stream for test speed: 20 chunks over 40 s.
        let s = Scenario::streaming().with(Workload::Streaming {
            chunk_bytes: 1 << 20,
            interval: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(40),
        });
        let good = run(s.clone(), Strategy::Mptcp, 22);
        assert!(good.completed, "{good:?}");
        assert!(good.bytes_delivered >= 19 << 20);
        // MPTCP with both paths should stream nearly hitch-free.
        assert!(good.rebuffer_events <= 3, "{}", good.rebuffer_events);
        // Single-path WiFi over the modulated AP misses deadlines in the
        // low-bandwidth phases (1 MB per 2 s needs 4 Mbps; the low band
        // offers <= 1 Mbps).
        let tcp = run(s, Strategy::TcpWifi, 22);
        assert!(
            tcp.rebuffer_events > good.rebuffer_events,
            "tcp {} vs mptcp {}",
            tcp.rebuffer_events,
            good.rebuffer_events
        );
    }

    #[test]
    fn web_page_fetches_everything() {
        let s = Scenario::web_browsing();
        let r = run(s, Strategy::TcpWifi, 8);
        assert!(r.completed, "{r:?}");
        assert!(r.bytes_delivered > 300_000);
        assert!(r.download_time_s < 60.0);
    }

    #[test]
    fn a_scenario_outage_takes_wifi_down_under_a_rate_override() {
        let ms = SimTime::from_millis;
        let mut s = quick_download(16 * MB);
        s.wifi = WifiEnvironment::StaticWithOutage {
            bps: 11_000_000,
            outage_start: ms(1_000),
            outage_end: ms(3_000),
        };
        let step = |at_ms, bps| FaultSpec::RateStep {
            target: FaultTarget::Wifi,
            at_ms,
            bps,
        };
        let mut sim = Simulation::new(s, Strategy::Mptcp, 1);
        sim.attach_faults(&[step(500, Some(2_000_000)), step(4_000, None)]);
        sim.queue.schedule(TICK_LANE, SimTime::ZERO, Event::Tick);
        // Run to `t`, then read both WiFi links and whether the WiFi
        // subflow is link-down on each end.
        let mut probe = |t| {
            while sim.queue.now() < t && sim.step() {}
            let (wifi, c) = (&sim.paths[0], &sim.conns[0]);
            let id = c.wifi_sf.expect("a WiFi subflow");
            let down = [&c.client, &c.server].map(|end| end.subflow(id).link_down);
            (wifi.down().rate_bps(), wifi.up().rate_bps(), down)
        };
        assert_eq!(probe(ms(2_000)), (0, 0, [true; 2]));
        assert_eq!(probe(ms(3_500)), (2_000_000, 2_000_000, [false; 2]));
        while sim.step() {}
        let r = sim.finish();
        assert!(r.completed, "{r:?}");
        assert_eq!(r.faults_injected, 2, "the outage is not a plan's fault");
    }

    #[test]
    fn a_queued_event_carrying_its_segment_is_copied_inline() {
        // rustc copies a value of at most 128 bytes with inline moves.
        let size = std::mem::size_of::<Event>();
        assert!(size <= 128, "{size}");
    }
}
