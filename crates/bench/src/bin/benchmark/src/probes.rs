//! Unit-cost probes: benchmark-owned loops around one public call each.
//!
//! A probe's figure is the median over [`BATCHES`] batches of a fixed
//! number of calls, so the work is the same on every commit and a batch
//! is long against the clock's resolution. None of them depends on the
//! workload or the seed: they price the layers, the workloads say how
//! often each price is paid.

use crate::fleet::{fleet_config, run_fleet, Watch};
use crate::live::scripted_transfer;
use crate::measure::median;
use crate::spans::{Folded, Tracer};
use emptcp::predictor::HoltWinters;
use emptcp::{EmptcpConfig, PathUsageController};
use emptcp_energy::{Eib, EnergyMeter, EnergyModel, RadioSnapshot};
use emptcp_expr::scenario::{Scenario, Workload};
use emptcp_expr::{chaos, host, Strategy};
use emptcp_live::{decode_frame, encode_frame, ChaosPath, DuplexTransport, Transport};
use emptcp_mptcp::{MpConnection, Role, SubflowId};
use emptcp_net::{NodeId, Port};
use emptcp_obsv::{replay, Pipeline, PipelineConfig};
use emptcp_phy::{IfaceKind, Link, LinkConfig, RrcState};
use emptcp_sim::{EventQueue, SimDuration, SimRng, SimTime};
use emptcp_tcp::{Segment, SegmentSlab, TcpConfig, TcpEndpoint};
use emptcp_telemetry::{jsonl_line, MemorySink, Telemetry, TraceEvent};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const BATCHES: usize = 9;
const MIB: u64 = 1 << 20;
/// Probes take no seed from the command line; this one only has to be
/// the same on every commit.
const PROBE_SEED: u64 = 0x00E0_07C9;

/// Median nanoseconds per call over [`BATCHES`] batches of `calls` calls.
fn per_call_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

/// Median seconds of `f` over `runs` runs.
fn median_s(runs: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The collected figures, and the tracer each probe leaves a span in.
struct Ledger<'a> {
    out: BTreeMap<String, f64>,
    tracer: &'a mut Tracer,
}

impl Ledger<'_> {
    /// Run one probe under a span named after its metric.
    fn probe(&mut self, name: &str, f: impl FnOnce() -> f64) {
        let value = self.tracer.span(&format!("probe.{name}"), |_| f());
        self.out.insert(name.to_string(), value);
    }
}

fn sim(l: &mut Ledger) {
    l.probe("sim.wheel.push_pop_ns", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        per_call_ns(200_000, || {
            t += 1;
            q.schedule(SimTime::from_nanos(t * 1000), t);
            if t.is_multiple_of(2) {
                black_box(q.pop());
            }
        })
    });
    // The host-timer pattern: cancel the armed deadline and arm a later
    // one, with pops dragging the cursor so re-arms cross slot and level
    // seams instead of hitting one hot slot.
    l.probe("sim.wheel.rearm_ns", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        let mut armed = q.schedule(SimTime::from_nanos(1_000), 0);
        per_call_ns(200_000, || {
            t += 1;
            q.cancel(armed);
            armed = q.schedule(SimTime::from_nanos(t * 1_000 + 500_000), t);
            if t.is_multiple_of(8) {
                black_box(q.pop());
            }
        })
    });
    l.probe("sim.wheel.cancel_ns", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        per_call_ns(200_000, || {
            t += 1;
            let id = q.schedule(SimTime::from_nanos(t * 1000), t);
            q.cancel(black_box(id));
        })
    });
    l.probe("sim.rng.exp_ns", || {
        let mut rng = SimRng::new(PROBE_SEED);
        per_call_ns(500_000, || {
            black_box(rng.exponential(0.05));
        })
    });
}

/// The queue between the two ends of a pair pump: `(to_client, path,
/// segment)` keyed by arrival time.
type Holdback = EventQueue<(bool, u8, Segment)>;

/// What the pair pump needs of an endpoint: the four calls every driver
/// in the repo makes, on `TcpEndpoint` and on `MpConnection` alike.
trait Pumped {
    /// `poll_transmit`: the next segment and the path it leaves on.
    fn poll(&mut self, now: SimTime) -> Option<(u8, Segment)>;
    fn deliver(&mut self, now: SimTime, path: u8, seg: Segment);
    fn deadline(&self) -> Option<SimTime>;
    fn expire(&mut self, now: SimTime);
    /// Bytes delivered to the application so far.
    fn delivered(&self) -> u64;
}

impl Pumped for MpConnection {
    fn poll(&mut self, now: SimTime) -> Option<(u8, Segment)> {
        self.poll_transmit(now).map(|(sf, seg)| (sf.0, seg))
    }
    fn deliver(&mut self, now: SimTime, path: u8, seg: Segment) {
        black_box(self.on_segment(now, SubflowId(path), seg));
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
}

impl Pumped for TcpEndpoint {
    fn poll(&mut self, now: SimTime) -> Option<(u8, Segment)> {
        self.poll_transmit(now).map(|seg| (0, seg))
    }
    fn deliver(&mut self, now: SimTime, _path: u8, seg: Segment) {
        black_box(self.on_segment(now, seg));
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
}

/// Per-call spans of a pair pump; only a timed pump fills them.
#[derive(Default)]
struct PumpSpans {
    on_segment: Folded,
    poll_some: Folded,
    poll_none: Folded,
    on_deadline: Folded,
}

#[inline]
fn maybe_time<const TIMED: bool, R>(slot: &mut Folded, f: impl FnOnce() -> R) -> R {
    if TIMED {
        slot.time(f)
    } else {
        f()
    }
}

/// Pump a client and a server, joined by a holdback queue with a fixed
/// one-way delay per path, until the client has `size` bytes: the
/// simulator's loop with nothing else in it. Returns segments delivered.
fn pump<const TIMED: bool, E: Pumped>(
    mut client: E,
    mut server: E,
    delays: &[SimDuration],
    size: u64,
    spans: &mut PumpSpans,
) -> u64 {
    let mut net = Holdback::new();
    let drain = |end: &mut E,
                 to_client: bool,
                 now: SimTime,
                 net: &mut Holdback,
                 spans: &mut PumpSpans| loop {
        let start = TIMED.then(Instant::now);
        let polled = end.poll(now);
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            match polled {
                Some(_) => spans.poll_some.record(ns),
                None => spans.poll_none.record(ns),
            }
        }
        let Some((path, seg)) = polled else { break };
        net.schedule(now + delays[path as usize], (to_client, path, seg));
    };
    let mut segments = 0u64;
    let mut now = SimTime::ZERO;
    drain(&mut client, false, now, &mut net, spans);
    drain(&mut server, true, now, &mut net, spans);
    while client.delivered() < size {
        let timer = client.deadline().into_iter().chain(server.deadline()).min();
        let packet = net.peek_time();
        now = match (packet, timer) {
            (Some(p), Some(t)) => p.min(t),
            (Some(p), None) => p,
            (None, Some(t)) => t,
            (None, None) => break,
        };
        if Some(now) == packet {
            let (_, (to_client, path, seg)) = net.pop().expect("peeked");
            let end = if to_client { &mut client } else { &mut server };
            maybe_time::<TIMED, _>(&mut spans.on_segment, || end.deliver(now, path, seg));
            segments += 1;
        }
        maybe_time::<TIMED, _>(&mut spans.on_deadline, || client.expire(now));
        maybe_time::<TIMED, _>(&mut spans.on_deadline, || server.expire(now));
        drain(&mut client, false, now, &mut net, spans);
        drain(&mut server, true, now, &mut net, spans);
    }
    assert_eq!(client.delivered(), size, "the pair pump stalled");
    segments
}

/// Two 2-subflow connections, 12 ms and 35 ms one way.
fn mptcp_pair<const TIMED: bool>(size: u64, spans: &mut PumpSpans) -> u64 {
    let mut client = MpConnection::new(Role::Client, TcpConfig::default());
    let mut server = MpConnection::new(Role::Server, TcpConfig::default());
    for iface in [IfaceKind::Wifi, IfaceKind::CellularLte] {
        client.add_subflow(SimTime::ZERO, iface);
        server.add_subflow(SimTime::ZERO, iface);
    }
    server.write(size);
    let delays = [SimDuration::from_millis(12), SimDuration::from_millis(35)];
    pump::<TIMED, _>(client, server, &delays, size, spans)
}

/// The same pump one layer down: two `TcpEndpoint`s, 12 ms one way.
fn tcp_pair<const TIMED: bool>(size: u64, spans: &mut PumpSpans) -> u64 {
    let mut client = TcpEndpoint::client(TcpConfig::default());
    let mut server = TcpEndpoint::listener(TcpConfig::default());
    client.connect(SimTime::ZERO);
    server.write(size);
    pump::<TIMED, _>(client, server, &[SimDuration::from_millis(12)], size, spans)
}

fn fold_pump(tracer: &mut Tracer, layer: &str, spans: &PumpSpans) {
    tracer.fold(&format!("{layer}.on_segment"), &spans.on_segment);
    tracer.fold(&format!("{layer}.poll_transmit"), &spans.poll_some);
    tracer.fold(&format!("{layer}.empty_poll"), &spans.poll_none);
    tracer.fold(&format!("{layer}.on_deadline"), &spans.on_deadline);
}

fn tcp(l: &mut Ledger) {
    // Steady-state parking: one insert and take, which after warm-up
    // recycles a single slot without touching the allocator.
    l.probe("tcp.slab.recycle_ns", || {
        let mut slab = SegmentSlab::new();
        let mut p = 0u32;
        per_call_ns(500_000, || {
            p = p.wrapping_add(1);
            let mut seg = Segment::empty(SimTime::ZERO);
            seg.payload = p;
            let r = slab.insert(seg);
            black_box(slab.take(r));
        })
    });
    let size = 32 * MIB;
    l.probe("tcp.pair.ns_per_seg", || {
        let mut segments = 0;
        let mut none = PumpSpans::default();
        let s = median_s(3, || segments = tcp_pair::<false>(size, &mut none));
        s * 1e9 / segments as f64
    });
    let id = l.tracer.enter("probe.tcp.pair.spans");
    let mut spans = PumpSpans::default();
    tcp_pair::<true>(size, &mut spans);
    fold_pump(l.tracer, "tcp.pair", &spans);
    l.tracer.exit(id);
}

fn mptcp(l: &mut Ledger) {
    let size = 64 * MIB;
    l.probe("mptcp.pair.ns_per_seg", || {
        let mut segments = 0;
        let mut none = PumpSpans::default();
        let s = median_s(3, || segments = mptcp_pair::<false>(size, &mut none));
        s * 1e9 / segments as f64
    });
    let id = l.tracer.enter("probe.mptcp.pair.spans");
    let mut spans = PumpSpans::default();
    mptcp_pair::<true>(size, &mut spans);
    fold_pump(l.tracer, "mptcp.pair", &spans);
    l.tracer.exit(id);
    // Each figure includes the one clock read that closes its span.
    let polls = spans.poll_some.count + spans.poll_none.count;
    for (name, value) in [
        ("mptcp.on_segment_ns", spans.on_segment.mean_ns()),
        ("mptcp.poll_transmit_ns", spans.poll_some.mean_ns()),
        ("mptcp.empty_poll_ns", spans.poll_none.mean_ns()),
        ("mptcp.on_deadline_ns", spans.on_deadline.mean_ns()),
        (
            "mptcp.poll.useful_ratio",
            spans.poll_some.count as f64 / polls.max(1) as f64,
        ),
    ] {
        l.out.insert(name.to_string(), value);
    }
}

fn core_and_energy(l: &mut Ledger) {
    let model = EnergyModel::galaxy_s3_lte();
    l.probe("energy.eib.generate_ms", || {
        median_s(5, || {
            black_box(Eib::generate_default(black_box(&model)));
        }) * 1e3
    });
    let eib = Eib::generate_default(&model);
    l.probe("energy.eib.choose_ns", || {
        let mut w = 0.1;
        per_call_ns(200_000, || {
            w = (w + 0.37) % 12.0;
            black_box(eib.choose(black_box(w), black_box(4.0)));
        })
    });
    l.probe("energy.meter.update_ns", || {
        let mut meter = EnergyMeter::new(model.clone(), SimTime::ZERO, 0.0);
        let mut now = SimTime::ZERO;
        let mut w = 0.1;
        let ns = per_call_ns(200_000, || {
            now += SimDuration::from_millis(10);
            w = (w + 0.37) % 12.0;
            meter.update(
                now,
                RadioSnapshot {
                    wifi_on: true,
                    wifi_mbps: w,
                    cell_state: RrcState::Active,
                    cell_mbps: 12.0 - w,
                },
            );
        });
        black_box(meter.energy_j(now));
        ns
    });
    l.probe("core.controller.decide_ns", || {
        let mut ctl = PathUsageController::new(EmptcpConfig::default().controller);
        let mut w = 0.1;
        let mut now = SimTime::ZERO;
        per_call_ns(200_000, || {
            w = (w + 0.29) % 10.0;
            now += SimDuration::from_secs(5);
            black_box(ctl.decide(now, &eib, black_box(w), black_box(3.0)));
        })
    });
    l.probe("core.predictor.observe_ns", || {
        let mut hw = HoltWinters::new(0.4, 0.2);
        let mut x = 1.0;
        per_call_ns(500_000, || {
            x = (x * 1.1) % 20.0;
            hw.observe(black_box(x));
            black_box(hw.forecast());
        })
    });
}

fn phy_and_net(l: &mut Ledger) {
    // Offered just under line rate, so the queue breathes instead of
    // saturating: 1500 bytes every 13 us against 1 Gbps.
    let config = LinkConfig {
        rate_bps: 1_000_000_000,
        prop_delay: SimDuration::from_micros(50),
        queue_capacity: 256 * 1024,
        loss_prob: 0.0,
    };
    l.probe("phy.link.enqueue_ns", || {
        let mut link = Link::new(config);
        let mut rng = SimRng::new(PROBE_SEED);
        let mut now = SimTime::ZERO;
        per_call_ns(200_000, || {
            now += SimDuration::from_micros(13);
            black_box(link.enqueue(now, 1500, &mut rng));
        })
    });
    l.probe("net.port.transmit_ns", || {
        let mut port = Port::new(NodeId(0), NodeId(1), config);
        let scope = Telemetry::disabled().scope(0);
        let mut rng = SimRng::new(PROBE_SEED);
        let mut now = SimTime::ZERO;
        per_call_ns(200_000, || {
            now += SimDuration::from_micros(13);
            black_box(port.transmit(now, 1500, &mut rng, 0, 0, &scope));
        })
    });
}

fn delivered_event() -> TraceEvent {
    TraceEvent::Delivered {
        conn: 3,
        subflow: 1,
        bytes: 64 * 1024,
    }
}

/// Median wall seconds of the `fleet_packets` input cut to one simulated
/// second, under each kind of watching, interleaved so drift hits all
/// three alike.
fn watch_ladder(tracer: &mut Tracer) -> [f64; 3] {
    let cfg = fleet_config(1024, SimDuration::from_secs(1), PROBE_SEED);
    let kinds = [Watch::Off, Watch::Null, Watch::Tapped];
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (kind, walls) in kinds.iter().zip(&mut walls) {
            let name = format!("fleet.variant.{kind:?}").to_lowercase();
            let run = tracer.span(&name, |_| run_fleet(&cfg, 4, *kind, false));
            walls.push(run.wall_s);
        }
    }
    [median(&walls[0]), median(&walls[1]), median(&walls[2])]
}

fn telemetry_and_obsv(l: &mut Ledger) {
    l.probe("telemetry.emit_disabled_ns", || {
        let scope = Telemetry::disabled().scope(3);
        let mut t = 0u64;
        per_call_ns(500_000, || {
            t += 1000;
            black_box(&scope).emit(SimTime::from_nanos(t), |_| delivered_event());
        })
    });
    l.probe("telemetry.emit_null_ns", || {
        let scope = Telemetry::builder().build().scope(3);
        let mut t = 0u64;
        per_call_ns(200_000, || {
            t += 1000;
            scope.emit(SimTime::from_nanos(t), |_| delivered_event());
        })
    });
    l.probe("telemetry.jsonl_line_ns", || {
        let ev = delivered_event();
        let mut t = 0u64;
        per_call_ns(20_000, || {
            t += 1000;
            black_box(jsonl_line(SimTime::from_nanos(t), black_box(&ev)));
        })
    });
    l.probe("telemetry.counter_add_ns", || {
        let telemetry = Telemetry::builder().build();
        per_call_ns(200_000, || {
            telemetry.with_metrics(|m| m.counter_add("tcp.conn3.sf1.retransmits", 1));
        })
    });
    l.probe("obsv.ingest_ns_per_event", || {
        let mut pipeline = Pipeline::new(PipelineConfig::default());
        let ev = delivered_event();
        let mut t = 0u64;
        let ns = per_call_ns(200_000, || {
            t += 100_000;
            pipeline.ingest(SimTime::from_nanos(t), black_box(&ev));
        });
        black_box(pipeline.events);
        ns
    });
    l.probe("obsv.replay_events_per_s", || {
        // Record a small fleet's trace, then replay the text.
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let telemetry = Telemetry::builder()
            .sink(Box::new(Arc::clone(&sink)))
            .build();
        let cfg = fleet_config(32, SimDuration::from_millis(500), PROBE_SEED);
        emptcp_net::ShardedFleetSim::new_with_telemetry(cfg, 1, telemetry).run();
        let text = sink.lock().expect("sink lock").to_jsonl();
        let mut events = 0;
        let s = median_s(3, || {
            let mut pipeline = Pipeline::new(PipelineConfig::default());
            let stats = replay(text.as_bytes(), &mut pipeline).expect("memory reads");
            assert!(stats.is_clean(), "the recorded trace replays");
            events = stats.events;
        });
        events as f64 / s
    });
    let [off, null, tapped] = l.tracer.span("probe.watch_ladder", watch_ladder);
    l.out
        .insert("telemetry.null_overhead_ratio".into(), null / off);
    l.out
        .insert("obsv.tap_overhead_ratio".into(), tapped / null);
}

fn live(l: &mut Ledger) {
    let mut seg = Segment::empty(SimTime::from_nanos(123_456_789));
    seg.seq = 1_000_000;
    seg.payload = 1428;
    seg.flags.ack = true;
    seg.ack = 4242;
    l.probe("live.codec.encode_ns", || {
        per_call_ns(200_000, || {
            black_box(encode_frame(1, black_box(&seg)));
        })
    });
    l.probe("live.codec.decode_ns", || {
        let frame = encode_frame(1, &seg);
        per_call_ns(200_000, || {
            black_box(decode_frame(black_box(&frame)).expect("own frame decodes"));
        })
    });
    // One frame through the duplex transport: encode, shape, queue,
    // dequeue, decode.
    l.probe("live.duplex.echo_ns", || {
        let mut t =
            DuplexTransport::new(PROBE_SEED, vec![ChaosPath::new(0.0, SimDuration::ZERO, 0)]);
        let mut now = SimTime::ZERO;
        per_call_ns(100_000, || {
            now += SimDuration::from_micros(10);
            t.send(now, 0, 0, black_box(&seg));
            black_box(t.poll_recv(now).expect("frame crossed"));
        })
    });
    l.probe("live.duplex.virtual_bytes_per_s", || {
        let size = 64 * MIB;
        let s = median_s(3, || {
            let (_, reactor) = scripted_transfer(PROBE_SEED, size, |t| t);
            assert_eq!(reactor.workers[0].conn.bytes_delivered(), size);
        });
        size as f64 / s
    });
}

fn expr_scenario_faults(l: &mut Ledger, failures: &mut Vec<String>) {
    for (name, scenario, strategy) in [
        (
            "expr.host.tcp_wifi_4mb_ms",
            Scenario::static_good_wifi as fn() -> Scenario,
            Strategy::TcpWifi,
        ),
        (
            "expr.host.emptcp_4mb_ms",
            Scenario::static_bad_wifi,
            Strategy::emptcp_default(),
        ),
    ] {
        l.probe(name, || {
            median_s(5, || {
                let mut s = scenario();
                s.workload = Workload::Download { size: 4 * MIB };
                black_box(host::run(s, strategy, PROBE_SEED));
            }) * 1e3
        });
    }
    l.probe("scenario.parse_us", || {
        use emptcp_scenario::{corpus, io};
        let texts = [
            corpus::raw("ap-vanish").expect("corpus entry"),
            corpus::raw("fleet-contended").expect("corpus entry"),
        ];
        let mut flip = 0;
        per_call_ns(2_000, || {
            flip ^= 1;
            black_box(io::from_json_str(black_box(texts[flip])).expect("corpus parses"));
        }) / 1e3
    });
    // A correctness check as much as a cost: every committed scenario
    // has to certify.
    l.probe("faults.corpus_replay_s", || {
        let start = Instant::now();
        let reports = emptcp_expr::runner::Runner::serial()
            .install(|| chaos::replay_corpus(None))
            .expect("no output directory to fail on");
        for r in reports.iter().filter(|r| !r.ok()) {
            failures.push(format!("corpus scenario {} did not certify", r.scenario));
        }
        if reports.len() != emptcp_scenario::corpus::names().len() || reports.is_empty() {
            failures.push(format!("corpus replay ran {} scenarios", reports.len()));
        }
        start.elapsed().as_secs_f64()
    });
}

/// Run every probe. Returns the figures by metric name and the output
/// checks that failed.
pub fn run_all(tracer: &mut Tracer) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut failures = Vec::new();
    let mut l = Ledger {
        out: BTreeMap::new(),
        tracer,
    };
    sim(&mut l);
    tcp(&mut l);
    mptcp(&mut l);
    core_and_energy(&mut l);
    phy_and_net(&mut l);
    telemetry_and_obsv(&mut l);
    live(&mut l);
    expr_scenario_faults(&mut l, &mut failures);
    (l.out, failures)
}
