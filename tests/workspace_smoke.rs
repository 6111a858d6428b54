//! Workspace smoke: reduced cases of the workspace suites' load-bearing
//! contracts, in the root package so the tier-1 command (`cargo test -q`)
//! exercises them — one fleet engine whose output is invariant under the
//! shard count and the thread count and pinned byte for byte, one pair
//! pump whose two transports agree event for event, a chaos corpus that
//! certifies, a scenario file that says a changing environment or the
//! recovery it must show, a monitor tap that streams, stacks that cannot
//! tell how often they are polled or swept, two event queues that pop like
//! their sorted-`Vec` reference, a live transfer that loses nothing to its
//! own socket buffers, exhibits that cannot tell which of them simulated a
//! run they share, a sender that cuts no runts, one fault plan that
//! fires at its own instants on all three drivers, host interfaces that
//! take every fault in both directions, and a fleet whose core-fed lanes
//! keep the canonical order through a core rate rise.

use emptcp_faults::testnet::ChaosPath;
use emptcp_faults::{plan, FaultSpec, FaultTarget};
use emptcp_live::{certify, MpChaosRig, ParityScript};
use emptcp_net::{FleetConfig, SerialExecutor, ShardExecutor, ShardedFleetSim};
use emptcp_obsv::{Pipeline, PipelineConfig, PipelineSink};
use emptcp_repro::expr::chaos;
use emptcp_repro::sim::{SimDuration, SimTime};
use emptcp_telemetry::{MemorySink, Telemetry, TraceEvent};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[path = "../crates/mptcp/tests/cadence/rig.rs"]
mod cadence_rig;
#[path = "../crates/net/tests/drain_golden/rig.rs"]
mod drain_golden_rig;
#[path = "../crates/sim/tests/event_queue_model/model.rs"]
mod event_queue_model;
#[path = "../crates/expr/tests/fault_state/rig.rs"]
mod fault_state_rig;
#[path = "../crates/mptcp/tests/mapping_model/model.rs"]
mod mapping_model;
#[path = "../crates/tcp/tests/ranges_model/model.rs"]
mod ranges_model;
#[path = "../crates/expr/tests/parallel_determinism/rig.rs"]
mod replay_rig;
#[path = "../crates/live/tests/udp_smoke/rig.rs"]
mod udp_rig;

fn small_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::contended(6, 7);
    cfg.duration = SimDuration::from_millis(600);
    cfg.bottleneck.rate_bps = 20_000_000;
    cfg
}

/// Reduced case of `drain_golden` in `emptcp-net`: the contended fleet (6
/// clients, 2 s) delivers the pinned bytes per client and records the
/// pinned trace, at one shard and at four.
#[test]
fn the_shard_engine_matches_its_drain_goldens() {
    drain_golden_rig::contended_matches_goldens();
}

#[test]
fn shard_count_is_invisible_with_tracing_and_invariants_on() {
    let run = |shards: usize| {
        let record = Arc::new(Mutex::new(MemorySink::new()));
        let telemetry = Telemetry::builder()
            .sink(Box::new(Arc::clone(&record)))
            .invariants(true)
            .build();
        let mut sim = ShardedFleetSim::new_with_telemetry(small_fleet(), shards, telemetry.clone());
        let report = serde_json::to_string(&sim.run()).expect("report serializes");
        assert_eq!(telemetry.violations(), [], "online invariant violated");
        let trace = record.lock().unwrap().to_jsonl();
        (report, sim.per_client_delivered(), trace)
    };
    let reference = run(1);
    assert!(reference.1.iter().all(|&bytes| bytes > 0), "{reference:?}");
    assert!(!reference.2.is_empty(), "reference run recorded no trace");
    assert_eq!(run(4), reference);
}

#[test]
fn a_faulted_script_is_event_for_event_identical_over_both_transports() {
    let mut script = ParityScript::two_path(1234, 256 * 1024);
    script.faults = vec![FaultSpec::Blackout {
        target: FaultTarget::Wifi,
        from_ms: 150,
        dur_ms: 400,
    }];
    let report = certify(&script).unwrap_or_else(|diff| panic!("parity broken:\n{diff}"));
    assert_eq!(report.delivered, 256 * 1024);
    assert!(
        report.delivered_cellular > 0,
        "cellular rode out the blackout"
    );
}

#[test]
fn the_committed_corpus_certifies() {
    let reports = chaos::replay_corpus(None).expect("corpus replays");
    assert!(!reports.is_empty());
    for report in &reports {
        assert!(report.ok(), "{}: {:?}", report.scenario, report.violations);
    }
}

/// A `.scenario` file's host world is the experiment itself, so it can say
/// an environment that changes under the transfer: §4.3's modulated AP,
/// loaded from text, run as written and judged by the same oracles.
#[test]
fn a_scenario_file_can_say_a_changing_environment() {
    use emptcp_repro::expr::scenario::WifiEnvironment;
    let text = include_str!("../scenarios/bandwidth-flips.scenario").replace("8388608", "1048576");
    let sc = emptcp_scenario::io::from_json_str(&text).expect("the file loads");
    let emptcp_scenario::World::Host { scenario, .. } = &sc.world else {
        panic!("bandwidth-flips is a host world");
    };
    assert!(matches!(scenario.wifi, WifiEnvironment::Modulated { .. }));
    let report = chaos::run_scenario(&sc, None).expect("a valid scenario runs");
    assert!(report.ok(), "{:?}", report.violations);
    assert_eq!(report.bytes_delivered, 1 << 20);
}

/// Reduced case of `emptcp-expr`'s `tests/faults.rs`: a file says what
/// recovery its run must show, the judge measures it against the same
/// seed's fault-free run, and a bound the run does not beat fails the
/// `expectation` oracle with the evidence.
#[test]
fn a_scenario_file_says_what_recovery_it_must_show() {
    let said = r#""expect": []"#;
    let text = include_str!("../scenarios/elevator-ride.scenario");
    assert!(text.contains(said), "elevator-ride no longer says {said}");
    let expecting = |revivals: f64| {
        let bounds = format!(
            r#""expect": [{{"measure": "LinkDownEvents", "above": 0.0}},
                {{"measure": "SubflowRevivals", "above": {revivals:?}}},
                {{"measure": "GoodputRetained", "above": 0.25}}]"#
        );
        let sc = emptcp_scenario::io::from_json_str(&text.replace(said, &bounds))
            .expect("the file loads");
        chaos::run_scenario(&sc, None).expect("a valid scenario runs")
    };
    let met = expecting(0.0);
    assert!(met.ok(), "{:?}", met.violations);
    let kept = met.resilience.map(|r| r.goodput_retained);
    assert!(kept.is_some_and(|k| k > 0.25 && k < 1.0), "{kept:?}");
    let [missed] = &expecting(5.0).violations[..] else {
        panic!("one oracle must fail");
    };
    assert_eq!(missed.oracle, "expectation");
    assert!(missed.detail.contains("subflow_revivals must exceed 5"));
}

/// Counts the epochs the engine has executed so far (every epoch is one
/// `run_indexed` call), so a sink can tell how far along the run is.
struct EpochCounter(Arc<AtomicUsize>);

impl ShardExecutor for EpochCounter {
    fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        self.0.fetch_add(1, Ordering::Relaxed);
        SerialExecutor.run_indexed(n, f);
    }
}

#[test]
fn a_pipeline_tap_streams_while_the_fleet_is_still_running() {
    let epochs = Arc::new(AtomicUsize::new(0));
    let seen_at = Arc::new(Mutex::new(Vec::new()));
    let pipeline = Arc::new(Mutex::new(Pipeline::new(PipelineConfig::default())));
    let sink = PipelineSink::new(Arc::clone(&pipeline)).with_observer({
        let (epochs, seen_at) = (Arc::clone(&epochs), Arc::clone(&seen_at));
        Box::new(move |_| seen_at.lock().unwrap().push(epochs.load(Ordering::Relaxed)))
    });
    let telemetry = Telemetry::builder().sink(Box::new(sink)).build();
    let mut sim = ShardedFleetSim::new_with_telemetry(small_fleet(), 2, telemetry);
    sim.run_with(&EpochCounter(Arc::clone(&epochs)));
    let total = epochs.load(Ordering::Relaxed);
    let seen_at = seen_at.lock().unwrap();
    // The observer fires on every aggregation-bin advance. Were the trace
    // merged at end of run, every firing would see the final epoch count.
    assert!(
        seen_at.len() > 1,
        "observer fired {} time(s)",
        seen_at.len()
    );
    assert!(
        seen_at[1] < total / 2,
        "second bin only surfaced at epoch {} of {total}",
        seen_at[1]
    );
    assert!(pipeline.lock().unwrap().events > 0);
}

/// Reduced case of the `cadence` proptests in `emptcp-tcp`/`emptcp-mptcp`,
/// the driver contract: every `None` poll and every `on_deadline` with
/// nothing due leaves the connection `Debug`-identical, no due deadline
/// survives its sweep, and extra polls and sweeps at arbitrary instants
/// change no segment, instant or window. (Seed 7 reaches a stall that
/// expires with nobody able to carry it.)
/// `repro monitor --clients 0` (or a zero, negative or oversized run)
/// asks for a fleet the engine cannot hold: the monitor hands back an
/// `InvalidInput` error, which the binary prints as one usage line, and
/// leaves no empty recording behind.
#[test]
fn a_fleet_the_monitor_cannot_hold_is_an_error_not_a_panic() {
    use emptcp_repro::expr::monitor::{monitor, MonitorOptions, Source};
    let record = std::env::temp_dir().join(format!("emptcp-unheld-{}.jsonl", std::process::id()));
    for (clients, duration_s) in [(0, 1.0), (4, 0.0), (4, -1.0), (2_000_000_000, 1.0)] {
        let opts = MonitorOptions {
            source: Source::Fleet {
                clients,
                seed: 1,
                duration_s,
                record: Some(record.clone()),
            },
            export_json: None,
            export_csv: None,
            quiet: true,
        };
        let err = monitor(&opts).expect_err("no fleet runs");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{clients} clients for {duration_s} s: {err}"
        );
        assert!(!record.exists(), "{clients} clients for {duration_s} s");
    }
}

#[test]
fn polling_at_any_cadence_changes_nothing() {
    for seed in [7, 1406] {
        let twin = cadence_rig::run(seed, 0.03, 8, false);
        assert!(!twin.is_empty());
        assert_eq!(cadence_rig::run(seed, 0.03, 8, true), twin);
    }
}

/// Reduced cases of the `mapping_model` proptests in `emptcp-mptcp`: the
/// run-length DSS tables and the coalesced reorder set answer exactly as
/// the per-push, per-segment and per-byte tables they replaced, in a
/// fraction of the entries.
#[test]
fn run_length_mappings_answer_like_the_per_entry_tables() {
    for seed in [14, 1510] {
        let (pushes, tx_runs) = mapping_model::check_tx(seed, 400);
        let (learned, rx_runs) = mapping_model::check_rx(seed, 400);
        assert!(tx_runs * 2 < pushes && rx_runs * 2 < learned);
        mapping_model::check_reassembly(seed, 300);
    }
}

/// Reduced cases of the `ranges_model` proptest in `emptcp-tcp`: the flat
/// range set holds, counts, drains and walks exactly as the `BTreeMap`
/// it replaced, under every kind of insert.
#[test]
fn the_flat_range_set_holds_what_the_tree_held() {
    for seed in [35, 6356] {
        let (merges, pops) = ranges_model::check(seed, 400);
        assert!(
            merges > 0 && pops > 0,
            "seed {seed}: {merges} merges, {pops} pops"
        );
    }
}

/// Reduced cases of the `event_queue_model` proptests in `emptcp-sim`: the
/// slab-backed event queue and a sorted-`Vec` reference agree on every
/// pop, `len`, peek and clock reading, under schedule / cancel / pop
/// interleavings within a millisecond and across two 17.2 s spans.
#[test]
fn the_event_queue_pops_like_the_reference() {
    for (seed, horizon_ns) in [
        (15, 1_000_000),
        (1510, 2 * event_queue_model::WHEEL_SPAN_NS),
    ] {
        event_queue_model::check_interleavings(seed, 600, 3, horizon_ns);
    }
}

/// Reduced cases of the lane properties in `event_queue_model`: the host's
/// lane queue and the sorted-`Vec` reference agree on every pop, clock
/// reading and count of inserts ahead of a lane's tail, under
/// link-like traffic that reorders rarely and always; and a fleet client
/// shard's keyed lanes, popped merged with its keyed heap, agree with the
/// reference too.
#[test]
fn the_lane_queue_pops_like_the_reference() {
    for (seed, reorder_every) in [(36, 20), (1112, 1)] {
        let (ahead, replaces) = event_queue_model::check_lanes(seed, 800, reorder_every);
        assert!(
            ahead > 0 && replaces > 0,
            "seed {seed}: {ahead} inserts ahead, {replaces} replaces"
        );
        let (ahead, cancels) = event_queue_model::check_merged(seed, 800, reorder_every);
        assert!(
            ahead > 0 && cancels > 0,
            "seed {seed}: {ahead} inserts ahead, {cancels} cancels"
        );
    }
}

/// Reduced case of `udp_smoke` in `emptcp-live`: over real localhost
/// sockets the advertised window fits the kernel's receive buffer, so an
/// unshaped transfer times out on nothing, sends nothing twice, overflows
/// no socket, and arrives as one full-sized datagram per MSS of payload.
#[test]
fn a_live_transfer_loses_nothing_to_its_own_socket() {
    udp_rig::unshaped_transfer_loses_nothing(47370, 4 << 20);
}

/// Reduced case of the replay oracle in `emptcp-expr`'s
/// `parallel_determinism`: fig10's first cell repeats fig9's two runs,
/// which are simulated once for both, and both report — files, tables,
/// counters, violations — exactly what they report alone, on 1 job and
/// on 4.
#[test]
fn a_shared_run_replays_into_every_exhibit_that_asked() {
    let mut cfg = emptcp_expr::figures::Config::quick();
    cfg.bulk_size = 1 << 20;
    replay_rig::assert_shared_runs_invisible("smoke", &["fig9", "fig10"], cfg);
}

/// Reduced case of the whole-segment rule's unit tests in `emptcp-mptcp`
/// and `emptcp-tcp`: through enough loss to leave both congestion windows
/// a fraction of a segment over a whole number of them, the transfer
/// completes and neither the scheduler nor any endpoint ever filled that
/// fraction with a segment cut short of the MSS.
#[test]
fn a_fractional_window_is_never_spent_on_a_runt() {
    let total = 2 << 20;
    let mut rig = MpChaosRig::over(
        23,
        vec![
            ChaosPath::new(0.01, SimDuration::from_millis(12), 3),
            ChaosPath::new(0.01, SimDuration::from_millis(35), 3),
        ],
    );
    assert_eq!(rig.transfer(total), total);
    let server = rig.server();
    let (segments, runts) = server.subflows().iter().fold((0, 0), |(s, r), sf| {
        (s + sf.tcp.data_segments(), r + sf.tcp.runts())
    });
    let mss = u64::from(emptcp_tcp::segment::DEFAULT_MSS);
    assert!(segments >= total.div_ceil(mss), "{segments} data segments");
    assert_eq!((server.runt_chunks(), runts), (0, 0));
}

/// A telemetry pipeline recording into memory, and the records.
fn recorded() -> (Telemetry, Arc<Mutex<MemorySink>>) {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let telemetry = Telemetry::builder().sink(Box::new(sink.clone())).build();
    (telemetry, sink)
}

/// The instants at which `sink` saw a fault applied.
fn fault_instants(sink: &Mutex<MemorySink>) -> Vec<SimTime> {
    let records = &sink.lock().unwrap().records;
    let faults = records
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::FaultInjected { .. }));
    faults.map(|&(t, _)| t).collect()
}

/// One fault plan, off the 100 ms tick grid, through all three drivers:
/// the host simulation, the shard engine (which can only hit the core)
/// and the reactor rig. Every driver applies each fault at the instant
/// its spec expands to, and the host's WiFi subflow learns of the
/// blackout at 1.25 s, not at the next tick.
#[test]
fn a_fault_fires_at_its_instant_on_every_driver() {
    use emptcp_repro::expr::host::Simulation;
    use emptcp_repro::expr::scenario::{Scenario, Workload};
    use emptcp_repro::expr::Strategy;
    let blackout = FaultSpec::Blackout {
        target: FaultTarget::Wifi,
        from_ms: 1_250,
        dur_ms: 300,
    };
    let spike = FaultSpec::RttSpike {
        target: FaultTarget::Core,
        from_ms: 1_730,
        dur_ms: 200,
        extra_ms: 40,
    };
    let both = [blackout, spike.clone()];
    let instants = |specs: &[FaultSpec]| -> Vec<SimTime> {
        plan::expand(specs).iter().map(|e| e.at).collect()
    };
    let ms = SimTime::from_millis;
    assert_eq!(
        instants(&both),
        [ms(1_250), ms(1_550), ms(1_730), ms(1_930)]
    );

    // The host: an MPTCP download, whose run lasts through the cellular
    // tail and so past every instant of the plan.
    let (telemetry, sink) = recorded();
    let scenario = Scenario::static_good_wifi().with(Workload::Download { size: 4 << 20 });
    let mut sim = Simulation::new_with_telemetry(scenario, Strategy::Mptcp, 3, telemetry);
    sim.attach_faults(&both);
    let r = sim.run();
    assert_eq!(r.faults_injected, 4, "{r:?}");
    assert_eq!(fault_instants(&sink), instants(&both));
    let wifi_down = sink.lock().unwrap().records.iter().find_map(|(t, e)| {
        matches!(
            e,
            TraceEvent::SubflowClosed {
                subflow: 0,
                reason: "link_down",
                ..
            }
        )
        .then_some(*t)
    });
    assert_eq!(wifi_down, Some(ms(1_250)));

    // The shard engine: a small fleet, long enough for the spike.
    let (telemetry, sink) = recorded();
    let mut cfg = small_fleet();
    cfg.duration = SimDuration::from_secs(2);
    let mut fleet = ShardedFleetSim::new_with_telemetry(cfg, 1, telemetry);
    fleet.attach_faults(std::slice::from_ref(&spike));
    assert_eq!(fleet.run().faults_injected, 2);
    assert_eq!(
        fault_instants(&sink),
        instants(std::slice::from_ref(&spike))
    );

    // The reactor rig, its injector reporting into the pipeline it was
    // attached with; long paths keep a 1 MiB transfer in flight through
    // both.
    let (telemetry, sink) = recorded();
    let mut rig = MpChaosRig::over(
        5,
        vec![
            ChaosPath::new(0.0, SimDuration::from_millis(200), 0),
            ChaosPath::new(0.0, SimDuration::from_millis(250), 0),
        ],
    );
    rig.attach_faults(&both, &telemetry);
    let total = 1 << 20;
    assert_eq!(rig.transfer(total), total);
    assert!(rig.clock.now() > ms(1_930), "done at {:?}", rig.clock.now());
    assert_eq!(rig.stats().fault_events, 4);
    assert_eq!(fault_instants(&sink), instants(&both));
}

/// Reduced case of `fault_state` in `emptcp-expr`: fixed `(target,
/// action)` sequences leave each host path holding the `FaultState` a
/// shaped path given the same actions holds, and every host link, both
/// directions of both paths, runs at what the fault rule gives over its
/// own nominal.
#[test]
fn a_host_interface_takes_every_fault_both_ways() {
    use emptcp_faults::FaultAction::{ExtraDelay, IfaceDown, IfaceUp, Loss, Rate};
    use emptcp_repro::phy::LossModel;
    let (wifi, cell, core) = (FaultTarget::Wifi, FaultTarget::Cellular, FaultTarget::Core);
    let extra = |ms| ExtraDelay(Some(SimDuration::from_millis(ms)));
    let burst = Loss(Some(LossModel::GilbertElliott(fault_state_rig::GE)));
    let sequences: [&[_]; 3] = [
        &[
            (wifi, Rate(Some(2_000_000))),
            (wifi, IfaceDown),
            (wifi, IfaceUp),
            (wifi, Rate(None)),
        ],
        &[
            (cell, extra(150)),
            (core, IfaceDown),
            (cell, burst),
            (core, IfaceUp),
            (cell, ExtraDelay(None)),
            (cell, Loss(None)),
        ],
        &[
            (core, Rate(Some(0))),
            (wifi, Loss(Some(LossModel::Bernoulli(0.2)))),
            (wifi, IfaceDown),
            (core, Rate(None)),
            (wifi, extra(40)),
            (wifi, Loss(None)),
            (wifi, IfaceUp),
        ],
    ];
    for events in sequences {
        fault_state_rig::host_and_shaped_paths_agree(events);
    }
}

/// The shard engine on persistent workers: a faulted, traced fleet gives
/// the same report, delivered bytes, merged metrics and JSONL on any
/// number of threads, more than this machine has CPUs included, as it
/// does on the serial executor.
#[test]
fn the_fleet_runs_alike_on_any_thread_count() {
    let mut cfg = FleetConfig::contended(64, 11);
    cfg.duration = SimDuration::from_millis(1_500);
    cfg.bottleneck.rate_bps = 40_000_000;
    let plan = [
        FaultSpec::RttSpike {
            target: FaultTarget::Core,
            from_ms: 300,
            dur_ms: 400,
            extra_ms: 15,
        },
        FaultSpec::Blackout {
            target: FaultTarget::Core,
            from_ms: 900,
            dur_ms: 120,
        },
    ];
    let run = |threads: Option<usize>| {
        let record = Arc::new(Mutex::new(MemorySink::new()));
        let telemetry = Telemetry::builder()
            .sink(Box::new(Arc::clone(&record)))
            .invariants(true)
            .build();
        let mut sim = ShardedFleetSim::new_with_telemetry(cfg.clone(), 3, telemetry.clone());
        sim.attach_faults(&plan);
        let report = match threads {
            None => sim.run_with(&SerialExecutor),
            Some(threads) => sim.run_on(threads),
        };
        assert_eq!(telemetry.violations(), [], "online invariant violated");
        let report = serde_json::to_string(&report).expect("report serializes");
        let metrics = telemetry.metrics().expect("telemetry is on");
        let jsonl = record.lock().unwrap().to_jsonl();
        (report, sim.per_client_delivered(), metrics, jsonl)
    };
    let reference = run(None);
    let (report, delivered, _, jsonl) = &reference;
    assert!(report.contains("\"faults_injected\":4"), "{report}");
    assert!(delivered.iter().all(|&bytes| bytes > 0), "{delivered:?}");
    assert!(jsonl.contains("FaultInjected"));
    for threads in [1, 2, 4, 6] {
        assert!(
            run(Some(threads)) == reference,
            "{threads} threads diverged"
        );
    }
}

/// Core-fed hops ride per-shard lanes. A core bandwidth collapse and the
/// ramp back up let a later bottleneck hop overtake earlier ones, so the
/// lanes insert ahead of their tails; the report, the delivered bytes and
/// the JSONL are still the same at 1 and 3 shards, serial or on 2 and 4
/// threads. A fault-free fleet inserts nothing ahead.
#[test]
fn core_fed_hops_keep_the_canonical_order_through_a_rate_rise() {
    use emptcp_telemetry::shard_metric;
    let mut cfg = FleetConfig::contended(12, 5);
    cfg.duration = SimDuration::from_millis(2_500);
    cfg.bottleneck.rate_bps = 20_000_000;
    let collapse = FaultSpec::BandwidthCollapse {
        target: FaultTarget::Core,
        from_ms: 700,
        hold_ms: 400,
        collapsed_bps: 1_000_000,
        ramp_bps: vec![4_000_000, 10_000_000],
        step_ms: 250,
    };
    let run = |shards: usize, threads: Option<usize>, plan: &[FaultSpec]| {
        let record = Arc::new(Mutex::new(MemorySink::new()));
        let telemetry = Telemetry::builder()
            .sink(Box::new(Arc::clone(&record)))
            .invariants(true)
            .build();
        let mut sim = ShardedFleetSim::new_with_telemetry(cfg.clone(), shards, telemetry.clone());
        sim.attach_faults(plan);
        let report = match threads {
            None => sim.run_with(&SerialExecutor),
            Some(threads) => sim.run_on(threads),
        };
        assert_eq!(telemetry.violations(), [], "online invariant violated");
        let metrics = telemetry.metrics().expect("telemetry is on");
        let ahead: u64 = (0..sim.shards() as u32)
            .map(|sid| metrics.counter(&shard_metric(sid, "lane_inserted_ahead")))
            .sum();
        let report = serde_json::to_string(&report).expect("report serializes");
        let jsonl = record.lock().unwrap().to_jsonl();
        ((report, sim.per_client_delivered(), jsonl), ahead)
    };
    let plan = std::slice::from_ref(&collapse);
    let (reference, ahead) = run(1, None, plan);
    let (report, delivered, jsonl) = &reference;
    assert!(report.contains("\"faults_injected\":4"), "{report}");
    assert!(delivered.iter().all(|&bytes| bytes > 0), "{delivered:?}");
    assert!(jsonl.contains("FaultInjected"));
    assert!(ahead > 0, "the ramp reordered no bottleneck hop");
    for (shards, threads) in [(3, None), (3, Some(2)), (3, Some(4)), (1, Some(2))] {
        let (got, got_ahead) = run(shards, threads, plan);
        assert!(
            got == reference,
            "{shards} shards on {threads:?} threads diverged"
        );
        // Which hops share a lane depends on the partition, so the count
        // may too; that a rate rise makes some is what must hold.
        assert!(got_ahead > 0, "{shards} shards on {threads:?} threads");
    }
    assert_eq!(run(3, Some(2), &[]).1, 0, "a fault-free fleet reordered");
}
