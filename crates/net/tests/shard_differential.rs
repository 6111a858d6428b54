//! Differential certification of the sharded fleet engine.
//!
//! The single-shard run *is* the reference: `shards == 1` exercises the
//! identical epoch, barrier and canonical-key machinery, so any
//! divergence at higher shard counts is a partitioning bug by
//! construction. These tests pin, at corpus scale:
//!
//! * byte-identical `FleetReport` JSON for shards ∈ {1, 2, 4, 8};
//! * identical trace streams (every record, in order) through the outer
//!   telemetry pipeline, with the shard pipelines' invariant observers on;
//! * identical results from a serial executor, a thread-per-shard
//!   executor and the engine's own persistent workers at any thread count
//!   (the `--jobs` axis);
//! * all of the above under a fault plan whose actions land mid-epoch and
//!   whose effects cross shard boundaries;
//! * the same properties over arbitrary valid configs (proptest).

use emptcp_faults::{plan, FaultSpec, FaultTarget};
use emptcp_net::{
    lookahead, FleetConfig, FleetReport, SerialExecutor, ShardExecutor, ShardedFleetSim,
};
use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::{Telemetry, TraceEvent, TraceSink};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Records every trace event the outer pipeline emits.
#[derive(Default)]
struct Capture(Vec<(SimTime, TraceEvent)>);

impl TraceSink for Capture {
    fn record(&mut self, t: SimTime, event: &TraceEvent) {
        self.0.push((t, event.clone()));
    }
}

/// A deliberately hostile executor: every shard closure on its own OS
/// thread, all barriers left to the engine.
struct ThreadExecutor;

impl ShardExecutor for ThreadExecutor {
    fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|s| {
            for i in 0..n {
                s.spawn(move || f(i));
            }
        });
    }
}

struct RunOutput {
    report_json: String,
    delivered: Vec<u64>,
    trace: Vec<(SimTime, TraceEvent)>,
}

fn run(
    cfg: &FleetConfig,
    shards: usize,
    faults: &[FaultSpec],
    exec: &dyn ShardExecutor,
) -> RunOutput {
    run_by(cfg, shards, faults, |sim| sim.run_with(exec))
}

fn run_by(
    cfg: &FleetConfig,
    shards: usize,
    faults: &[FaultSpec],
    drive: impl FnOnce(&mut ShardedFleetSim) -> FleetReport,
) -> RunOutput {
    let tap = Arc::new(Mutex::new(Capture::default()));
    let telemetry = Telemetry::builder()
        .sink(Box::new(tap.clone()))
        .invariants(true)
        .build();
    let mut sim = ShardedFleetSim::new_with_telemetry(cfg.clone(), shards, telemetry.clone());
    sim.attach_faults(faults);
    let report = drive(&mut sim);
    assert_eq!(telemetry.violations(), [], "online invariant violated");
    let trace = std::mem::take(&mut tap.lock().expect("tap").0);
    RunOutput {
        report_json: serde_json::to_string(&report).expect("report serializes"),
        delivered: sim.per_client_delivered(),
        trace,
    }
}

fn base_config(clients: usize, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::contended(clients, seed);
    cfg.duration = SimDuration::from_secs(2);
    cfg.bottleneck.rate_bps = 20_000_000;
    cfg.cross_sources = 1;
    cfg
}

/// A base config whose lookahead epoch (0.9 ms: one access link sped
/// up) does not divide a whole millisecond, so a fault plan's instants
/// can land mid-epoch.
fn fault_config(clients: usize, seed: u64) -> FleetConfig {
    let mut cfg = base_config(clients, seed);
    cfg.access_a.prop_delay = SimDuration::from_micros(900);
    cfg
}

fn boundary_crossing_plan(cfg: &FleetConfig) -> Vec<FaultSpec> {
    // Rate collapse with a staged recovery plus an RTT spike, all landing
    // at times that are not multiples of the lookahead epoch, so
    // applications happen mid-epoch and their consequences propagate
    // across shard boundaries.
    let plan = vec![
        FaultSpec::BandwidthCollapse {
            target: FaultTarget::Core,
            from_ms: 301,
            hold_ms: 400,
            collapsed_bps: 2_000_000,
            ramp_bps: vec![8_000_000],
            step_ms: 250,
        },
        FaultSpec::RttSpike {
            target: FaultTarget::Core,
            from_ms: 1_201,
            dur_ms: 300,
            extra_ms: 20,
        },
    ];
    let epoch = lookahead(cfg).as_nanos();
    for e in plan::expand(&plan) {
        assert_ne!(e.at.as_nanos() % epoch, 0, "{:?} opens an epoch", e.at);
    }
    plan
}

#[test]
fn reports_and_traces_are_byte_identical_across_shard_counts() {
    let cfg = base_config(9, 0xD1FF);
    let reference = run(&cfg, 1, &[], &SerialExecutor);
    assert!(
        !reference.trace.is_empty(),
        "reference run produced no trace"
    );
    for shards in [2, 4, 8] {
        let got = run(&cfg, shards, &[], &SerialExecutor);
        assert_eq!(
            got.report_json, reference.report_json,
            "report diverged at {shards} shards"
        );
        assert_eq!(
            got.delivered, reference.delivered,
            "per-client delivered bytes diverged at {shards} shards"
        );
        assert_eq!(
            got.trace, reference.trace,
            "trace diverged at {shards} shards"
        );
    }
}

#[test]
fn fault_plans_crossing_shard_boundaries_stay_identical() {
    let cfg = fault_config(8, 0xFA17);
    let plan = boundary_crossing_plan(&cfg);
    let reference = run(&cfg, 1, &plan, &SerialExecutor);
    let report: serde_json::Value =
        serde_json::from_str(&reference.report_json).expect("report parses");
    let faults = report["faults_injected"].as_f64().expect("faults field");
    assert!(faults >= 2.0, "plan only applied {faults} actions");
    for shards in [2, 4, 8] {
        let got = run(&cfg, shards, &plan, &SerialExecutor);
        assert_eq!(
            got.report_json, reference.report_json,
            "faulted report diverged at {shards} shards"
        );
        assert_eq!(
            got.trace, reference.trace,
            "faulted trace diverged at {shards} shards"
        );
    }
}

#[test]
fn threaded_runs_match_the_serial_executor() {
    let cfg = fault_config(8, 0x10B5);
    let plan = boundary_crossing_plan(&cfg);
    for shards in [1, 2, 4, 8] {
        let serial = run(&cfg, shards, &plan, &SerialExecutor);
        // A thread per shard closure, then the engine's own workers on
        // two threads, one per task of an epoch, and more than that
        // (clamped to it).
        let thread_per_shard = run(&cfg, shards, &plan, &ThreadExecutor);
        let mut threaded = vec![("thread-per-shard".to_string(), thread_per_shard)];
        for threads in [2, shards + 1, shards + 3] {
            let got = run_by(&cfg, shards, &plan, |sim| sim.run_on(threads));
            threaded.push((format!("run_on({threads})"), got));
        }
        for (how, got) in threaded {
            assert_eq!(
                got.report_json, serial.report_json,
                "{how} report diverged at {shards} shards"
            );
            assert_eq!(
                got.delivered, serial.delivered,
                "{how} delivered bytes diverged at {shards} shards"
            );
            assert_eq!(
                got.trace, serial.trace,
                "{how} trace diverged at {shards} shards"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary valid configs: any partition of any population must be
    /// invisible in the report, the delivered bytes, and the trace.
    #[test]
    fn arbitrary_configs_are_partition_invariant(
        clients in 1usize..10,
        mptcp_every in 0usize..4,
        duration_ms in 100u64..400,
        cross in 0usize..2,
        access_prop_us in 200u64..3000,
        bottleneck_prop_us in 500u64..12_000,
        coupled in 0u64..2,
        with_faults in 0u64..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut cfg = FleetConfig::contended(clients, seed);
        cfg.mptcp_every = mptcp_every;
        cfg.coupled = coupled == 1;
        cfg.duration = SimDuration::from_millis(duration_ms);
        cfg.cross_sources = cross;
        cfg.bottleneck.rate_bps = 15_000_000;
        cfg.bottleneck.prop_delay = SimDuration::from_micros(bottleneck_prop_us);
        cfg.access_a.prop_delay = SimDuration::from_micros(access_prop_us);
        cfg.access_b.prop_delay = SimDuration::from_micros(access_prop_us * 3);
        let plan: Vec<FaultSpec> = (with_faults == 1)
            .then(|| FaultSpec::BandwidthCollapse {
                target: FaultTarget::Core,
                from_ms: duration_ms / 4,
                hold_ms: duration_ms / 4,
                collapsed_bps: 1_000_000,
                ramp_bps: Vec::new(),
                step_ms: 10,
            })
            .into_iter()
            .collect();
        let reference = run(&cfg, 1, &plan, &SerialExecutor);
        for shards in [2usize, 4, 8] {
            let got = run(&cfg, shards, &plan, &SerialExecutor);
            prop_assert_eq!(
                &got.report_json, &reference.report_json,
                "report diverged at {} shards", shards
            );
            prop_assert_eq!(
                &got.delivered, &reference.delivered,
                "delivered diverged at {} shards", shards
            );
            prop_assert_eq!(
                &got.trace, &reference.trace,
                "trace diverged at {} shards", shards
            );
        }
    }
}
