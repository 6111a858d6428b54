//! The observability pipeline's determinism contract, end to end:
//!
//! 1. a live fleet run with the streaming tap + a JSONL recording,
//! 2. a replay of that recording through a fresh pipeline,
//! 3. a second replay,
//!
//! must all export byte-identical time-series JSON and CSV. This is the
//! in-process version of the CI gate (`repro monitor --record` followed by
//! `simulate monitor --replay --check` twice, diffing the exports).

use emptcp_expr::monitor::{run_live, run_replay, LiveOptions, ReplayOptions};
use emptcp_net::{FleetConfig, ShardedFleetSim};
use emptcp_obsv::{export_csv, export_json, replay, Pipeline, PipelineConfig, PipelineSink};
use emptcp_sim::SimDuration;
use emptcp_telemetry::{MemorySink, TeeSink, Telemetry, TraceSink};
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn fleet_cfg(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::contended(6, seed);
    cfg.duration = SimDuration::from_secs(2);
    cfg
}

/// Run a small fleet with both a memory recording and the live pipeline
/// attached, exactly as `repro monitor --record` wires them.
fn live_run(seed: u64) -> (String, Pipeline) {
    let record = Arc::new(Mutex::new(MemorySink::new()));
    let pipeline = Arc::new(Mutex::new(Pipeline::new(PipelineConfig::default())));
    let tap: Box<dyn TraceSink> = Box::new(TeeSink::new(vec![
        Box::new(Arc::clone(&record)),
        Box::new(PipelineSink::new(Arc::clone(&pipeline))),
    ]));
    let telemetry = Telemetry::builder().invariants(true).sink(tap).build();
    ShardedFleetSim::new_with_telemetry(fleet_cfg(seed), 1, telemetry.clone()).run();
    telemetry.flush().expect("flush");
    let jsonl = record.lock().unwrap().to_jsonl();
    let state = pipeline.lock().unwrap().clone();
    (jsonl, state)
}

#[test]
fn live_and_replay_exports_are_byte_identical() {
    let (jsonl, live) = live_run(7);
    assert!(live.events > 0, "fleet run must emit trace events");
    assert!(live.delivered_total > 0, "Delivered events must flow");

    let mut replayed = Pipeline::new(PipelineConfig::default());
    let stats = replay(BufReader::new(jsonl.as_bytes()), &mut replayed).expect("replay");
    assert!(
        stats.is_clean(),
        "recorded trace must parse: {:?}",
        stats.errors
    );
    assert_eq!(stats.events, live.events);

    assert_eq!(export_json(&live), export_json(&replayed));
    assert_eq!(export_csv(&live), export_csv(&replayed));

    // Replaying the same bytes twice is also identical (the CI gate).
    let mut again = Pipeline::new(PipelineConfig::default());
    replay(BufReader::new(jsonl.as_bytes()), &mut again).expect("replay");
    assert_eq!(export_json(&replayed), export_json(&again));
}

#[test]
fn same_seed_same_trace_different_seed_different_trace() {
    let (a, _) = live_run(7);
    let (b, _) = live_run(7);
    assert_eq!(a, b, "same seed must record byte-identical traces");
    let (c, _) = live_run(8);
    assert_ne!(a, c, "different seed should perturb the trace");
}

#[test]
fn monitor_cli_paths_round_trip_through_files() {
    let dir = std::env::temp_dir().join(format!("emptcp-monitor-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("fleet.trace.jsonl");
    let json_live = dir.join("live.json");
    let csv_live = dir.join("live.csv");
    let json_replay = dir.join("replay.json");
    let csv_replay = dir.join("replay.csv");

    let live = LiveOptions {
        clients: 6,
        seed: 11,
        duration_s: 1.5,
        record: Some(trace.clone()),
        export_json: Some(json_live.clone()),
        export_csv: Some(csv_live.clone()),
        quiet: true,
    };
    run_live(&live).expect("live run");

    let replay_opts = ReplayOptions {
        trace: trace.clone(),
        check: true,
        export_json: Some(json_replay.clone()),
        export_csv: Some(csv_replay.clone()),
        quiet: true,
    };
    let code = run_replay(&replay_opts).expect("replay run");
    assert_eq!(code, 0, "recorded trace must replay cleanly");

    let read = |p: &PathBuf| std::fs::read(p).expect("export file");
    assert_eq!(read(&json_live), read(&json_replay));
    assert_eq!(read(&csv_live), read(&csv_replay));
    assert!(!read(&json_live).is_empty());

    std::fs::remove_dir_all(&dir).ok();
}
