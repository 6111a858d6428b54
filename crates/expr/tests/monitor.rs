//! The observability pipeline's determinism contract, end to end:
//!
//! 1. a live fleet run with the streaming tap + a JSONL recording,
//! 2. a read of that recording through a fresh pipeline,
//! 3. a second read,
//!
//! must all export byte-identical time-series JSON and CSV. This is the
//! in-process version of the CI gate (`repro monitor --record` followed by
//! `repro monitor --follow … --idle-timeout-s 0` twice, diffing the
//! exports).
//!
//! The trace source follows a file as it grows, so the rest of this file
//! writes recordings the way a producer does — late, in pieces, cut short,
//! with a blank or a garbage line — and checks that the monitor reads them
//! to the same exports, reports what it could not read and never hangs.

use emptcp_expr::monitor::{monitor, MonitorOptions, Source};
use emptcp_net::{FleetConfig, ShardedFleetSim};
use emptcp_obsv::{export_csv, export_json, replay, Pipeline, PipelineConfig, PipelineSink};
use emptcp_sim::SimDuration;
use emptcp_telemetry::{MemorySink, TeeSink, Telemetry, TraceSink};
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

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

/// A scratch directory of the test's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emptcp-monitor-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("export file")
}

/// What a fleet source recorded and exported, made once for every test.
struct Recording {
    trace: Vec<u8>,
    json: Vec<u8>,
    csv: Vec<u8>,
}

fn recording() -> &'static Recording {
    static ONCE: OnceLock<Recording> = OnceLock::new();
    ONCE.get_or_init(|| {
        let dir = scratch("fleet");
        let (trace, json, csv) = (
            dir.join("fleet.trace.jsonl"),
            dir.join("live.json"),
            dir.join("live.csv"),
        );
        let faults = monitor(&MonitorOptions {
            source: Source::Fleet {
                clients: 6,
                seed: 11,
                duration_s: 1.5,
                record: Some(trace.clone()),
            },
            export_json: Some(json.clone()),
            export_csv: Some(csv.clone()),
            quiet: true,
        })
        .expect("fleet source runs");
        assert_eq!(faults, 0, "the fleet broke no invariant");
        let rec = Recording {
            trace: read(&trace),
            json: read(&json),
            csv: read(&csv),
        };
        assert!(!rec.json.is_empty() && rec.trace.ends_with(b"\n"));
        std::fs::remove_dir_all(&dir).ok();
        rec
    })
}

/// Read `path` as a trace source into exports under `dir`, on a thread
/// of its own: a reader that never returns fails the test after
/// `deadline` instead of hanging it.
fn read_trace(dir: &Path, path: &Path, idle_timeout_s: f64, deadline: Duration) -> usize {
    let opts = MonitorOptions {
        source: Source::Trace {
            path: path.to_path_buf(),
            idle_timeout_s,
        },
        export_json: Some(dir.join("read.json")),
        export_csv: Some(dir.join("read.csv")),
        quiet: true,
    };
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let _ = tx.send(monitor(&opts));
    });
    match rx.recv_timeout(deadline) {
        Ok(faults) => {
            reader.join().expect("the reader thread ends");
            faults.expect("the trace reads")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(reader.join().expect_err("the reader panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the trace source did not return within {deadline:?}")
        }
    }
}

/// The exports under `dir` are the fleet source's, byte for byte.
fn assert_live_exports(dir: &Path) {
    let rec = recording();
    assert!(
        read(&dir.join("read.json")) == rec.json,
        "JSON export moved"
    );
    assert!(read(&dir.join("read.csv")) == rec.csv, "CSV export moved");
}

#[test]
fn monitor_cli_paths_round_trip_through_files() {
    let dir = scratch("round-trip");
    let trace = dir.join("fleet.trace.jsonl");
    std::fs::write(&trace, &recording().trace).expect("write trace");
    for _ in 0..2 {
        let faults = read_trace(&dir, &trace, 0.0, Duration::from_secs(60));
        assert_eq!(faults, 0, "the recording reads cleanly");
        assert_live_exports(&dir);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_trace_created_after_the_monitor_starts_is_read() {
    let dir = scratch("late");
    let trace = dir.join("late.jsonl");
    let bytes = recording().trace.clone();
    let writer = {
        let trace = trace.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(500));
            std::fs::write(&trace, bytes).expect("write trace");
        })
    };
    let faults = read_trace(&dir, &trace, 2.0, Duration::from_secs(60));
    writer.join().unwrap();
    assert_eq!(faults, 0);
    assert_live_exports(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_final_line_completed_after_a_pause_is_read_whole() {
    let dir = scratch("pause");
    let trace = dir.join("pause.jsonl");
    let bytes = &recording().trace;
    // Cut mid-way through the last line, as a producer flushing its
    // buffer leaves it.
    let cut = bytes.len() - 20;
    std::fs::write(&trace, &bytes[..cut]).expect("write head");
    let tail = bytes[cut..].to_vec();
    let writer = {
        let trace = trace.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            let mut file = std::fs::OpenOptions::new().append(true).open(&trace);
            file.as_mut().unwrap().write_all(&tail).expect("write tail");
        })
    };
    let faults = read_trace(&dir, &trace, 2.0, Duration::from_secs(60));
    writer.join().unwrap();
    assert_eq!(faults, 0, "the completed line parses");
    assert_live_exports(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_final_line_never_completed_returns_within_the_idle_timeout() {
    let dir = scratch("unfinished");
    let trace = dir.join("unfinished.jsonl");
    // A producer killed before its last newline: the event is whole.
    let bytes = &recording().trace;
    std::fs::write(&trace, &bytes[..bytes.len() - 1]).expect("write trace");
    let idle = 0.3;
    let started = Instant::now();
    let faults = read_trace(&dir, &trace, idle, Duration::from_secs(10));
    let took = started.elapsed().as_secs_f64();
    assert!(took < idle + 1.0, "took {took:.2} s");
    assert_eq!(faults, 0, "the last event is read");
    assert_live_exports(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_blank_line_is_skipped_and_a_malformed_one_reported_by_number() {
    let dir = scratch("malformed");
    let trace = dir.join("malformed.jsonl");
    let mut bytes = recording().trace.clone();
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    bytes.extend_from_slice(b"\ngarbage\n");
    std::fs::write(&trace, &bytes).expect("write trace");

    let faults = read_trace(&dir, &trace, 0.0, Duration::from_secs(60));
    assert_eq!(faults, 1, "the blank line is no fault");
    assert_live_exports(&dir);

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["monitor", "--quiet", "--idle-timeout-s", "0", "--follow"])
        .arg(&trace)
        .arg("--export-json")
        .arg(dir.join("read.json"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let garbage_at = format!("{}:{}: ", trace.display(), lines + 2);
    assert!(stderr.contains(&garbage_at), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(read(&dir.join("read.json")) == recording().json);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fleet_flag_beside_follow_is_a_usage_error() {
    let dir = scratch("fleet-flag");
    let trace = dir.join("empty.jsonl");
    std::fs::write(&trace, b"").expect("write trace");
    let record = dir.join("never.jsonl");
    let record_arg = record.to_string_lossy().into_owned();
    for (flag, value) in [
        ("--clients", "8"),
        ("--seed", "3"),
        ("--duration-s", "1"),
        ("--record", record_arg.as_str()),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["monitor", "--quiet", "--idle-timeout-s", "0", "--follow"])
            .arg(&trace)
            .args([flag, value])
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
        assert!(stderr.starts_with(&format!("error: {flag}: ")), "{stderr}");
    }
    assert!(!record.exists(), "--record beside --follow wrote a file");
    std::fs::remove_dir_all(&dir).ok();
}
