//! Golden pin of the fleet drain path.
//!
//! A fixed-seed contended fleet run must deliver exactly the same bytes to
//! every client and record exactly the same trace — byte for byte — at
//! one shard and at four. Any behavioural drift in the queue merge order,
//! the drain loop, the ports or the barrier flush shows up here as a
//! changed byte count or a changed trace hash long before it would surface
//! as a subtle fairness or energy shift in an exhibit. The constants were
//! last re-captured when the sender stopped cutting runts (EXPERIMENTS.md,
//! "PR 23: whole segments", lists the old → new values and their causes).
//!
//! If this test fails after an intentional semantic change, re-capture with
//! `cargo test -p emptcp-net --test drain_golden -- --nocapture` and update
//! the constants together with a CHANGES.md note — never silently.

use emptcp_net::{FleetConfig, ShardedFleetSim};
use emptcp_sim::SimDuration;
use emptcp_telemetry::{MemorySink, Telemetry, TraceSink};
use std::sync::{Arc, Mutex};

struct Golden {
    per_client_bytes: Vec<u64>,
    trace_hash: u64,
    trace_lines: usize,
}

fn run_traced(cfg: FleetConfig, shards: usize) -> Golden {
    let record = Arc::new(Mutex::new(MemorySink::new()));
    let sink: Box<dyn TraceSink> = Box::new(Arc::clone(&record));
    let telemetry = Telemetry::builder().sink(sink).build();
    let mut sim = ShardedFleetSim::new_with_telemetry(cfg, shards, telemetry.clone());
    sim.run();
    telemetry.flush().expect("flush");
    let jsonl = record.lock().unwrap().to_jsonl();
    Golden {
        per_client_bytes: sim.per_client_delivered(),
        // FNV-1a over the rendered JSONL trace: sensitive to any
        // single-byte drift anywhere in the event stream.
        trace_hash: emptcp_sim::fnv1a(emptcp_sim::FNV_OFFSET, jsonl.as_bytes()),
        trace_lines: jsonl.lines().count(),
    }
}

/// The contended preset exercises every hot-path ingredient at once:
/// mixed TCP/MPTCP stacks, cross-traffic, queue drops + ECN marks at the
/// bottleneck, delayed-ack timers, and RTO re-arms.
fn contended_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::contended(6, 7);
    cfg.duration = SimDuration::from_secs(2);
    cfg
}

/// Run `cfg` at one shard and at four and hold both to the same pins.
fn assert_golden(label: &str, cfg: FleetConfig, bytes: &[u64], hash: u64, lines: usize) {
    for shards in [1, 4] {
        let g = run_traced(cfg.clone(), shards);
        println!("{label} per_client_bytes = {:?}", g.per_client_bytes);
        println!(
            "{label} trace_hash = {:#018x} lines = {}",
            g.trace_hash, g.trace_lines
        );
        assert_eq!(
            g.per_client_bytes, bytes,
            "{label}: per-client delivered bytes drifted at {shards} shard(s)"
        );
        assert_eq!(
            g.trace_hash, hash,
            "{label}: trace hash drifted at {shards} shard(s)"
        );
        assert_eq!(
            g.trace_lines, lines,
            "{label}: trace line count drifted at {shards} shard(s)"
        );
    }
}

#[test]
fn contended_fleet_drain_path_matches_goldens() {
    assert_golden(
        "contended",
        contended_cfg(),
        &[
            2_980_236, 3_928_428, 5_146_512, 2_249_100, 2_691_780, 3_541_440,
        ],
        0x48d6_562d_b0fc_3d47,
        16_468,
    );
}

/// The do-no-harm cell runs the fairness-critical path: four LIA-coupled
/// MPTCP clients against four TCP clients on a tight core. Its trace pins
/// the coupled congestion-control decisions end to end.
#[test]
fn do_no_harm_cell_drain_path_matches_goldens() {
    assert_golden(
        "dnh",
        FleetConfig::do_no_harm_cell(3),
        &[
            6_160_392, 8_072_484, 6_301_764, 6_550_236, 7_591_248, 11_305_476, 6_881_532, 6_710_172,
        ],
        0x3b98_c988_80c7_112d,
        45_406,
    );
}
