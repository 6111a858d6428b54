//! The drain-path golden harness: run a fleet traced at one shard and at
//! four and hold both to the same per-client bytes, trace hash and trace
//! line count. Shared with the root package's `workspace_smoke` through
//! `#[path]`, which checks the contended case in tier-1.

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

/// Run `cfg` at one shard and at four and hold both to the same pins.
pub fn assert_golden(label: &str, cfg: FleetConfig, bytes: &[u64], hash: u64, lines: usize) {
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

/// The contended preset exercises every hot-path ingredient at once:
/// mixed TCP/MPTCP stacks, cross-traffic, queue drops + ECN marks at the
/// bottleneck, delayed-ack timers, and RTO re-arms. Six clients, 2 s.
pub fn contended_matches_goldens() {
    let mut cfg = FleetConfig::contended(6, 7);
    cfg.duration = SimDuration::from_secs(2);
    assert_golden(
        "contended",
        cfg,
        &[
            2_980_236, 3_928_428, 5_146_512, 2_249_100, 2_691_780, 3_541_440,
        ],
        0x48d6_562d_b0fc_3d47,
        16_468,
    );
}
