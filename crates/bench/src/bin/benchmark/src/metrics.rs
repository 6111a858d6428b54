//! The metric tables: every name the benchmark reports, with its unit
//! and direction, and for the end-to-end ones the bound `compare` and
//! the driver hold a change to. `BENCHMARK.json` at the repository root
//! is [`manifest`]'s output, and a test keeps the two identical.

use serde_json::{json, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads a metric is defined on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum On {
    All,
    Fleets,
    FleetsAndLive,
    Live,
}

impl On {
    pub fn holds(self, workload: &str) -> bool {
        let (fleet, live) = (workload.starts_with("fleet_"), workload == "live_udp");
        match self {
            On::All => true,
            On::Fleets => fleet,
            On::FleetsAndLive => fleet || live,
            On::Live => live,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
    /// Worsening below this much, in the metric's unit, never counts.
    pub floor: f64,
    pub on: On,
    /// Whether `BENCHMARK.json` lists it, so the driver holds changes to
    /// it. The driver wants every listed metric from every listed
    /// workload, so only a metric defined on all of them can be listed,
    /// and only one steady enough here that a bound of at most 0.25 holds
    /// three times its run-to-run spread.
    pub listed: bool,
}

/// Seconds one run measures for; the driver passes it back as
/// `--seconds`.
pub const RUN_SECONDS: u64 = 24;

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: On,
    listed: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
        on,
        listed,
    }
}

/// The issue's end-to-end table; its tenth metric, `fail_ratio`, rides in
/// the `failed` / `attempted` pair of every report, because it is 0 on a
/// correct run and a share of 0 bounds nothing. `run` reports each metric
/// on the workloads it is defined on and `compare` holds it to its bound
/// there. The bounds are what this sandbox's noise allows, not what the
/// issue asked for (0.05 to 0.15): single runs of one commit spread
/// (quartile distance over median, ten seeds) by several percent, and a
/// bound has to be three times the spread. The README has the table.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        floor: 0.05,
        ..metric("setup_s", "s", Better::Lower, 0.25, On::All, true)
    },
    metric("wall_s", "s", Better::Lower, 0.25, On::All, true),
    // Equal to `wall_s` on the single-threaded workloads; on `live_udp`
    // its ten-run median moved 22% between a quiet hour and a noisy one.
    metric("cpu_s", "s", Better::Lower, 0.25, On::All, false),
    metric("peak_rss_bytes", "B", Better::Lower, 0.25, On::All, true),
    metric(
        "rss_bytes_per_client",
        "B",
        Better::Lower,
        0.05,
        On::Fleets,
        false,
    ),
    metric("pkts_per_s", "1/s", Better::Higher, 0.25, On::Fleets, false),
    metric(
        "goodput_bytes_per_s",
        "B/s",
        Better::Higher,
        0.25,
        On::FleetsAndLive,
        false,
    ),
    metric(
        "seg_latency_p50_us",
        "us",
        Better::Lower,
        0.25,
        On::Live,
        false,
    ),
    metric(
        "seg_latency_p99_us",
        "us",
        Better::Lower,
        0.25,
        On::Live,
        false,
    ),
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Layer metrics that exist once.
const LAYERS: [(&str, &str, Better); 69] = [
    ("sim.wheel.push_pop_ns", "ns", L),
    ("sim.wheel.rearm_ns", "ns", L),
    ("sim.wheel.cancel_ns", "ns", L),
    ("sim.rng.exp_ns", "ns", L),
    ("tcp.slab.recycle_ns", "ns", L),
    ("tcp.pair.ns_per_seg", "ns", L),
    ("tcp.retransmits", "count", L),
    ("tcp.rto", "count", L),
    ("tcp.retransmit_ratio", "ratio", L),
    ("mptcp.on_segment_ns", "ns", L),
    ("mptcp.poll_transmit_ns", "ns", L),
    ("mptcp.empty_poll_ns", "ns", L),
    ("mptcp.on_deadline_ns", "ns", L),
    ("mptcp.poll.useful_ratio", "ratio", H),
    ("mptcp.pair.ns_per_seg", "ns", L),
    ("core.controller.decide_ns", "ns", L),
    ("core.predictor.observe_ns", "ns", L),
    ("core.usage_switches", "count", L),
    ("core.promotions", "count", L),
    ("energy.eib.choose_ns", "ns", L),
    ("energy.eib.generate_ms", "ms", L),
    ("energy.meter.update_ns", "ns", L),
    ("phy.link.enqueue_ns", "ns", L),
    ("net.port.transmit_ns", "ns", L),
    ("net.shard.epochs", "count", L),
    ("net.shard.client_busy_s", "s", L),
    ("net.shard.core_busy_s", "s", L),
    ("net.shard.exchange_s", "s", L),
    ("net.shard.exchange_share", "ratio", L),
    ("net.shard.imbalance", "ratio", L),
    ("net.fleet.construct_s", "s", L),
    ("net.fleet.ns_per_pkt", "ns", L),
    ("net.fleet.queue_drops", "count", L),
    ("net.fleet.drop_ratio", "ratio", L),
    ("net.fleet.ecn_marks", "count", L),
    ("telemetry.emit_disabled_ns", "ns", L),
    ("telemetry.emit_null_ns", "ns", L),
    ("telemetry.jsonl_line_ns", "ns", L),
    ("telemetry.counter_add_ns", "ns", L),
    ("telemetry.null_overhead_ratio", "ratio", L),
    ("telemetry.events_per_pkt", "ratio", L),
    ("obsv.ingest_ns_per_event", "ns", L),
    ("obsv.events_ingested", "count", L),
    ("obsv.tap_overhead_ratio", "ratio", L),
    ("obsv.export_json_ms", "ms", L),
    ("obsv.replay_events_per_s", "1/s", H),
    ("live.codec.encode_ns", "ns", L),
    ("live.codec.decode_ns", "ns", L),
    ("live.duplex.echo_ns", "ns", L),
    ("live.duplex.virtual_bytes_per_s", "B/s", H),
    ("live.seg_latency_p50_us", "us", L),
    ("live.seg_latency_p99_us", "us", L),
    ("live.seg_latency_p999_us", "us", L),
    ("live.seg_latency_max_us", "us", L),
    ("live.tcp.rto", "count", L),
    ("expr.exhibit.sec46_s", "s", L),
    ("expr.exhibit.fig13_s", "s", L),
    ("expr.exhibit.fig12_s", "s", L),
    ("expr.exhibit.handover_s", "s", L),
    ("expr.exhibit.streaming_s", "s", L),
    ("expr.exhibit.other_s", "s", L),
    ("expr.host.tcp_wifi_4mb_ms", "ms", L),
    ("expr.host.emptcp_4mb_ms", "ms", L),
    ("expr.sim_wire_bytes", "B", H),
    ("scenario.parse_us", "us", L),
    ("faults.corpus_replay_s", "s", L),
    ("bench.calibration_ns", "ns", L),
    ("bench.trace_overhead_ratio", "ratio", L),
    ("bench.span_coverage", "ratio", H),
];

/// Layer metrics `live_udp` reports once per side, as `<name>.server`
/// and `<name>.client`.
const PER_SIDE: [(&str, &str, Better); 10] = [
    ("live.udp.send_ns", "ns", L),
    ("live.udp.recv_ns", "ns", L),
    ("live.udp.empty_poll_ratio", "ratio", L),
    ("live.udp.wouldblock_drops", "count", L),
    ("live.reactor.iterations", "count", L),
    ("live.reactor.arrivals", "count", L),
    ("live.reactor.sends", "count", L),
    ("live.reactor.sleep_iters", "count", L),
    // Goodput is set by the sleep quantum while the threads are mostly
    // asleep, so a busier reactor is the better one for now.
    ("live.reactor.busy_share", "ratio", H),
    ("live.reactor.residual_ns_per_iter", "ns", L),
];

/// Every layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = LAYERS
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    for side in ["server", "client"] {
        for &(name, unit, better) in &PER_SIDE {
            all.push((format!("{name}.{side}"), unit, better));
        }
    }
    all
}

/// The workloads `BENCHMARK.json` lists, each with why it exists in one
/// line (the README has the long form). `fleet_population` and
/// `fleet_watched` are measured by `run` and `trace` and held to their
/// bounds by `compare`, but not listed, so the driver does not gate them:
/// on the shared sandbox their ten-run medians move 30% with the hour
/// (7.0 s and 9.3 s on one commit), and the driver refuses a benchmark
/// whose second set of runs is worse than its first by more than a bound
/// that may not exceed 0.25. The issue's acceptance criteria ask for all
/// five; listing the two is a follow-up for a quieter machine.
const LISTED: [(&str, &str); 3] = [
    (
        "exhibits_quick",
        "all paper exhibits at quick scale, serial: host simulator, tcp, mptcp, core, phy, energy; what a researcher waits for",
    ),
    (
        "fleet_packets",
        "1024-client sharded fleet, 20 simulated s, cache-resident: per-packet compute (wheel, slab, TCP/MPTCP machines, Port, epoch loop)",
    ),
    (
        "live_udp",
        "512 MiB over two loopback UDP paths, two reactor threads: live codec, syscalls and the reactor's wake-up policy",
    ),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = LISTED
        .iter()
        .map(|(name, why)| json!({ "name": *name, "why": *why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .filter(|m| m.listed)
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.word(),
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = per_layer()
        .into_iter()
        .map(|(name, unit, better)| json!({ "name": name, "unit": unit, "better": better.word() }))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--quiet", "--offline",
            "--manifest-path", "crates/bench/src/bin/benchmark/Cargo.toml", "--",
        ],
        "paths": ["crates/bench/src/bin/benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": Value::Array(workloads),
        "end_to_end": Value::Array(end_to_end),
        "per_layer": Value::Array(per_layer),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed: Value =
            serde_json::from_str(include_str!("../../../../../../BENCHMARK.json")).unwrap();
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for (w, why) in LISTED {
            assert!(workload::NAMES.contains(&w), "{w} is not a workload");
            assert!(ok_name(w) && seen.insert(w.to_string()), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "{} used twice", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            // A listed metric is reported by every listed workload.
            assert!(!m.listed || m.on == On::All, "{}", m.name);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} layer metrics", layers.len());
        for (name, unit, _) in &layers {
            assert!(ok_name(name) && ok_unit(unit), "{name} {unit}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        // Set-up time is listed and has the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.listed && END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
