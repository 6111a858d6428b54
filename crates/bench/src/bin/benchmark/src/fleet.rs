//! The three fleet workloads: one engine, `ShardedFleetSim`, driven three
//! ways.
//!
//! * `fleet_packets` — 1024 clients behind a 1 Gbps core for 20 simulated
//!   seconds. The working set (~27 MB) stays in cache, so per-packet
//!   compute is the whole cost.
//! * `fleet_population` — 16 384 clients for 10 simulated seconds. The
//!   same code, but ~280 MB of client state: the packet rate halves and
//!   per-client state size and locality decide it. 100k clients and more
//!   were tried and rejected: first-touch page faults spread wall time
//!   by ±30%.
//! * `fleet_watched` — the `fleet_packets` input with the monitor's tap
//!   attached (`invariants(true)` and a `PipelineSink`), then
//!   `export_json`: every event is built, merged across shards and
//!   folded.
//!
//! All of them run the epochs on the calling thread. A traced pass swaps
//! `SerialExecutor` for [`TimingExecutor`], which does the same thing and
//! times every `run_indexed` and every `f(i)` from outside.

use crate::measure::{self, Fnv};
use crate::spans::{Folded, Tracer};
use crate::workload::{Pass, Scale, Workload};
use emptcp_net::{FleetConfig, FleetReport, ShardExecutor, ShardedFleetSim};
use emptcp_obsv::{export_json, Pipeline, PipelineConfig, PipelineSink};
use emptcp_sim::SimDuration;
use emptcp_telemetry::Telemetry;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Packets,
    Population,
    Watched,
}

/// What a fleet run has attached to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Watch {
    /// `Telemetry::disabled()`.
    Off,
    /// `Telemetry::builder().build()`: events built and dropped.
    Null,
    /// What `repro monitor` attaches: invariants and a `PipelineSink`.
    Tapped,
}

/// Serial execution with a stopwatch on every call. Call `n == shards + 1`
/// is an epoch (client shards, then the core shard); the one call with
/// `n == shards` is the init sweep.
struct TimingExecutor {
    shards: usize,
    seen: Mutex<Seen>,
}

#[derive(Default)]
struct Seen {
    epochs: u64,
    /// Busy nanoseconds per client shard.
    client_busy_ns: Vec<u64>,
    core_busy_ns: u64,
    /// Every `run_indexed` call, init included.
    calls: Folded,
    client_runs: Folded,
    core_runs: Folded,
}

impl TimingExecutor {
    fn new(shards: usize) -> TimingExecutor {
        TimingExecutor {
            shards,
            seen: Mutex::new(Seen {
                client_busy_ns: vec![0; shards],
                ..Seen::default()
            }),
        }
    }
}

impl ShardExecutor for TimingExecutor {
    fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let call = Instant::now();
        let mut took = Vec::with_capacity(n);
        for i in 0..n {
            let start = Instant::now();
            f(i);
            took.push(start.elapsed().as_nanos() as u64);
        }
        let call_ns = call.elapsed().as_nanos() as u64;
        let mut seen = self.seen.lock().expect("no panic holds this lock");
        seen.calls.record(call_ns);
        if n == self.shards + 1 {
            seen.epochs += 1;
        }
        for (i, ns) in took.into_iter().enumerate() {
            if i < self.shards {
                seen.client_busy_ns[i] += ns;
                seen.client_runs.record(ns);
            } else {
                seen.core_busy_ns += ns;
                seen.core_runs.record(ns);
            }
        }
    }
}

/// The contended fleet the workloads share, its core widened to 1 Gbps so
/// the packet rate, not the bottleneck, limits the run.
pub fn fleet_config(clients: usize, simulated: SimDuration, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::contended(clients, seed);
    cfg.bottleneck.rate_bps *= 10;
    cfg.bottleneck.queue_capacity *= 10;
    cfg.duration = simulated;
    cfg
}

/// One fleet run's outputs.
pub struct FleetRun {
    pub report: FleetReport,
    pub delivered: Vec<u64>,
    pub violations: Vec<String>,
    pub events: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub construct_s: f64,
    pub export_s: f64,
    pub export_bytes: usize,
    exec: Option<Seen>,
}

/// Build, run, export and tear down one fleet. `traced` swaps in the
/// timing executor.
pub fn run_fleet(cfg: &FleetConfig, shards: usize, watch: Watch, traced: bool) -> FleetRun {
    let pipeline = Arc::new(Mutex::new(Pipeline::new(PipelineConfig::default())));
    let telemetry = match watch {
        Watch::Off => Telemetry::disabled(),
        Watch::Null => Telemetry::builder().build(),
        Watch::Tapped => Telemetry::builder()
            .invariants(true)
            .sink(Box::new(PipelineSink::new(Arc::clone(&pipeline))))
            .build(),
    };
    let cpu0 = measure::process_cpu_s();
    let start = Instant::now();
    let mut sim = ShardedFleetSim::new_with_telemetry(cfg.clone(), shards, telemetry.clone());
    let construct_s = start.elapsed().as_secs_f64();
    let (report, exec) = if traced {
        let exec = TimingExecutor::new(sim.shards());
        let report = sim.run_with(&exec);
        let seen = exec.seen.into_inner().expect("no panic holds this lock");
        (report, Some(seen))
    } else {
        (sim.run(), None)
    };
    let export_start = Instant::now();
    let export_bytes = if watch == Watch::Tapped {
        export_json(&pipeline.lock().expect("pipeline lock")).len()
    } else {
        0
    };
    let export_s = export_start.elapsed().as_secs_f64();
    let delivered = sim.per_client_delivered();
    drop(sim);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = measure::process_cpu_s() - cpu0;
    let events = pipeline.lock().expect("pipeline lock").events;
    FleetRun {
        report,
        delivered,
        violations: telemetry
            .violations()
            .iter()
            .map(|v| v.to_string())
            .collect(),
        events,
        wall_s,
        cpu_s,
        construct_s,
        export_s,
        export_bytes,
        exec,
    }
}

impl FleetRun {
    /// Hash of the report's JSON and the per-client delivered bytes.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv::new();
        let json = serde_json::to_string(&self.report).expect("a fleet report serializes");
        hash.write(json.as_bytes());
        for d in &self.delivered {
            hash.write(&d.to_le_bytes());
        }
        hash.finish()
    }
}

struct Sizes {
    clients: usize,
    shards: usize,
    simulated: SimDuration,
    warm_up: SimDuration,
}

impl Sizes {
    fn of(variant: Variant, scale: Scale) -> Sizes {
        let ms = SimDuration::from_millis;
        match (variant, scale) {
            (Variant::Population, Scale::Full) => Sizes {
                clients: 16_384,
                shards: 8,
                simulated: ms(10_000),
                warm_up: ms(500),
            },
            (Variant::Population, Scale::Smoke) => Sizes {
                clients: 16_384,
                shards: 8,
                simulated: ms(500),
                warm_up: ms(100),
            },
            (_, Scale::Full) => Sizes {
                clients: 1024,
                shards: 4,
                simulated: ms(20_000),
                warm_up: ms(2_000),
            },
            (_, Scale::Smoke) => Sizes {
                clients: 1024,
                shards: 4,
                simulated: ms(1_000),
                warm_up: ms(200),
            },
        }
    }
}

pub struct Fleet {
    cfg: FleetConfig,
    shards: usize,
    watch: Watch,
    /// Digest of the first pass; every later pass must reproduce it.
    first_digest: Option<u64>,
}

impl Fleet {
    /// Set-up: the config template (a `.scenario` parse), and a short
    /// warm-up run of the same fleet.
    pub fn prepare(variant: Variant, seed: u64, scale: Scale) -> Fleet {
        let sizes = Sizes::of(variant, scale);
        let watch = if variant == Variant::Watched {
            Watch::Tapped
        } else {
            Watch::Off
        };
        let warm = fleet_config(sizes.clients, sizes.warm_up, seed);
        std::hint::black_box(run_fleet(&warm, sizes.shards, watch, false));
        Fleet {
            cfg: fleet_config(sizes.clients, sizes.simulated, seed),
            shards: sizes.shards,
            watch,
            first_digest: None,
        }
    }
}

impl Workload for Fleet {
    fn clients(&self) -> u64 {
        self.cfg.clients as u64
    }

    fn pass(&mut self, tracer: Option<&mut Tracer>) -> Pass {
        let run = run_fleet(&self.cfg, self.shards, self.watch, tracer.is_some());
        let mut pass = Pass {
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            packets: run.report.packets_forwarded,
            payload_bytes: run.delivered.iter().sum(),
            digest: run.digest(),
            attempted: 1,
            ..Pass::default()
        };
        match self.first_digest {
            None => self.first_digest = Some(pass.digest),
            Some(first) if first != pass.digest => pass.failures.push(format!(
                "digest {:016x} differs from the first pass's {first:016x}",
                pass.digest
            )),
            Some(_) => {}
        }
        if let Some(v) = run.violations.first() {
            pass.failures.push(format!(
                "{} invariant violations, first: {v}",
                run.violations.len()
            ));
        }
        if self.watch == Watch::Tapped && run.export_bytes == 0 {
            pass.failures.push("the pipeline exported nothing".into());
        }

        let r = &run.report;
        let mut put = |name: &str, value: f64| {
            pass.layers.insert(name.to_string(), value);
        };
        put("net.fleet.construct_s", run.construct_s);
        put(
            "net.fleet.ns_per_pkt",
            run.wall_s * 1e9 / r.packets_forwarded.max(1) as f64,
        );
        put("net.fleet.queue_drops", r.total_queue_drops as f64);
        put(
            "net.fleet.drop_ratio",
            r.total_queue_drops as f64 / r.packets_forwarded.max(1) as f64,
        );
        put("net.fleet.ecn_marks", r.bottleneck_ecn_marks as f64);
        if self.watch == Watch::Tapped {
            put("obsv.events_ingested", run.events as f64);
            put(
                "telemetry.events_per_pkt",
                run.events as f64 / r.packets_forwarded.max(1) as f64,
            );
            put("obsv.export_json_ms", run.export_s * 1e3);
        }
        if let Some(seen) = &run.exec {
            let client_busy_s: f64 = seen.client_busy_ns.iter().sum::<u64>() as f64 / 1e9;
            let max_ns = seen.client_busy_ns.iter().copied().max().unwrap_or(0) as f64;
            let mean_ns = client_busy_s * 1e9 / seen.client_busy_ns.len().max(1) as f64;
            // What the engine does between executor calls: the barrier
            // exchange, the peek for the next epoch, and at the end the
            // trace merge and the report.
            let exchange_s =
                (run.wall_s - run.construct_s - run.export_s - seen.calls.total_s()).max(0.0);
            put("net.shard.epochs", seen.epochs as f64);
            put("net.shard.client_busy_s", client_busy_s);
            put("net.shard.core_busy_s", seen.core_busy_ns as f64 / 1e9);
            put("net.shard.exchange_s", exchange_s);
            put("net.shard.exchange_share", exchange_s / run.wall_s);
            put(
                "net.shard.imbalance",
                if mean_ns > 0.0 { max_ns / mean_ns } else { 0.0 },
            );
            if let Some(tracer) = tracer {
                tracer.child_of_duration("net.fleet.construct", run.construct_s);
                tracer.fold("net.shard.client_run", &seen.client_runs);
                tracer.fold("net.shard.core_run", &seen.core_runs);
                if self.watch == Watch::Tapped {
                    tracer.child_of_duration("obsv.export_json", run.export_s);
                }
            }
        }
        pass
    }
}
