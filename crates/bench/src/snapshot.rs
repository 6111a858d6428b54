//! Machine-readable benchmark snapshots and the regression gate.
//!
//! `bench snapshot` measures three metric families and a size table and
//! writes them to `BENCH.json`:
//!
//! * **exhibits** — wall-clock milliseconds to regenerate each paper
//!   table/figure at quick scale, serially (same code paths as
//!   `repro --quick`, one entry per runner job, so the merged
//!   `fig16+fig14` job is one metric);
//! * **micro** — median nanoseconds per iteration of the hot-path
//!   building blocks (event queue, RNG, EIB lookup, predictor update,
//!   scheduler decision, an end-to-end transfer);
//! * **rates** — higher-is-better throughput figures, currently
//!   `sim_pkts_per_sec`: packets the sharded fleet engine forwards per
//!   wall-clock second (the fleet-scale headline number);
//! * **loc** — non-blank source lines per workspace crate (everything
//!   under `crates/<dir>/src`), recorded so the trend is visible; it is
//!   not timed, so [`compare`] does not gate it.
//!
//! Raw wall-clock numbers are not comparable across machines, so every
//! snapshot also records a **calibration** measurement: the median time
//! of a fixed pure-integer workload that never changes with the code
//! under test. [`compare`] divides each metric by its snapshot's
//! calibration before forming the new/baseline ratio, which cancels
//! most machine-speed differences. The default tolerance still leaves
//! 2x of headroom for scheduler noise and microarchitectural spread —
//! the gate is meant to catch order-of-magnitude regressions (an
//! accidentally quadratic loop, a lost `--release`), not 10% drift.

use emptcp_expr::figures::Config;
use emptcp_expr::repro::{self, ReproOptions};
use emptcp_expr::runner::Runner;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Format version of `BENCH.json`. Bumped to 2 when the higher-is-better
/// `rates` family joined the snapshot (schema-1 files parse with an empty
/// family, so a stale baseline reads as "rates missing", not a crash) and
/// to 3 when the per-crate `loc` table did.
pub const SCHEMA: u32 = 3;

/// Ratio past which a normalized metric counts as a regression.
pub const DEFAULT_TOLERANCE: f64 = 2.0;

/// One benchmark snapshot, as serialized to `BENCH.json`.
#[derive(Clone, Debug, Serialize)]
pub struct Snapshot {
    /// Format version ([`SCHEMA`]).
    pub schema: u32,
    /// Median nanoseconds of the fixed calibration workload on the
    /// machine that took the snapshot.
    pub calibration_ns: f64,
    /// Wall-clock milliseconds per exhibit job, quick scale, serial.
    pub exhibits: BTreeMap<String, f64>,
    /// Median nanoseconds per iteration of each micro-benchmark.
    pub micro: BTreeMap<String, f64>,
    /// Higher-is-better throughput metrics (units per wall second); the
    /// regression gate inverts the ratio for this family.
    pub rates: BTreeMap<String, f64>,
    /// Non-blank source lines per crate, keyed by package name.
    pub loc: BTreeMap<String, u64>,
}

// Hand-rolled so an older baseline (no `rates` or `loc` key) still parses,
// with the absent table defaulting to empty.
impl serde::Deserialize for Snapshot {
    fn from_value(v: &serde::Value) -> Result<Snapshot, serde::Error> {
        let serde::Value::Object(m) = v else {
            return Err(serde::Error::new(format!(
                "expected object for Snapshot, got {v:?}"
            )));
        };
        let field = |name: &str| m.get(name).unwrap_or(&serde::Value::Null);
        fn table<V: serde::Deserialize>(
            v: &serde::Value,
        ) -> Result<BTreeMap<String, V>, serde::Error> {
            match v {
                serde::Value::Null => Ok(BTreeMap::new()),
                other => serde::Deserialize::from_value(other),
            }
        }
        Ok(Snapshot {
            schema: serde::Deserialize::from_value(field("schema"))?,
            calibration_ns: serde::Deserialize::from_value(field("calibration_ns"))?,
            exhibits: serde::Deserialize::from_value(field("exhibits"))?,
            micro: serde::Deserialize::from_value(field("micro"))?,
            rates: table(field("rates"))?,
            loc: table(field("loc"))?,
        })
    }
}

/// Outcome of comparing a fresh snapshot against a baseline.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// `metric: baseline -> new (ratio)` lines past tolerance.
    pub regressions: Vec<String>,
    /// Metrics that got at least `1/tolerance` faster (informational).
    pub improvements: Vec<String>,
    /// Metrics in the baseline but absent from the fresh snapshot.
    pub missing: Vec<String>,
    /// Metrics in the fresh snapshot but absent from the baseline.
    pub added: Vec<String>,
}

impl Comparison {
    /// True when the gate should fail: a metric regressed or vanished.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }
}

/// Median of timing `f` for `iters` iterations, `samples` times over.
/// Returns nanoseconds per iteration.
pub fn time_median_ns(samples: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    assert!(samples > 0 && iters > 0);
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The fixed calibration workload: integer multiply-xor chain, long
/// enough to dominate timer overhead, independent of the code under
/// test. Returns its median nanoseconds.
pub fn calibrate() -> f64 {
    time_median_ns(9, 50, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            x ^= x >> 29;
        }
        std::hint::black_box(x);
    })
}

fn micro_benches() -> BTreeMap<String, f64> {
    use emptcp::predictor::HoltWinters;
    use emptcp::{EmptcpConfig, PathUsageController};
    use emptcp_energy::{Eib, EnergyModel};
    use emptcp_expr::scenario::{Scenario, Workload};
    use emptcp_expr::{host, Strategy};
    use emptcp_sim::{EventQueue, SimDuration, SimRng, SimTime};
    use std::hint::black_box;

    let mut micro = BTreeMap::new();

    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    micro.insert(
        "event_queue_push_pop".to_string(),
        time_median_ns(9, 200_000, || {
            t += 1;
            q.schedule(SimTime::from_nanos(t * 1000), t);
            if t.is_multiple_of(2) {
                black_box(q.pop());
            }
        }),
    );

    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    micro.insert(
        "event_queue_schedule_cancel".to_string(),
        time_median_ns(9, 200_000, || {
            t += 1;
            let h = q.schedule(SimTime::from_nanos(t * 1000), t);
            q.cancel(black_box(h));
        }),
    );

    // The host-timer pattern: cancel the previous deadline and arm a
    // replacement on every iteration, with pops dragging the wheel cursor
    // so re-arms land across slot and level seams, not one hot slot.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    let mut armed = q.schedule(SimTime::from_nanos(1_000), 0);
    micro.insert(
        "timing_wheel_rearm".to_string(),
        time_median_ns(9, 200_000, || {
            t += 1;
            q.cancel(armed);
            armed = q.schedule(SimTime::from_nanos(t * 1_000 + 500_000), t);
            if t.is_multiple_of(8) {
                black_box(q.pop());
            }
        }),
    );

    // Steady-state segment parking: one insert + take round trip, which
    // after warm-up recycles a single slot without touching the allocator.
    {
        use emptcp_tcp::{Segment, SegmentSlab};
        let mut slab = SegmentSlab::new();
        let mut p = 0u32;
        micro.insert(
            "segment_slab_recycle".to_string(),
            time_median_ns(9, 500_000, || {
                p = p.wrapping_add(1);
                let mut seg = Segment::empty(SimTime::ZERO);
                seg.payload = p;
                let r = slab.insert(seg);
                black_box(slab.take(r));
            }),
        );
    }

    let mut rng = SimRng::new(crate::BENCH_SEED);
    micro.insert(
        "rng_exponential".to_string(),
        time_median_ns(9, 500_000, || {
            black_box(rng.exponential(0.05));
        }),
    );

    let mut hw = HoltWinters::new(0.4, 0.2);
    let mut x = 1.0;
    micro.insert(
        "holt_winters_observe".to_string(),
        time_median_ns(9, 500_000, || {
            x = (x * 1.1) % 20.0;
            hw.observe(black_box(x));
            black_box(hw.forecast());
        }),
    );

    let model = EnergyModel::galaxy_s3_lte();
    let eib = Eib::generate_default(&model);
    let mut w = 0.1;
    micro.insert(
        "eib_lookup_choose".to_string(),
        time_median_ns(9, 200_000, || {
            w = (w + 0.37) % 12.0;
            black_box(eib.choose(black_box(w), black_box(4.0)));
        }),
    );

    let mut ctl = PathUsageController::new(EmptcpConfig::default().controller);
    let mut w = 0.1;
    let mut now = SimTime::ZERO;
    micro.insert(
        "controller_decide".to_string(),
        time_median_ns(9, 200_000, || {
            w = (w + 0.29) % 10.0;
            now += SimDuration::from_secs(5);
            black_box(ctl.decide(now, &eib, black_box(w), black_box(3.0)));
        }),
    );

    micro.insert(
        "end_to_end_4mb_download".to_string(),
        time_median_ns(3, 1, || {
            let mut s = Scenario::static_good_wifi();
            s.workload = Workload::Download { size: 4 << 20 };
            black_box(host::run(s, Strategy::TcpWifi, crate::BENCH_SEED));
        }),
    );

    micro.insert(
        "end_to_end_4mb_emptcp".to_string(),
        time_median_ns(3, 1, || {
            let mut s = Scenario::static_bad_wifi();
            s.workload = Workload::Download { size: 4 << 20 };
            black_box(host::run(s, Strategy::emptcp_default(), crate::BENCH_SEED));
        }),
    );

    {
        use emptcp_net::{NodeId, Port, PortOutcome};
        use emptcp_phy::LinkConfig;
        use emptcp_telemetry::Telemetry;
        let mut port = Port::new(
            NodeId(0),
            NodeId(1),
            LinkConfig {
                rate_bps: 1_000_000_000,
                prop_delay: SimDuration::from_micros(50),
                queue_capacity: 256 * 1024,
                loss_prob: 0.0,
            },
        );
        let scope = Telemetry::disabled().scope(0);
        let mut rng = SimRng::new(crate::BENCH_SEED);
        let mut now = SimTime::ZERO;
        micro.insert(
            "router_enqueue".to_string(),
            time_median_ns(9, 200_000, || {
                // Offered just under line rate, so the queue breathes
                // around the ECN threshold instead of saturating.
                now += SimDuration::from_micros(13);
                black_box(port.transmit(now, 1500, &mut rng, 0, 0, &scope));
            }),
        );
        // Keep the outcome type alive for the optimizer.
        black_box(matches!(
            port.transmit(now, 1, &mut rng, 0, 0, &scope),
            PortOutcome::Forwarded { .. }
        ));
    }

    {
        use emptcp_net::{FleetConfig, ShardedFleetSim};
        micro.insert(
            "fabric_fleet".to_string(),
            time_median_ns(5, 1, || {
                let mut cfg = FleetConfig::contended(8, crate::BENCH_SEED);
                cfg.duration = SimDuration::from_secs(2);
                black_box(ShardedFleetSim::new(cfg, 1).run());
            }),
        );
    }

    {
        // The same fleet with telemetry enabled but discarding events
        // (NullSink): the delta against `fabric_fleet` is the pre-existing
        // cost of the telemetry machinery itself (event construction,
        // metric updates), independent of this tap.
        use emptcp_net::{FleetConfig, ShardedFleetSim};
        use emptcp_obsv::{Pipeline, PipelineConfig, PipelineSink};
        use emptcp_telemetry::Telemetry;
        use std::sync::{Arc, Mutex};
        micro.insert(
            "fabric_fleet_traced_null".to_string(),
            time_median_ns(5, 1, || {
                let telemetry = Telemetry::builder().build();
                let mut cfg = FleetConfig::contended(8, crate::BENCH_SEED);
                cfg.duration = SimDuration::from_secs(2);
                black_box(ShardedFleetSim::new_with_telemetry(cfg, 1, telemetry).run());
            }),
        );

        // The same fleet with the streaming observability tap attached —
        // the delta against `fabric_fleet_traced_null` is the cost of live
        // ingest (events folded into rolling aggregates), which is the
        // overhead the tap itself adds to an already-instrumented run.
        micro.insert(
            "fabric_fleet_monitored".to_string(),
            time_median_ns(5, 1, || {
                let pipeline = Arc::new(Mutex::new(Pipeline::new(PipelineConfig::default())));
                let telemetry = Telemetry::builder()
                    .sink(Box::new(PipelineSink::new(pipeline)))
                    .build();
                let mut cfg = FleetConfig::contended(8, crate::BENCH_SEED);
                cfg.duration = SimDuration::from_secs(2);
                black_box(ShardedFleetSim::new_with_telemetry(cfg, 1, telemetry).run());
            }),
        );
    }

    {
        // `.scenario` parse + validate, one corpus file per iteration:
        // the loader runs once per scenario at CLI startup and corpus
        // replay, so it must stay microseconds, not milliseconds.
        use emptcp_scenario::{corpus, io};
        let host_text = corpus::raw("ap-vanish").expect("corpus entry");
        let fleet_text = corpus::raw("fleet-contended").expect("corpus entry");
        let mut flip = false;
        micro.insert(
            "scenario_parse_load".to_string(),
            time_median_ns(9, 2_000, || {
                flip = !flip;
                let text = if flip { host_text } else { fleet_text };
                black_box(io::from_json_str(black_box(text)).expect("corpus parses"));
            }),
        );
    }

    {
        // One frame through the duplex transport: encode, shape, queue,
        // dequeue, decode — the per-segment cost the live backend adds on
        // top of the protocol cores.
        use emptcp_live::ChaosPath;
        use emptcp_live::{DuplexTransport, Transport};
        use emptcp_tcp::Segment;
        let mut t = DuplexTransport::new(
            crate::BENCH_SEED,
            vec![ChaosPath::new(0.0, SimDuration::ZERO, 0)],
        );
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.payload = 1428;
        let mut now = SimTime::ZERO;
        micro.insert(
            "live_duplex_echo".to_string(),
            time_median_ns(9, 100_000, || {
                now += SimDuration::from_micros(10);
                t.send(now, 0, 0, black_box(&seg));
                black_box(t.poll_recv(now).expect("frame crossed"));
            }),
        );
    }

    {
        // One idle reactor iteration on the wall path: deadline sweep
        // and an empty transmit drain — the per-tick floor of a live
        // connection that has nothing to do.
        use emptcp_live::ChaosPath;
        use emptcp_live::{ConnWorker, DuplexTransport, Reactor};
        use emptcp_mptcp::{MpConnection, Role};
        use emptcp_phy::IfaceKind;
        use emptcp_tcp::TcpConfig;
        let paths = vec![
            ChaosPath::new(0.0, SimDuration::from_millis(1), 0),
            ChaosPath::new(0.0, SimDuration::from_millis(1), 0),
        ];
        let mut conn = MpConnection::new(Role::Client, TcpConfig::default());
        conn.add_subflow(SimTime::ZERO, IfaceKind::Wifi);
        conn.add_subflow(SimTime::ZERO, IfaceKind::CellularLte);
        let mut reactor = Reactor::new(
            emptcp_live::ClockSource::scripted(),
            DuplexTransport::new(crate::BENCH_SEED, paths),
        );
        reactor.register(ConnWorker::new(conn, 0));
        let mut ticks = 0u64;
        micro.insert(
            "live_reactor_tick".to_string(),
            time_median_ns(9, 100_000, || {
                ticks += 1;
                // A done-immediately run executes exactly the prologue:
                // fault poll + transmit drain over every worker.
                black_box(reactor.run_until(|_| true));
            }),
        );
        black_box(ticks);
    }

    {
        // Pure pipeline ingest: one representative event folded into the
        // rolling aggregates (the per-event cost of the live tap).
        use emptcp_obsv::{Pipeline, PipelineConfig};
        use emptcp_telemetry::TraceEvent;
        let mut pipeline = Pipeline::new(PipelineConfig::default());
        let ev = TraceEvent::Delivered {
            conn: 3,
            subflow: 1,
            bytes: 64 * 1024,
        };
        let mut t_ns = 0u64;
        micro.insert(
            "obsv_ingest_event".to_string(),
            time_median_ns(9, 200_000, || {
                t_ns += 100_000;
                pipeline.ingest(SimTime::from_nanos(t_ns), black_box(&ev));
            }),
        );
        black_box(pipeline.events);
    }

    micro
}

fn rate_benches() -> BTreeMap<String, f64> {
    use emptcp_net::{FleetConfig, ShardedFleetSim};
    use emptcp_sim::SimDuration;
    let mut rates = BTreeMap::new();
    // Simulator throughput: packets the sharded fleet engine forwards per
    // wall-clock second, on a contended 64-client fleet split 4 ways. The
    // packet count is deterministic (it is part of the FleetReport); only
    // the wall clock varies, so the best of three runs is the measurement
    // least polluted by scheduler noise.
    let mut cfg = FleetConfig::contended(64, crate::BENCH_SEED);
    cfg.duration = SimDuration::from_secs(2);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut sim = ShardedFleetSim::new(cfg.clone(), 4);
        let start = Instant::now();
        let report = sim.run();
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            best = best.max(report.packets_forwarded as f64 / secs);
        }
    }
    rates.insert("sim_pkts_per_sec".to_string(), best);

    // Live-backend goodput: a full scripted transfer through the reactor
    // and duplex transport (codec and shaping included), in delivered
    // bytes per wall-clock second. The decision log is deterministic;
    // only the wall clock varies, so best-of-three again.
    {
        use emptcp_live::{run_script, Backend, ParityScript};
        let script = ParityScript::two_path(crate::BENCH_SEED, 4 << 20);
        let mut best = 0.0f64;
        for _ in 0..3 {
            let start = Instant::now();
            let out = run_script(Backend::Live, &script);
            let secs = start.elapsed().as_secs_f64();
            if secs > 0.0 {
                best = best.max(out.delivered as f64 / secs);
            }
        }
        rates.insert("live_duplex_bytes_per_sec".to_string(), best);
    }
    rates
}

fn exhibit_benches(out_dir: &std::path::Path) -> std::io::Result<BTreeMap<String, f64>> {
    let ids: Vec<String> = repro::IDS.iter().map(|s| s.to_string()).collect();
    let opts = ReproOptions {
        cfg: Config::quick(),
        out_dir: out_dir.to_path_buf(),
        trace: false,
        trace_path: None,
    };
    // Serial on purpose: per-job wall times are only stable when jobs
    // don't contend for cores.
    let reports = Runner::serial().install(|| repro::run_exhibits(&ids, &opts))?;
    Ok(reports
        .iter()
        .map(|r| (r.ids.join("+"), r.wall_s * 1e3))
        .collect())
}

/// Measure everything and assemble a [`Snapshot`]. Exhibit outputs are
/// written to `scratch_dir` (they are a side effect, not the product).
pub fn collect(scratch_dir: &std::path::Path) -> std::io::Result<Snapshot> {
    Ok(Snapshot {
        schema: SCHEMA,
        calibration_ns: calibrate(),
        exhibits: exhibit_benches(scratch_dir)?,
        micro: micro_benches(),
        rates: rate_benches(),
        loc: loc_table()?,
    })
}

/// Count non-blank lines of every `.rs` file under `dir`, recursively.
fn source_lines(dir: &std::path::Path) -> std::io::Result<u64> {
    let mut lines = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            lines += source_lines(&path)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path)?;
            lines += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        }
    }
    Ok(lines)
}

/// The `loc` table: non-blank lines under each `crates/<dir>/src`, keyed
/// by the package name in that crate's manifest.
fn loc_table() -> std::io::Result<BTreeMap<String, u64>> {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut loc = BTreeMap::new();
    for entry in std::fs::read_dir(crates)? {
        let dir = entry?.path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .map(|n| n.trim_matches('"').to_string());
        if let Some(name) = name {
            loc.insert(name, source_lines(&dir.join("src"))?);
        }
    }
    Ok(loc)
}

/// Which way a metric family points: `Time` regresses when the new value
/// grows, `Rate` regresses when it shrinks.
#[derive(Clone, Copy)]
enum Direction {
    Time,
    Rate,
}

fn compare_family(
    family: &str,
    direction: Direction,
    base: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    scale: f64,
    tolerance: f64,
    out: &mut Comparison,
) {
    for (name, &base_val) in base {
        let metric = format!("{family}.{name}");
        match fresh.get(name) {
            None => out.missing.push(metric),
            Some(&new_val) if base_val > 0.0 && new_val > 0.0 => {
                // Both ratios are "worseness": >1 means the fresh snapshot
                // is slower. A rate on a 2x-slower machine is expected to
                // halve, and `scale` (base_calib/fresh_calib) halves too,
                // so the same factor normalizes both directions.
                let ratio = match direction {
                    Direction::Time => (new_val / base_val) * scale,
                    Direction::Rate => (base_val / new_val) * scale,
                };
                let line =
                    format!("{metric}: {base_val:.1} -> {new_val:.1} (x{ratio:.2} normalized)");
                if ratio > tolerance {
                    out.regressions.push(line);
                } else if ratio < 1.0 / tolerance {
                    out.improvements.push(line);
                }
            }
            Some(_) => {}
        }
    }
    for name in fresh.keys() {
        if !base.contains_key(name) {
            out.added.push(format!("{family}.{name}"));
        }
    }
}

/// Compare a fresh snapshot against the committed baseline. Each ratio
/// is normalized by the two snapshots' calibration measurements before
/// the tolerance test, so a slower CI machine doesn't read as a
/// regression.
pub fn compare(base: &Snapshot, fresh: &Snapshot, tolerance: f64) -> Comparison {
    assert!(tolerance > 1.0, "tolerance must exceed 1.0");
    // new_val/new_calib vs base_val/base_calib, rearranged so the
    // per-metric loop does one multiply.
    let scale = if fresh.calibration_ns > 0.0 && base.calibration_ns > 0.0 {
        base.calibration_ns / fresh.calibration_ns
    } else {
        1.0
    };
    let mut out = Comparison::default();
    compare_family(
        "exhibits",
        Direction::Time,
        &base.exhibits,
        &fresh.exhibits,
        scale,
        tolerance,
        &mut out,
    );
    compare_family(
        "micro",
        Direction::Time,
        &base.micro,
        &fresh.micro,
        scale,
        tolerance,
        &mut out,
    );
    compare_family(
        "rates",
        Direction::Rate,
        &base.rates,
        &fresh.rates,
        scale,
        tolerance,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(calib: f64, pairs: &[(&str, f64)]) -> Snapshot {
        Snapshot {
            schema: SCHEMA,
            calibration_ns: calib,
            exhibits: BTreeMap::new(),
            micro: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            rates: BTreeMap::new(),
            loc: BTreeMap::new(),
        }
    }

    fn rate_snap(calib: f64, pairs: &[(&str, f64)]) -> Snapshot {
        Snapshot {
            schema: SCHEMA,
            calibration_ns: calib,
            exhibits: BTreeMap::new(),
            micro: BTreeMap::new(),
            rates: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            loc: BTreeMap::new(),
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snap(100.0, &[("a", 10.0), ("b", 2000.0)]);
        let cmp = compare(&s, &s, DEFAULT_TOLERANCE);
        assert!(!cmp.failed(), "{cmp:?}");
        assert!(cmp.improvements.is_empty());
    }

    #[test]
    fn large_regression_fails() {
        let base = snap(100.0, &[("a", 10.0)]);
        let fresh = snap(100.0, &[("a", 25.0)]);
        let cmp = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(cmp.regressions.len(), 1, "{cmp:?}");
        assert!(cmp.failed());
    }

    #[test]
    fn calibration_excuses_a_slow_machine() {
        // Metric 3x slower, but the machine itself measured 3x slower:
        // normalized ratio is 1.0.
        let base = snap(100.0, &[("a", 10.0)]);
        let fresh = snap(300.0, &[("a", 30.0)]);
        let cmp = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!cmp.failed(), "{cmp:?}");
    }

    #[test]
    fn missing_metric_fails_and_added_is_informational() {
        let base = snap(100.0, &[("gone", 10.0)]);
        let fresh = snap(100.0, &[("new", 10.0)]);
        let cmp = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(cmp.missing, vec!["micro.gone"]);
        assert_eq!(cmp.added, vec!["micro.new"]);
        assert!(cmp.failed());
    }

    #[test]
    fn improvements_are_reported() {
        let base = snap(100.0, &[("a", 100.0)]);
        let fresh = snap(100.0, &[("a", 10.0)]);
        let cmp = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!cmp.failed());
        assert_eq!(cmp.improvements.len(), 1);
    }

    #[test]
    fn rate_regressions_invert_the_ratio() {
        // Rate halved on the same machine: 2x worse, at the gate's edge —
        // push slightly past to trip it.
        let base = rate_snap(100.0, &[("pkts", 1000.0)]);
        let fresh = rate_snap(100.0, &[("pkts", 450.0)]);
        let cmp = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(cmp.regressions.len(), 1, "{cmp:?}");
        // Rate doubled-plus: an improvement, not a regression.
        let faster = rate_snap(100.0, &[("pkts", 2500.0)]);
        let cmp = compare(&base, &faster, DEFAULT_TOLERANCE);
        assert!(!cmp.failed(), "{cmp:?}");
        assert_eq!(cmp.improvements.len(), 1);
    }

    #[test]
    fn calibration_excuses_a_slow_machine_for_rates_too() {
        // Machine 3x slower (calibration 3x bigger), rate 3x smaller:
        // normalized ratio is 1.0.
        let base = rate_snap(100.0, &[("pkts", 900.0)]);
        let fresh = rate_snap(300.0, &[("pkts", 300.0)]);
        let cmp = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!cmp.failed(), "{cmp:?}");
    }

    #[test]
    fn schema_one_baselines_parse_without_rates() {
        let old = r#"{"schema":1,"calibration_ns":100.0,"exhibits":{},"micro":{"a":1.0}}"#;
        let snap: Snapshot = serde_json::from_str(old).expect("schema-1 parses");
        assert!(snap.rates.is_empty() && snap.loc.is_empty());
        // A fresh snapshot's rates then surface as "added", not a crash.
        let fresh = rate_snap(100.0, &[("pkts", 10.0)]);
        let cmp = compare(&snap, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(cmp.added, vec!["rates.pkts"]);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let s = snap(123.5, &[("a", 10.25)]);
        let text = serde_json::to_string_pretty(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.calibration_ns, 123.5);
        assert_eq!(back.micro["a"], 10.25);
    }

    #[test]
    fn loc_table_counts_the_workspace_crates_by_package_name() {
        let loc = loc_table().expect("crates/ is readable");
        for name in ["emptcp", "emptcp-net", "emptcp-faults", "emptcp-sim"] {
            assert!(loc.get(name).is_some_and(|&n| n > 0), "{name}: {loc:?}");
        }
    }

    #[test]
    fn calibration_is_stable_enough() {
        let a = calibrate();
        let b = calibrate();
        assert!(a > 0.0 && b > 0.0);
        let ratio = if a > b { a / b } else { b / a };
        assert!(ratio < 1.5, "calibration medians diverged: {a} vs {b}");
    }
}
