//! Machine-readable benchmark snapshots and the regression gate.
//!
//! `bench snapshot` measures the two tables the layer ledger
//! (`BENCHMARK.json`, the package under `src/bin/benchmark/`) cannot say
//! and writes them to `BENCH.json`:
//!
//! * **exhibits** — wall-clock milliseconds to regenerate each paper
//!   table/figure at quick scale, serially (same code paths as
//!   `repro --quick`, one entry per runner job, so the second of `fig16`
//!   and `fig14` is timed replaying the study the first simulated, and
//!   the six closed-form exhibits that take a millisecond or less are
//!   summed into `closed_form`);
//! * **loc** — non-blank source lines per package (everything under
//!   `crates/<dir>/src`, a nested package counted under its own name),
//!   recorded so the trend is visible; it is not timed, so [`compare`]
//!   does not gate it.
//!
//! What a layer or a workload costs is the ledger's to time, and only the
//! ledger's: no probe of a queue, a slab or a fleet lives here.
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
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Format version of `BENCH.json`. 4 is the file without the `micro` and
/// `rates` tables, whose every entry the ledger measures.
pub const SCHEMA: u32 = 4;

/// Ratio past which a normalized metric counts as a regression.
pub const DEFAULT_TOLERANCE: f64 = 2.0;

/// A fresh time under this many milliseconds is never a regression: a job
/// that short (the second of `fig14`/`fig16` replaying the study the first
/// simulated, 0.2–0.5 ms) moves 2x on timer and file-system jitter alone.
pub const NOISE_FLOOR_MS: f64 = 1.0;

/// One benchmark snapshot, as serialized to `BENCH.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version ([`SCHEMA`]).
    pub schema: u32,
    /// Median nanoseconds of the fixed calibration workload on the
    /// machine that took the snapshot.
    pub calibration_ns: f64,
    /// Wall-clock milliseconds per exhibit job, quick scale, serial.
    pub exhibits: BTreeMap<String, f64>,
    /// Non-blank source lines per package, keyed by package name.
    pub loc: BTreeMap<String, u64>,
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
fn time_median_ns(samples: usize, iters: u32, mut f: impl FnMut()) -> f64 {
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
fn calibrate() -> f64 {
    time_median_ns(9, 50, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            x ^= x >> 29;
        }
        std::hint::black_box(x);
    })
}

/// The exhibits computed from the model alone, 0.2 to 1 ms each: one
/// summed row, so scheduler jitter on a 0.2 ms job cannot trip the gate.
const CLOSED_FORM: [&str; 6] = ["eq1", "fig1", "fig3", "fig4", "table1", "table2"];

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
    let mut times = BTreeMap::new();
    for r in &reports {
        let mut row = r.ids.join("+");
        if CLOSED_FORM.contains(&row.as_str()) {
            row = "closed_form".to_string();
        }
        *times.entry(row).or_insert(0.0) += r.wall_s * 1e3;
    }
    Ok(times)
}

/// Measure everything and assemble a [`Snapshot`]. Exhibit outputs are
/// written to `scratch_dir` (they are a side effect, not the product).
pub fn collect(scratch_dir: &std::path::Path) -> std::io::Result<Snapshot> {
    Ok(Snapshot {
        schema: SCHEMA,
        calibration_ns: calibrate(),
        exhibits: exhibit_benches(scratch_dir)?,
        loc: loc_table()?,
    })
}

/// The package a `Cargo.toml` in `dir` declares, if there is one.
fn package_name(dir: &std::path::Path) -> Option<String> {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
    let name = manifest.lines().find_map(|l| l.strip_prefix("name = "))?;
    Some(name.trim_matches('"').to_string())
}

/// Add the non-blank lines of every `.rs` file under `dir` to `package`'s
/// row. A subdirectory with a manifest of its own is another package and
/// fills its own row; `target` is what a build left behind, not source.
fn count_source_lines(
    dir: &std::path::Path,
    package: &str,
    loc: &mut BTreeMap<String, u64>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            let nested = package_name(&path);
            count_source_lines(&path, nested.as_deref().unwrap_or(package), loc)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path)?;
            let lines = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
            *loc.entry(package.to_string()).or_default() += lines;
        }
    }
    Ok(())
}

/// The `loc` table: non-blank lines under each `crates/<dir>/src`, keyed
/// by the package name in that crate's manifest.
fn loc_table() -> std::io::Result<BTreeMap<String, u64>> {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut loc = BTreeMap::new();
    for entry in std::fs::read_dir(crates)? {
        let dir = entry?.path();
        if let Some(name) = package_name(&dir) {
            count_source_lines(&dir.join("src"), &name, &mut loc)?;
        }
    }
    Ok(loc)
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
    for (name, &base_val) in &base.exhibits {
        let metric = format!("exhibits.{name}");
        match fresh.exhibits.get(name) {
            None => out.missing.push(metric),
            Some(&new_val) if base_val > 0.0 && new_val > 0.0 => {
                // >1 means the fresh snapshot is slower.
                let ratio = (new_val / base_val) * scale;
                let line =
                    format!("{metric}: {base_val:.1} -> {new_val:.1} (x{ratio:.2} normalized)");
                if ratio > tolerance && new_val >= NOISE_FLOOR_MS {
                    out.regressions.push(line);
                } else if ratio < 1.0 / tolerance {
                    out.improvements.push(line);
                }
            }
            Some(_) => {}
        }
    }
    for name in fresh.exhibits.keys() {
        if !base.exhibits.contains_key(name) {
            out.added.push(format!("exhibits.{name}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(calib: f64, pairs: &[(&str, f64)]) -> Snapshot {
        Snapshot {
            schema: SCHEMA,
            calibration_ns: calib,
            exhibits: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
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
    fn a_sub_millisecond_job_is_below_the_gate() {
        let base = snap(100.0, &[("replay", 0.15)]);
        let fresh = snap(100.0, &[("replay", 0.45)]);
        let cmp = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!cmp.failed(), "{cmp:?}");
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
        assert_eq!(cmp.missing, vec!["exhibits.gone"]);
        assert_eq!(cmp.added, vec!["exhibits.new"]);
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
    fn snapshot_roundtrips_through_json() {
        let s = snap(123.5, &[("a", 10.25)]);
        let text = serde_json::to_string_pretty(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.calibration_ns, 123.5);
        assert_eq!(back.exhibits["a"], 10.25);
    }

    #[test]
    fn loc_table_counts_the_workspace_crates_by_package_name() {
        let loc = loc_table().expect("crates/ is readable");
        for name in ["emptcp", "emptcp-net", "emptcp-faults", "emptcp-sim"] {
            assert!(loc.get(name).is_some_and(|&n| n > 0), "{name}: {loc:?}");
        }
        // The benchmark package sits inside this crate's `src` and is a
        // package of its own: one row each, neither counted into the other.
        assert!(loc["emptcp-benchmark"] > loc["emptcp-bench"], "{loc:?}");
        assert!(loc["emptcp-bench"] < 600, "{loc:?}");
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
