//! Benchmark snapshots and the regression gate.
//!
//! ```text
//! bench snapshot                    measure and write BENCH.json
//! bench snapshot --out fresh.json   write elsewhere
//! bench snapshot --check            measure, compare against BENCH.json,
//!                                   exit 1 past tolerance
//! bench snapshot --check --baseline BENCH.json --tolerance 2.5
//! ```
//!
//! A snapshot regenerates every exhibit at quick scale (serially, so
//! per-exhibit wall times don't contend) and counts each package's
//! source lines; the times are normalized at compare time by a fixed
//! calibration workload recorded in the file. See
//! `emptcp_bench::snapshot` for the format and the normalization math.

use emptcp_bench::snapshot::{self, DEFAULT_TOLERANCE};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: bench snapshot [--check] [--baseline PATH] [--out PATH] [--tolerance X]");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    match it.next().as_deref() {
        Some("snapshot") => {}
        _ => usage(),
    }
    let mut check = false;
    let mut baseline = PathBuf::from("BENCH.json");
    let mut out: Option<PathBuf> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--baseline" => {
                baseline = PathBuf::from(it.next().unwrap_or_else(|| usage()));
            }
            "--out" => out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t > 1.0)
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }

    let scratch = std::env::temp_dir().join("emptcp-bench-scratch");
    eprintln!(
        "measuring snapshot (quick scale, serial; scratch in {})",
        scratch.display()
    );
    let fresh = match snapshot::collect(&scratch) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench: collecting snapshot: {e}");
            exit(1);
        }
    };

    let out_path = out.unwrap_or_else(|| {
        if check {
            PathBuf::from("BENCH.fresh.json")
        } else {
            PathBuf::from("BENCH.json")
        }
    });
    let text = serde_json::to_string_pretty(&fresh).expect("snapshot serializes");
    if let Err(e) = std::fs::write(&out_path, text + "\n") {
        eprintln!("bench: writing {}: {e}", out_path.display());
        exit(1);
    }
    eprintln!("wrote {}", out_path.display());

    if !check {
        return;
    }
    let base_text = match std::fs::read_to_string(&baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench: reading baseline {}: {e}", baseline.display());
            exit(1);
        }
    };
    let base: snapshot::Snapshot = match serde_json::from_str(&base_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench: parsing baseline {}: {e:?}", baseline.display());
            exit(1);
        }
    };
    let cmp = snapshot::compare(&base, &fresh, tolerance);
    println!(
        "calibration: baseline {:.0} ns, fresh {:.0} ns (machine factor x{:.2})",
        base.calibration_ns,
        fresh.calibration_ns,
        fresh.calibration_ns / base.calibration_ns
    );
    for line in &cmp.improvements {
        println!("improved: {line}");
    }
    for name in &cmp.added {
        println!("new metric (not gated): {name}");
    }
    for name in &cmp.missing {
        println!("MISSING: {name} (in baseline, not measured — re-snapshot?)");
    }
    for line in &cmp.regressions {
        println!("REGRESSION: {line}");
    }
    if cmp.failed() {
        eprintln!(
            "bench: {} regression(s), {} missing metric(s) at tolerance x{tolerance}",
            cmp.regressions.len(),
            cmp.missing.len()
        );
        exit(1);
    }
    println!("bench: all metrics within x{tolerance} of baseline");
}
