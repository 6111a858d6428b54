//! The runner's determinism contract, end to end: running exhibits on a
//! 1-job pool and a multi-job pool must write byte-identical files —
//! results, and trace JSONL under tracing — and, since exhibits share host
//! runs, produce the reports each exhibit would produce run alone. This is
//! the in-process version of `repro --jobs 1` vs `repro --jobs N`; CI
//! smoke-tests the binary the same way.

#[path = "parallel_determinism/rig.rs"]
mod rig;

use emptcp_expr::figures::Config;
use rig::{tmp, Files};
use std::path::Path;

/// A fast, representative exhibit subset: model-only (table2), repeated
/// runs (fig5), single-run traces (fig9) and the sweep that repeats both of
/// them (fig10's first cell, first seed), a whisker exhibit (fig15), and
/// the §5 study that fig16 and fig14 each request, so one of them replays
/// the other's runs through the memo; the "alone vs together" check of
/// `a_shared_run_is_invisible_in_every_report` covers that pair too.
const SUBSET: &[&str] = &["table2", "fig5", "fig9", "fig10", "fig15", "fig16", "fig14"];

fn run_with(jobs: usize, dir: &Path, trace: bool) -> Files {
    rig::run_ids(SUBSET, Config::quick(), jobs, dir, trace).0
}

fn assert_identical(a: &Files, b: &Files) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "file sets differ"
    );
    for (name, bytes) in a {
        assert_eq!(bytes, &b[name], "{name} differs between pool sizes");
    }
}

#[test]
fn results_are_byte_identical_across_pool_sizes() {
    let d1 = tmp("j1");
    let d4 = tmp("j4");
    let serial = run_with(1, &d1, false);
    let parallel = run_with(4, &d4, false);
    // Sanity: the subset actually produced the expected artifacts.
    assert!(serial.contains_key("fig5.json") && serial.contains_key("fig14.json"));
    assert_identical(&serial, &parallel);
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}

#[test]
fn a_shared_run_is_invisible_in_every_report() {
    rig::assert_shared_runs_invisible("subset", SUBSET, Config::quick());
}

#[test]
fn traces_are_byte_identical_across_pool_sizes() {
    let d1 = tmp("t1");
    let d4 = tmp("t4");
    let serial = run_with(1, &d1, true);
    let parallel = run_with(4, &d4, true);
    let traced: Vec<&String> = serial
        .keys()
        .filter(|name| name.ends_with(".trace.jsonl"))
        .collect();
    assert!(!traced.is_empty(), "tracing produced no JSONL");
    assert!(!serial[traced[0]].is_empty(), "empty trace");
    assert_identical(&serial, &parallel);
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}

#[test]
fn repeated_serial_runs_are_stable() {
    // Guards against hidden global state leaking between runs in the same
    // process (telemetry override, runner fallback, thread-locals).
    let da = tmp("a");
    let db = tmp("b");
    let first = run_with(1, &da, false);
    let second = run_with(1, &db, false);
    assert_identical(&first, &second);
    let _ = std::fs::remove_dir_all(&da);
    let _ = std::fs::remove_dir_all(&db);
}
