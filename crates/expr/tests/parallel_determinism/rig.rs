//! Shared between `parallel_determinism` and the workspace smoke test:
//! run exhibits in-process on a pool of a given size, collect what they
//! wrote and reported, and check that shared host runs are invisible.

use emptcp_expr::figures::Config;
use emptcp_expr::repro::{self, ExhibitReport, ReproOptions};
use emptcp_expr::runner::Runner;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name → contents of an output directory.
pub type Files = BTreeMap<String, Vec<u8>>;

pub fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("emptcp-determinism-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn run_ids(
    ids: &[&str],
    cfg: Config,
    jobs: usize,
    dir: &Path,
    trace: bool,
) -> (Files, Vec<ExhibitReport>) {
    let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    let opts = ReproOptions {
        cfg,
        out_dir: dir.to_path_buf(),
        trace,
        trace_path: None,
    };
    let runner = Runner::new(jobs);
    let reports = runner
        .install(|| repro::run_exhibits(&ids, &opts))
        .expect("exhibits run");
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("out dir") {
        let path = entry.expect("entry").path();
        files.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            std::fs::read(&path).expect("read output"),
        );
    }
    assert!(!files.is_empty(), "no output files written");
    (files, reports)
}

/// Two reports agree in everything but their wall-clock time.
fn assert_same_report(a: &ExhibitReport, b: &ExhibitReport, what: &str) {
    assert_eq!(a.ids, b.ids, "{what}");
    assert_eq!(a.rendered, b.rendered, "{what}: {:?} rendered", a.ids);
    assert_eq!(a.metrics, b.metrics, "{what}: {:?} metrics", a.ids);
    assert_eq!(a.violations, b.violations, "{what}: {:?} violations", a.ids);
}

/// The replay oracle for shared runs. When `ids` holds exhibits that plan
/// the same host run, the call simulates it once, on whichever thread,
/// and folds it into each. Every exhibit must report the counters,
/// violations, tables and files it reports when it runs alone and
/// simulates everything itself.
pub fn assert_shared_runs_invisible(tag: &str, ids: &[&str], cfg: Config) {
    let (d1, d4) = (tmp(&format!("{tag}-s1")), tmp(&format!("{tag}-s4")));
    let (files, serial) = run_ids(ids, cfg, 1, &d1, false);
    let (_, parallel) = run_ids(ids, cfg, 4, &d4, false);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_same_report(s, p, "jobs 1 vs 4");
    }
    for together in &serial {
        let job: Vec<&str> = together.ids.iter().map(String::as_str).collect();
        let dir = tmp(&format!("{tag}-alone-{}", job[0]));
        let (alone_files, alone) = run_ids(&job, cfg, 1, &dir, false);
        assert_eq!(alone.len(), 1);
        assert_same_report(&alone[0], together, "alone vs together");
        for (name, bytes) in &alone_files {
            assert_eq!(bytes, &files[name], "{name} differs when run alone");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Guard the oracle itself: the reports compared carry real traffic.
    let traffic = |r: &ExhibitReport| {
        r.metrics
            .iter()
            .any(|(name, bytes)| name.starts_with("iface.") && *bytes > 0)
    };
    assert!(serial.iter().any(traffic), "no report carries traffic");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}
