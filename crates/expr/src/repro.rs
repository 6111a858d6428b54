//! The exhibit engine behind the `repro` binary, exposed as a library so
//! the determinism and golden-shape regression tests can drive it
//! in-process.
//!
//! Each requested exhibit becomes one job on the [`crate::runner`] pool
//! (fig16 and fig14 merge into one job when both are requested, since
//! fig14 post-processes fig16's traces). Every job runs under its own
//! telemetry pipeline installed as the thread-current override — workers
//! inherit it through [`crate::runner::Scope::spawn`] — so per-exhibit
//! metrics and invariant attribution survive parallel execution. Inside a
//! job, sweep points and repeated runs fan out further through the same
//! pool. A host run several exhibits ask for — fig12's walks are fig13's
//! first-seed runs — is simulated once per [`run_exhibits`] call and its
//! counters replayed into every job that asked ([`crate::shared`]).
//!
//! Determinism contract: for a fixed `ReproOptions`, the bytes written to
//! `<out>/<id>.{txt,json,csv}` (and `<id>.trace.jsonl` under tracing) and
//! every [`ExhibitReport`]'s `rendered`, `metrics` and `violations` are
//! identical for every pool size and whichever job simulated a shared run,
//! because all simulation seeds derive from exhibit/run indices and
//! results are collected in index order.

use crate::figures::{self, Config};
use crate::report::FigureOutput;
use crate::runner;
use crate::shared::{self, RunMemo};
use crate::wild::WildTrace;
use emptcp_telemetry::{JsonlSink, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every exhibit id, in the paper's order of appearance.
pub const IDS: &[&str] = &[
    "table1",
    "fig1",
    "table2",
    "fig3",
    "fig4",
    "eq1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig12",
    "fig13",
    "sec46",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "handover",
    "devices",
    "ablations",
    "upload",
    "streaming",
    "breakdown",
    "sweep_hold",
    "sweep_kappa",
    "fleet",
    "fairness",
];

/// True when `id` names an exhibit.
pub fn is_known(id: &str) -> bool {
    IDS.contains(&id)
}

/// How to run a batch of exhibits.
#[derive(Clone, Debug)]
pub struct ReproOptions {
    /// Experiment scale.
    pub cfg: Config,
    /// Directory receiving `<id>.{txt,json,csv}`.
    pub out_dir: PathBuf,
    /// Also write `<id>.trace.jsonl` per job. Tracing serializes the runs
    /// *within* each job (exhibits still run concurrently — they write
    /// distinct files), so the JSONL is byte-identical across pool sizes.
    pub trace: bool,
    /// Explicit trace destination (`repro fleet --trace fleet.jsonl`),
    /// overriding the per-job `<out>/<id>.trace.jsonl` default. Only valid
    /// when a single job runs — the binary enforces that — since two jobs
    /// appending to one file would interleave nondeterministically.
    pub trace_path: Option<PathBuf>,
}

impl ReproOptions {
    /// Defaults: quick scale into `dir`, no tracing.
    pub fn quick(dir: impl Into<PathBuf>) -> ReproOptions {
        ReproOptions {
            cfg: Config::quick(),
            out_dir: dir.into(),
            trace: false,
            trace_path: None,
        }
    }
}

/// What one job produced, for in-order printing by the binary.
#[derive(Debug)]
pub struct ExhibitReport {
    /// The exhibit ids this job covered (two for the merged fig16+fig14).
    pub ids: Vec<String>,
    /// Rendered tables, in id order.
    pub rendered: String,
    /// Invariant violations recorded by the job's pipeline.
    pub violations: Vec<String>,
    /// Family-summed counter roll-up (`tcp.conn3.sf1.x` → `tcp.x`).
    pub metrics: Vec<(String, u64)>,
    /// Wall-clock seconds the job took.
    pub wall_s: f64,
}

/// `conn3` / `sf1` / `router0` / `port5` / `shard2` style path segments
/// name an instance, not a family.
fn is_instance_segment(seg: &str) -> bool {
    ["conn", "sf", "router", "port", "shard"]
        .iter()
        .any(|prefix| {
            seg.strip_prefix(prefix)
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        })
}

/// Sum every per-connection/per-subflow counter into its stack-level
/// family (`tcp.conn3.sf1.retransmits` → `tcp.retransmits`) so the
/// roll-up stays a handful of lines no matter how many flows an
/// experiment spawned.
pub fn summarize_metrics(telemetry: &Telemetry) -> Vec<(String, u64)> {
    let Some(metrics) = telemetry.metrics() else {
        return Vec::new();
    };
    let mut totals: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (name, value) in metrics.counters() {
        let family = name
            .split('.')
            .filter(|seg| !is_instance_segment(seg))
            .collect::<Vec<_>>()
            .join(".");
        *totals.entry(family).or_insert(0) += value;
    }
    totals.into_iter().collect()
}

/// Group requested ids into jobs: one per exhibit, except fig16+fig14
/// which share fig16's traces and therefore one job (at fig16's position)
/// when both are requested.
fn plan(ids: &[String]) -> Vec<Vec<String>> {
    let mut groups: Vec<Vec<String>> = Vec::new();
    let both = ids.iter().any(|i| i == "fig16") && ids.iter().any(|i| i == "fig14");
    for id in ids {
        match id.as_str() {
            "fig16" if both => groups.push(vec!["fig16".into(), "fig14".into()]),
            "fig14" if both => {} // folded into the fig16 job
            _ => groups.push(vec![id.clone()]),
        }
    }
    groups
}

fn dispatch(
    id: &str,
    cfg: &Config,
    out_dir: &Path,
    fig16_traces: &mut Option<Vec<WildTrace>>,
) -> std::io::Result<Vec<FigureOutput>> {
    Ok(match id {
        "table1" => vec![figures::table1()],
        "fig1" => vec![figures::fig1()],
        "table2" => vec![figures::table2()],
        "fig3" => vec![figures::fig3()],
        "fig4" => vec![figures::fig4()],
        "eq1" => vec![figures::eq1()],
        "fig5" => vec![figures::fig5(cfg)],
        "fig6" => vec![figures::fig6(cfg)],
        "fig7" => vec![figures::fig7(cfg)],
        "fig8" => vec![figures::fig8(cfg)],
        "fig9" => vec![figures::fig9(cfg)],
        "fig10" => vec![figures::fig10(cfg)],
        "fig12" => vec![figures::fig12(cfg)],
        "fig13" => vec![figures::fig13(cfg)],
        "sec46" => vec![figures::sec46(cfg)],
        "fig15" => vec![figures::fig15(cfg)],
        "fig16" => {
            let (out, traces) = figures::fig16(cfg);
            *fig16_traces = Some(traces);
            vec![out]
        }
        "fig14" => {
            let traces = match fig16_traces.take() {
                Some(t) => t,
                None => {
                    // fig14 alone still needs fig16's study; write the
                    // fig16 outputs it produced along the way.
                    let (out, traces) = figures::fig16(cfg);
                    out.write_to(out_dir)?;
                    traces
                }
            };
            vec![figures::fig14(&traces)]
        }
        "fig17" => vec![figures::fig17(cfg)],
        "handover" => vec![figures::handover(cfg)],
        "devices" => vec![figures::devices(cfg)],
        "ablations" => vec![figures::ablations(cfg)],
        "upload" => vec![figures::upload(cfg)],
        "streaming" => vec![figures::streaming(cfg)],
        "breakdown" => vec![figures::breakdown(cfg)],
        "sweep_hold" => vec![figures::sweep_hold(cfg)],
        "sweep_kappa" => vec![figures::sweep_kappa(cfg)],
        "fleet" => vec![figures::fleet(cfg)],
        "fairness" => vec![figures::fairness(cfg)],
        other => panic!("unknown exhibit id: {other}"),
    })
}

fn run_job(group: &[String], opts: &ReproOptions) -> std::io::Result<ExhibitReport> {
    let started = std::time::Instant::now();
    // A fresh pipeline per job: simulations pick it up through the
    // thread-current handle (inherited by nested pool jobs), so counters
    // never bleed across exhibits even when they run concurrently.
    let mut builder = Telemetry::builder().invariants(true);
    if opts.trace {
        let path = match &opts.trace_path {
            Some(path) => path.clone(),
            None => opts.out_dir.join(format!("{}.trace.jsonl", group[0])),
        };
        builder = builder.sink(Box::new(JsonlSink::new(std::fs::File::create(path)?)));
    }
    let telemetry = builder.build();
    let outputs: std::io::Result<Vec<FigureOutput>> =
        emptcp_telemetry::with_current(telemetry.clone(), || {
            let mut fig16_traces = None;
            let mut outputs = Vec::new();
            for id in group {
                outputs.extend(dispatch(id, &opts.cfg, &opts.out_dir, &mut fig16_traces)?);
            }
            Ok(outputs)
        });
    let outputs = outputs?;
    let mut rendered = String::new();
    for out in &outputs {
        rendered.push_str(&out.render());
        out.write_to(&opts.out_dir)?;
    }
    telemetry.flush()?;
    Ok(ExhibitReport {
        ids: group.to_vec(),
        rendered,
        violations: telemetry
            .violations()
            .iter()
            .map(|v| v.to_string())
            .collect(),
        metrics: summarize_metrics(&telemetry),
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Run `ids` (already validated against [`IDS`]) on the current
/// [`runner`] pool and return one report per job, in request order.
pub fn run_exhibits(ids: &[String], opts: &ReproOptions) -> std::io::Result<Vec<ExhibitReport>> {
    for id in ids {
        assert!(is_known(id), "unknown exhibit id: {id}");
    }
    std::fs::create_dir_all(&opts.out_dir)?;
    let groups = plan(ids);
    // The memo lives exactly as long as this call: jobs (and whatever they
    // spawn) reach it through the thread-current handle. Only the runs a
    // requested single-run figure plots keep their time series in it.
    let plotted = ids
        .iter()
        .flat_map(|id| figures::series_runs(id, &opts.cfg));
    let memo = Arc::new(RunMemo::keeping_series(plotted));
    let reports = shared::with_memo(Some(memo.clone()), || {
        runner::run_points(groups.len(), |i| {
            let report = run_job(&groups[i], opts);
            if let Ok(r) = &report {
                emptcp_telemetry::info!("[{}] done in {:.1}s", r.ids.join("+"), r.wall_s);
            }
            report
        })
    });
    let (requested, distinct) = memo.counts();
    emptcp_telemetry::info!("host runs: {requested} requested, {distinct} distinct");
    reports.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_merges_fig16_and_fig14() {
        let ids: Vec<String> = ["fig5", "fig14", "fig16", "fig6"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let groups = plan(&ids);
        assert_eq!(
            groups,
            vec![
                vec!["fig5".to_string()],
                vec!["fig16".to_string(), "fig14".to_string()],
                vec!["fig6".to_string()],
            ]
        );
    }

    #[test]
    fn plan_keeps_lone_fig14() {
        let ids = vec!["fig14".to_string()];
        assert_eq!(plan(&ids), vec![vec!["fig14".to_string()]]);
    }

    #[test]
    fn all_ids_are_known() {
        for id in IDS {
            assert!(is_known(id));
        }
        assert!(!is_known("fig99"));
    }
}
