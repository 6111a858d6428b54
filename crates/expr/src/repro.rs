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

/// How an exhibit is produced.
#[derive(Clone, Copy)]
enum Exhibit {
    /// Closed form: the model alone, no simulation, no scale.
    Model(fn() -> FigureOutput),
    /// Simulated at the scale a [`Config`] names.
    Scaled(fn(&Config) -> FigureOutput),
    /// The large-transfer wild study; leaves its traces for a fig14 in
    /// the same job.
    Fig16,
    /// The category scatter over fig16's traces.
    Fig14,
}

type Entry = (&'static str, Exhibit);

/// Every exhibit and how to produce it, in the paper's order of
/// appearance: the one table [`IDS`] and the jobs are read from.
const EXHIBITS: [Entry; 29] = [
    ("table1", Exhibit::Model(figures::table1)),
    ("fig1", Exhibit::Model(figures::fig1)),
    ("table2", Exhibit::Model(figures::table2)),
    ("fig3", Exhibit::Model(figures::fig3)),
    ("fig4", Exhibit::Model(figures::fig4)),
    ("eq1", Exhibit::Model(figures::eq1)),
    ("fig5", Exhibit::Scaled(figures::fig5)),
    ("fig6", Exhibit::Scaled(figures::fig6)),
    ("fig7", Exhibit::Scaled(figures::fig7)),
    ("fig8", Exhibit::Scaled(figures::fig8)),
    ("fig9", Exhibit::Scaled(figures::fig9)),
    ("fig10", Exhibit::Scaled(figures::fig10)),
    ("fig12", Exhibit::Scaled(figures::fig12)),
    ("fig13", Exhibit::Scaled(figures::fig13)),
    ("sec46", Exhibit::Scaled(figures::sec46)),
    ("fig14", Exhibit::Fig14),
    ("fig15", Exhibit::Scaled(figures::fig15)),
    ("fig16", Exhibit::Fig16),
    ("fig17", Exhibit::Scaled(figures::fig17)),
    ("handover", Exhibit::Scaled(figures::handover)),
    ("devices", Exhibit::Scaled(figures::devices)),
    ("ablations", Exhibit::Scaled(figures::ablations)),
    ("upload", Exhibit::Scaled(figures::upload)),
    ("streaming", Exhibit::Scaled(figures::streaming)),
    ("breakdown", Exhibit::Scaled(figures::breakdown)),
    ("sweep_hold", Exhibit::Scaled(figures::sweep_hold)),
    ("sweep_kappa", Exhibit::Scaled(figures::sweep_kappa)),
    ("fleet", Exhibit::Scaled(figures::fleet)),
    ("fairness", Exhibit::Scaled(figures::fairness)),
];

/// Every exhibit id, in the paper's order of appearance.
pub const IDS: &[&str] = &{
    let mut ids = [""; EXHIBITS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXHIBITS[i].0;
        i += 1;
    }
    ids
};

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
/// when both are requested. A job holds table entries, so whatever it
/// runs is an exhibit by construction.
fn plan(ids: &[String]) -> Vec<Vec<Entry>> {
    let entry = |id: &str| {
        let found = EXHIBITS.iter().find(|(name, _)| *name == id);
        *found.unwrap_or_else(|| panic!("unknown exhibit id: {id}"))
    };
    let mut groups: Vec<Vec<Entry>> = Vec::new();
    let both = ids.iter().any(|i| i == "fig16") && ids.iter().any(|i| i == "fig14");
    for id in ids {
        match id.as_str() {
            "fig16" if both => groups.push(vec![entry("fig16"), entry("fig14")]),
            "fig14" if both => {} // folded into the fig16 job
            id => groups.push(vec![entry(id)]),
        }
    }
    groups
}

fn dispatch(
    exhibit: Exhibit,
    cfg: &Config,
    out_dir: &Path,
    fig16_traces: &mut Option<Vec<WildTrace>>,
) -> std::io::Result<FigureOutput> {
    Ok(match exhibit {
        Exhibit::Model(make) => make(),
        Exhibit::Scaled(run) => run(cfg),
        Exhibit::Fig16 => {
            let (out, traces) = figures::fig16(cfg);
            *fig16_traces = Some(traces);
            out
        }
        Exhibit::Fig14 => {
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
            figures::fig14(&traces)
        }
    })
}

fn run_job(group: &[Entry], opts: &ReproOptions) -> std::io::Result<ExhibitReport> {
    let started = std::time::Instant::now();
    // A fresh pipeline per job: simulations pick it up through the
    // thread-current handle (inherited by nested pool jobs), so counters
    // never bleed across exhibits even when they run concurrently.
    let mut builder = Telemetry::builder().invariants(true);
    if opts.trace {
        let path = match &opts.trace_path {
            Some(path) => path.clone(),
            None => opts.out_dir.join(format!("{}.trace.jsonl", group[0].0)),
        };
        builder = builder.sink(Box::new(JsonlSink::new(std::fs::File::create(path)?)));
    }
    let telemetry = builder.build();
    let outputs: std::io::Result<Vec<FigureOutput>> =
        emptcp_telemetry::with_current(telemetry.clone(), || {
            let mut fig16_traces = None;
            let mut outputs = Vec::new();
            for &(_, exhibit) in group {
                outputs.push(dispatch(
                    exhibit,
                    &opts.cfg,
                    &opts.out_dir,
                    &mut fig16_traces,
                )?);
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
        ids: group.iter().map(|(id, _)| id.to_string()).collect(),
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
    let groups = plan(ids);
    std::fs::create_dir_all(&opts.out_dir)?;
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

    fn planned(ids: &[String]) -> Vec<Vec<&'static str>> {
        let ids_of = |group: Vec<Entry>| group.iter().map(|(id, _)| *id).collect();
        plan(ids).into_iter().map(ids_of).collect()
    }

    #[test]
    fn plan_merges_fig16_and_fig14() {
        let ids: Vec<String> = ["fig5", "fig14", "fig16", "fig6"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            planned(&ids),
            vec![vec!["fig5"], vec!["fig16", "fig14"], vec!["fig6"]]
        );
    }

    #[test]
    fn plan_keeps_lone_fig14() {
        let ids = vec!["fig14".to_string()];
        assert_eq!(planned(&ids), vec![vec!["fig14"]]);
    }

    #[test]
    fn all_ids_are_known() {
        for id in IDS {
            assert!(is_known(id));
        }
        assert!(!is_known("fig99"));
    }
}
