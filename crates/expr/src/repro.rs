//! The exhibit engine behind the `repro` binary, exposed as a library so
//! the determinism and golden-shape regression tests can drive it
//! in-process.
//!
//! [`run_exhibits`] concatenates the requested exhibits' plans
//! ([`crate::figures`]) and merges the runs that appear more than once
//! (`plan::RunSet`). One [`par_map`] simulates the distinct runs, each into a
//! telemetry pipeline of its own; a second reduces every exhibit under a
//! pipeline of the exhibit's own, into which the metrics and violations
//! of each planned entry are folded once, in plan order. Under tracing
//! nothing is shared: each exhibit simulates its own plan serially into
//! its own sink, then reduces.
//!
//! Determinism contract: for a fixed `ReproOptions`, the bytes written to
//! `<out>/<id>.{txt,json,csv}` (and `<id>.trace.jsonl` under tracing) and
//! every [`ExhibitReport`]'s `rendered`, `metrics` and `violations` are
//! what the exhibit produces alone, for every job count: every seed is
//! fixed in a plan and every result lands in its plan's slot.

use crate::figures::{self, Config, Entry, EXHIBITS};
use crate::host::RunResult;
use crate::plan::{Run, RunSet};
use crate::runner::par_map;
use emptcp_telemetry::{JsonlSink, MetricsRegistry, Telemetry, Violation};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

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
    /// Also write `<id>.trace.jsonl` per exhibit. A traced exhibit shares
    /// no runs: it simulates its own plan serially into its own file
    /// (exhibits still run concurrently, as they write distinct files), so
    /// the JSONL is byte-identical across job counts.
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
    /// The exhibit this job ran: one id, as every job is one exhibit.
    pub ids: Vec<String>,
    /// Rendered tables.
    pub rendered: String,
    /// Invariant violations recorded by the job's pipeline.
    pub violations: Vec<String>,
    /// Family-summed counter roll-up (`tcp.conn3.sf1.x` → `tcp.x`).
    pub metrics: Vec<(String, u64)>,
    /// Wall-clock seconds the exhibit took: its reduction, plus the
    /// simulation of every run it is the first of the call to plan (under
    /// tracing, of every run it plans).
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
fn summarize_metrics(telemetry: &Telemetry) -> Vec<(String, u64)> {
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

/// The table entry of each requested id. An id the table does not hold is
/// an [`io::ErrorKind::InvalidInput`] error.
fn lookup(ids: &[String]) -> io::Result<Vec<Entry>> {
    ids.iter()
        .map(|id| {
            figures::find(id).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown exhibit id: {id}"),
                )
            })
        })
        .collect()
}

/// A distinct run's result and what it reported into a pipeline of its
/// own, with every check an exhibit runs under.
struct Simulated {
    result: RunResult,
    metrics: MetricsRegistry,
    violations: Vec<Violation>,
    wall_s: f64,
}

impl Simulated {
    fn of(run: &Run) -> Simulated {
        let started = Instant::now();
        let own = Telemetry::builder().invariants(true).build();
        let result = run.simulate(own.clone());
        Simulated {
            result,
            metrics: own.metrics().unwrap_or_default(),
            violations: own.violations(),
            wall_s: started.elapsed().as_secs_f64(),
        }
    }
}

/// The results of an exhibit's plan entries, each entry's metrics and
/// violations folded into `telemetry` once, in plan order: what the
/// exhibit would have recorded had it simulated every entry itself.
fn fold<'a>(
    telemetry: &Telemetry,
    entries: &[usize],
    simulated: &'a [Simulated],
) -> Vec<&'a RunResult> {
    entries
        .iter()
        .map(|&i| {
            let run = &simulated[i];
            telemetry.absorb(&run.metrics, &run.violations);
            &run.result
        })
        .collect()
}

/// Produce one exhibit under a fresh pipeline and write its files. Its
/// results are its `entries` into `simulated`, or under tracing its own
/// `plan` simulated into its own file. `simulate_s` is the time spent
/// simulating its runs before it started.
fn run_job(
    (id, (_, reduce)): Entry,
    plan: &[Run],
    entries: &[usize],
    simulated: &[Simulated],
    simulate_s: f64,
    opts: &ReproOptions,
) -> io::Result<ExhibitReport> {
    let started = Instant::now();
    let mut builder = Telemetry::builder().invariants(true);
    if opts.trace {
        let path = match &opts.trace_path {
            Some(path) => path.clone(),
            None => opts.out_dir.join(format!("{id}.trace.jsonl")),
        };
        builder = builder.sink(Box::new(JsonlSink::new(std::fs::File::create(path)?)));
    }
    let telemetry = builder.build();
    let own: Vec<RunResult>;
    let results = if opts.trace {
        own = plan
            .iter()
            .map(|run| run.simulate(telemetry.clone()))
            .collect();
        own.iter().collect()
    } else {
        fold(&telemetry, entries, simulated)
    };
    // The fleet exhibits build their fleets on this pipeline.
    let out = emptcp_telemetry::with_current(telemetry.clone(), || reduce(&opts.cfg, &results));
    out.write_to(&opts.out_dir)?;
    telemetry.flush()?;
    let wall_s = simulate_s + started.elapsed().as_secs_f64();
    emptcp_telemetry::info!("[{id}] done in {wall_s:.1}s");
    Ok(ExhibitReport {
        ids: vec![id.to_string()],
        rendered: out.render(),
        violations: telemetry
            .violations()
            .iter()
            .map(|v| v.to_string())
            .collect(),
        metrics: summarize_metrics(&telemetry),
        wall_s,
    })
}

/// Run `ids` with the calling thread's job count ([`crate::Runner`]) and
/// return one report per exhibit, in request order. An id not in [`IDS`]
/// fails the call with [`io::ErrorKind::InvalidInput`] before anything
/// runs.
pub fn run_exhibits(ids: &[String], opts: &ReproOptions) -> io::Result<Vec<ExhibitReport>> {
    let exhibits = lookup(ids)?;
    std::fs::create_dir_all(&opts.out_dir)?;
    let plans: Vec<Vec<Run>> = exhibits
        .iter()
        .map(|(_, (plan, _))| plan(&opts.cfg))
        .collect();
    let set = RunSet::of(&plans);
    let simulated = if opts.trace {
        Vec::new()
    } else {
        par_map(set.runs.len(), |i| Simulated::of(&set.runs[i]))
    };
    let reports = par_map(exhibits.len(), |i| {
        let simulate_s = (set.owner.iter().zip(&simulated))
            .filter(|(&owner, _)| owner == i)
            .map(|(_, run)| run.wall_s)
            .sum();
        let entries = &set.entries[i];
        run_job(
            exhibits[i],
            &plans[i],
            entries,
            &simulated,
            simulate_s,
            opts,
        )
    });
    let (requested, distinct) = set.counts();
    emptcp_telemetry::info!("host runs: {requested} requested, {distinct} distinct");
    reports.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, Workload};
    use crate::strategy::Strategy;

    #[test]
    fn an_unknown_id_is_invalid_input_and_runs_nothing() {
        let dir = std::env::temp_dir().join(format!("emptcp-repro-unknown-{}", std::process::id()));
        let ids = vec!["eq1".to_string(), "fig99".to_string()];
        let err = run_exhibits(&ids, &ReproOptions::quick(&dir)).expect_err("fig99 is no exhibit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("fig99"), "{err}");
        assert!(!dir.exists(), "an invalid request wrote {}", dir.display());
    }

    #[test]
    fn the_quick_plans_name_260_runs_213_of_them_distinct() {
        let cfg = Config::quick();
        let plans: Vec<Vec<Run>> = EXHIBITS.iter().map(|(_, (plan, _))| plan(&cfg)).collect();
        assert_eq!(RunSet::of(&plans).counts(), (260, 213));

        // Value-equal runs from different exhibits. sweep_hold's 40 s
        // point is fig8's scenario: its runs are fig8's first two seeds
        // of MPTCP and of eMPTCP.
        let plan = |id| (figures::find(id).unwrap().1).0(&cfg);
        let (fig8, sweep) = (plan("fig8"), plan("sweep_hold"));
        let point = &sweep[4 * cfg.runs..6 * cfg.runs];
        assert_eq!(point[0].scenario, fig8[0].scenario);
        for (k, run) in point.iter().enumerate() {
            let same = &fig8[k / cfg.runs * fig8.len() / 3 + k % cfg.runs];
            assert!(run.same_input(same), "{k}");
        }
        // fig12's walks are fig13's first seed, and keep their series.
        let (fig12, fig13) = (plan("fig12"), plan("fig13"));
        let set = RunSet::of(&[fig13, fig12]);
        assert_eq!(set.counts(), (3 * cfg.runs + 3, 3 * cfg.runs));
        let firsts: Vec<usize> = (0..3).map(|k| k * cfg.runs).collect();
        assert_eq!(set.entries[1], firsts);
        assert!(firsts.iter().all(|&i| set.runs[i].series));
    }

    #[test]
    fn a_reused_run_replays_its_counters_and_result() {
        let job = || Telemetry::builder().invariants(true).build();
        let json = |r: &RunResult| serde_json::to_string(r).unwrap();
        let counters = |t: &Telemetry| {
            let metrics = t.metrics().unwrap();
            let counters = metrics.counters().map(|(k, v)| (k.to_string(), v));
            counters.collect::<Vec<_>>()
        };
        let scenario = Scenario::static_good_wifi().with(Workload::Download { size: 256 << 10 });
        let unplotted = Run::new(scenario, Strategy::Mptcp, 5);
        let plotted = Run {
            series: true,
            ..unplotted.clone()
        };
        // The reference: an exhibit that simulates the run itself.
        let alone = job();
        let expected = plotted.simulate(alone.clone());

        // Two exhibits plan the run. It is simulated once and replayed
        // into both: whole if either plots it, else the same but for its
        // series, dropped for both alike.
        let plotting = [vec![unplotted.clone()], vec![plotted]];
        let neither = [vec![unplotted.clone()], vec![unplotted]];
        for (plans, whole) in [(plotting, true), (neither, false)] {
            let set = RunSet::of(&plans);
            assert_eq!(set.counts(), (2, 1));
            let simulated = [Simulated::of(&set.runs[0])];
            for entries in &set.entries {
                let telemetry = job();
                let result = fold(&telemetry, entries, &simulated)[0];
                assert_eq!(counters(&telemetry), counters(&alone));
                assert!(telemetry.violations().is_empty());
                assert_eq!(result.energy_trace.is_empty(), !whole);
                assert_eq!(result.energy_trace.name, expected.energy_trace.name);
                let restored = RunResult {
                    energy_trace: expected.energy_trace.clone(),
                    wifi_thpt_trace: expected.wifi_thpt_trace.clone(),
                    cell_thpt_trace: expected.cell_thpt_trace.clone(),
                    wifi_capacity_trace: expected.wifi_capacity_trace.clone(),
                    ..result.clone()
                };
                assert_eq!(json(&restored), json(&expected));
                assert!(!whole || json(result) == json(&expected));
            }
        }
    }

    #[test]
    fn all_ids_are_known() {
        for id in IDS {
            assert!(is_known(id));
        }
        assert!(!is_known("fig99"));
    }
}
