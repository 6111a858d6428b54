//! The repository's benchmark: five workloads, ten end-to-end metrics
//! and an outside-in layer ledger for the eMPTCP stack. `README.md` next
//! to this file has the tables and the reasons.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one measured run
//! benchmark run   [--seed N] [--out DIR] [--smoke]   every workload, results.json
//! benchmark trace [--workload W] [--seed N] [--out DIR] [--smoke]   trace.json
//! benchmark compare A.json B.json   bounds applied to two results.json
//! benchmark manifest                the contents of BENCHMARK.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names and what `run` and
//! `trace` re-execute once per workload, so a workload's peak memory is
//! its own process's. Every layer is measured from outside, by timing
//! calls into public functions; nothing here edits or instruments the
//! crates it measures.

mod compare;
mod exhibits;
mod fleet;
mod live;
mod measure;
mod metrics;
mod probes;
mod spans;
mod workload;

use measure::median;
use serde_json::{json, Map, Value};
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Pass, Scale};

/// Set-ups per run; `setup_s` is their median.
const SET_UPS: usize = 3;

/// Workloads a traced run passes over at smoke scale when it was asked
/// for another, so that every layer family has a traced pass to read.
/// `fleet_watched` stands in for all three fleets: it drives the same
/// engine and is the only one that feeds the pipeline.
const SIDE_PASSES: [&str; 3] = ["exhibits_quick", "fleet_watched", "live_udp"];

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
  benchmark run [--seed N] [--seconds S] [--out DIR] [--smoke]
  benchmark trace [--workload W] [--seed N] [--out DIR] [--smoke]
  benchmark compare A.json B.json
  benchmark manifest
workloads: {}",
        workload::NAMES.join(" ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--smoke`, as typed.
struct Flags {
    values: BTreeMap<String, String>,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => flags.smoke = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                    let value = it.next().ok_or(format!("{arg} needs a value"))?;
                    flags.values.insert(arg[2..].to_string(), value.clone());
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(flags)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: {text:?} is not a number")),
        }
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// `--out`, or a directory beside the executable: inside the build
    /// directory, so inside the checkout and ignored by git.
    fn out_dir(&self) -> PathBuf {
        match self.values.get("out") {
            Some(dir) => PathBuf::from(dir),
            None => std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(|dir| dir.join("benchmark-out")))
                .unwrap_or_else(|| PathBuf::from("benchmark-out")),
        }
    }
}

/// One measured run, as the driver asks for it.
struct Job {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    out: PathBuf,
}

impl Job {
    fn from_flags(flags: &Flags) -> Result<Job, String> {
        let workload = flags
            .values
            .get("workload")
            .ok_or("--workload is required")?;
        if !workload::NAMES.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Job {
            workload: workload.clone(),
            seed: flags.number("seed", 1u64)?,
            seconds: flags.number("seconds", default_seconds(flags))?,
            traced: flags.number("trace", 0u8)? != 0,
            scale: flags.scale(),
            out: flags.out_dir(),
        })
    }
}

/// What a run reports: the contract's four keys, plus the detail `run`
/// and `trace` keep.
struct Outcome {
    metrics: Vec<(String, &'static str, f64)>,
    /// Where each layer metric was read (traced runs only).
    sources: BTreeMap<String, String>,
    attempted: u64,
    failures: Vec<String>,
    detail: Value,
}

fn pass_json(p: &Pass) -> Value {
    json!({
        "packets": p.packets,
        "payload_bytes": p.payload_bytes,
        "digest": format!("{:016x}", p.digest),
        "failures": p.failures,
    })
}

fn float_map(map: &BTreeMap<String, f64>) -> Value {
    Value::Object(
        map.iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect::<Map>(),
    )
}

/// The untraced run: set up [`SET_UPS`] times, then pass over the input
/// until `seconds` have gone by.
fn measure_end_to_end(job: &Job, entry: Instant, rss_at_entry: u64) -> std::io::Result<Outcome> {
    let scratch = job.out.join("scratch").join(&job.workload);
    let mut set_ups = Vec::with_capacity(SET_UPS);
    let mut prepared = None;
    for i in 0..SET_UPS {
        // The first set-up is timed from process entry, so whatever the
        // program does before its first pass is in it.
        let start = if i == 0 { entry } else { Instant::now() };
        drop(prepared.take());
        prepared = Some(workload::prepare(
            &job.workload,
            job.seed,
            job.scale,
            &scratch,
        )?);
        set_ups.push(start.elapsed().as_secs_f64());
    }
    let mut wl = prepared.expect("SET_UPS is at least one");
    let mut passes: Vec<Pass> = Vec::new();
    let measuring = Instant::now();
    // Peak memory is read after the first pass: the allocator keeps what
    // it once had, so a later reading would grow with the pass count,
    // which depends on how fast the passes are.
    let mut peak_rss = 0;
    while passes.is_empty() || measuring.elapsed().as_secs_f64() < job.seconds {
        passes.push(wl.pass(None));
        if passes.len() == 1 {
            peak_rss = measure::peak_rss_bytes();
        }
    }
    let clients = wl.clients();
    drop(wl);
    std::fs::remove_dir_all(&scratch).ok();

    // Every timing pass by pass, and the two figures a run reads once.
    let of =
        |f: &dyn Fn(&Pass) -> Option<f64>| -> Vec<f64> { passes.iter().filter_map(f).collect() };
    let layer = |key: &'static str| move |p: &Pass| p.layers.get(key).copied();
    let mut per_pass = BTreeMap::from([
        ("setup_s", set_ups.clone()),
        ("wall_s", of(&|p| Some(p.wall_s))),
        ("cpu_s", of(&|p| Some(p.cpu_s))),
        ("pkts_per_s", of(&|p| Some(p.packets as f64 / p.wall_s))),
        (
            "goodput_bytes_per_s",
            of(&|p| Some(p.payload_bytes as f64 / p.wall_s)),
        ),
        ("seg_latency_p50_us", of(&layer("live.seg_latency_p50_us"))),
        ("seg_latency_p99_us", of(&layer("live.seg_latency_p99_us"))),
    ]);
    let once = BTreeMap::from([
        ("peak_rss_bytes", peak_rss as f64),
        (
            "rss_bytes_per_client",
            peak_rss.saturating_sub(rss_at_entry) as f64 / clients as f64,
        ),
    ]);
    // Each metric on the workloads it is defined on, and nowhere else.
    let defined: Vec<_> = metrics::END_TO_END
        .iter()
        .filter(|m| m.on.holds(&job.workload))
        .collect();
    per_pass.retain(|name, _| defined.iter().any(|m| m.name == *name));
    let metrics = defined
        .iter()
        .filter_map(|m| {
            let value = match per_pass.get(m.name) {
                // A pass that failed before it had a latency to report.
                Some(values) if values.is_empty() => return None,
                Some(values) => median(values),
                None => once[m.name],
            };
            Some((m.name.to_string(), m.unit, value))
        })
        .collect();

    let span = |v: &[f64]| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        format!("min {lo} max {hi} over {} passes", v.len())
    };
    println!(
        "passes {}  wall_s {}",
        passes.len(),
        span(&per_pass["wall_s"])
    );
    println!("set-ups {}  {}", set_ups.len(), span(&set_ups));
    println!("digest {:016x}", passes[0].digest);
    // The issue's set-up time, process entry to first measured pass, is
    // the first of the set-ups: the one that pays for the cold start.
    println!("info setup_from_entry_s {}", set_ups[0]);
    // What the last pass's outside counters say, for the reader; the
    // layer ledger proper is the traced run.
    let last = passes.last().expect("at least one pass");
    for (name, value) in &last.layers {
        println!("info {name} {value}");
    }

    let failures: Vec<String> = passes
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.failures.iter().map(move |f| format!("pass {i}: {f}")))
        .collect();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let per_pass: Map = per_pass
        .into_iter()
        .map(|(name, values)| (name.to_string(), json!(values)))
        .collect();
    let detail = json!({
        "setup_from_entry_s": set_ups[0],
        "passes": Value::Array(passes.iter().map(pass_json).collect()),
        "per_pass": Value::Object(per_pass),
        "digest": format!("{:016x}", passes[0].digest),
        "clients": clients,
        "rss_at_entry_bytes": rss_at_entry,
        "info": float_map(&last.layers),
    });
    Ok(Outcome {
        metrics,
        sources: BTreeMap::new(),
        attempted,
        failures,
        detail,
    })
}

/// The traced run: one untraced pass for reference, one pass with the
/// outside instrumentation on, a smoke-scale traced pass of each layer
/// family the workload does not reach, and the probes.
fn measure_layers(job: &Job) -> std::io::Result<Outcome> {
    let scratch = job
        .out
        .join("scratch")
        .join(format!("{}.traced", job.workload));
    let mut tracer = Tracer::new();
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut source: BTreeMap<String, String> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    // Take a traced pass's layer figures, remembering where they came from.
    let mut absorb = |pass: &Pass, from: &str, failures: &mut Vec<String>| {
        attempted += pass.attempted;
        failures.extend(pass.failures.iter().map(|f| format!("{from}: {f}")));
        for (name, value) in &pass.layers {
            layers.insert(name.clone(), *value);
            source.insert(name.clone(), from.to_string());
        }
    };

    // Other families first, so the asked-for workload's own pass
    // overwrites whatever names they share.
    for side in SIDE_PASSES {
        if side == job.workload {
            continue;
        }
        let id = tracer.enter(&format!("side.{side}"));
        let mut wl = workload::prepare(side, job.seed, Scale::Smoke, &scratch)?;
        let pass = wl.pass(Some(&mut tracer));
        tracer.exit(id);
        absorb(&pass, &format!("{side}@smoke"), &mut failures);
    }

    let id = tracer.enter("setup");
    let mut wl = workload::prepare(&job.workload, job.seed, job.scale, &scratch)?;
    tracer.exit(id);
    tracer.set_pass(1);
    let id = tracer.enter("pass.untraced");
    let reference = wl.pass(None);
    tracer.exit(id);
    tracer.set_pass(2);
    let traced_span = tracer.enter("pass.traced");
    let traced = wl.pass(Some(&mut tracer));
    tracer.exit(traced_span);
    drop(wl);
    absorb(&traced, &job.workload, &mut failures);
    attempted += reference.attempted;
    failures.extend(
        reference
            .failures
            .iter()
            .map(|f| format!("untraced pass: {f}")),
    );
    if reference.digest != traced.digest && job.workload != "live_udp" {
        failures.push(format!(
            "traced pass digest {:016x} differs from the untraced {:016x}",
            traced.digest, reference.digest
        ));
    }

    tracer.set_pass(0);
    let (probed, probe_failures) = tracer.span("probes", probes::run_all);
    attempted += 1;
    failures.extend(probe_failures);
    for (name, value) in probed {
        source.insert(name.clone(), "probe".into());
        layers.insert(name, value);
    }
    for (name, value) in [
        ("bench.calibration_ns", measure::calibration_ns()),
        (
            "bench.trace_overhead_ratio",
            traced.wall_s / reference.wall_s,
        ),
        (
            // A workload whose spans sit on two threads works its share
            // out itself; for the rest it is the pass span's children.
            "bench.span_coverage",
            traced
                .layers
                .get("bench.span_coverage")
                .copied()
                .unwrap_or_else(|| tracer.coverage(traced_span)),
        ),
    ] {
        source.insert(name.to_string(), "harness".into());
        layers.insert(name.to_string(), value);
    }
    std::fs::remove_dir_all(&scratch).ok();

    let mut metrics = Vec::new();
    for (name, unit, _) in metrics::per_layer() {
        match layers.get(&name) {
            Some(&value) => metrics.push((name, unit, value)),
            None => failures.push(format!("layer metric {name} was not measured")),
        }
    }
    std::fs::create_dir_all(&job.out)?;
    let trace_path = job.out.join(format!("trace.{}.json", job.workload));
    let body = json!({
        "workload": job.workload.as_str(),
        "seed": job.seed,
        "scale": format!("{:?}", job.scale).to_lowercase(),
        "untraced_wall_s": reference.wall_s,
        "traced_wall_s": traced.wall_s,
        "layers": float_map(&layers),
        "trace": tracer.to_json(),
    });
    write_json(&trace_path, &body).map_err(std::io::Error::other)?;
    println!("trace {}", trace_path.display());
    let detail = json!({
        "trace_file": trace_path.display().to_string(),
        "untraced_wall_s": reference.wall_s,
        "traced_wall_s": traced.wall_s,
    });
    Ok(Outcome {
        metrics,
        sources: source,
        attempted,
        failures,
        detail,
    })
}

/// Run one job in this process and print it the way the contract asks:
/// `name unit value` lines, then one JSON object on the last line.
fn run_job(job: &Job, entry: Instant, rss_at_entry: u64) -> ExitCode {
    emptcp_telemetry::log::set_level(emptcp_telemetry::log::Level::Quiet);
    let outcome = if job.traced {
        measure_layers(job)
    } else {
        measure_end_to_end(job, entry, rss_at_entry)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", job.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, unit, value) in &outcome.metrics {
        match outcome.sources.get(name) {
            Some(source) => println!("{name} {unit} {value} from {source}"),
            None => println!("{name} {unit} {value}"),
        }
    }
    for failure in &outcome.failures {
        println!("failed {failure}");
    }
    let failed = (outcome.failures.len() as u64).min(outcome.attempted);
    let fail_ratio = failed as f64 / outcome.attempted.max(1) as f64;
    println!("fail_ratio ratio {fail_ratio}");
    // The detail line keeps every metric; the driver's result line carries
    // the ones `BENCHMARK.json` lists and no others.
    let in_manifest = |name: &str| {
        job.traced
            || metrics::END_TO_END
                .iter()
                .any(|m| m.listed && m.name == name)
    };
    let object = |keep: &dyn Fn(&str) -> bool| -> Map {
        outcome
            .metrics
            .iter()
            .filter(|(name, _, _)| keep(name))
            .map(|(name, unit, value)| (name.clone(), json!({ "value": *value, "unit": *unit })))
            .collect()
    };
    let mut detail = outcome.detail;
    if let Value::Object(m) = &mut detail {
        m.insert("workload", Value::Str(job.workload.clone()));
        m.insert("seed", Value::U64(job.seed));
        m.insert("attempted", Value::U64(outcome.attempted));
        m.insert("failed", Value::U64(failed));
        m.insert("failures", json!(outcome.failures));
        m.insert("metrics", Value::Object(object(&|_| true)));
    }
    println!(
        "detail {}",
        serde_json::to_string(&detail).expect("json prints")
    );
    let last = json!({
        "correct": outcome.failures.is_empty(),
        "attempted": outcome.attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(object(&in_manifest)),
    });
    println!("{}", serde_json::to_string(&last).expect("json prints"));
    // A run that measured and reported has done its job; whether the
    // outputs were correct is in the report, and `run` and `trace` turn
    // a failed check into their own exit code.
    ExitCode::SUCCESS
}

/// Re-execute this program for one workload and hand back its `detail`
/// line. The child's report goes to our stdout as it is.
fn spawn_job(workload: &str, flags: &Flags, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &flags.number("seed", 1u64)?.to_string()])
        .args([
            "--seconds",
            &flags.number("seconds", default_seconds(flags))?.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(flags.out_dir())
        .stdout(Stdio::piped())
        // A child that dies says why on stderr; let it through.
        .stderr(Stdio::inherit());
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    println!("== {workload}{}", if traced { " (traced)" } else { "" });
    for line in text.lines() {
        match line.strip_prefix("detail ") {
            Some(body) => detail = serde_json::from_str::<Value>(body).ok(),
            // The result line repeats the metric lines; the trace piece
            // is about to be gathered into trace.json.
            None if line.starts_with('{') || line.starts_with("trace ") => {}
            None => println!("{line}"),
        }
    }
    let mut detail = detail.ok_or(format!(
        "{workload}: exited {} without a report",
        output.status
    ))?;
    if let Value::Object(m) = &mut detail {
        m.insert("exit_ok", Value::Bool(output.status.success()));
    }
    Ok(detail)
}

/// `--seconds` when none is given: one pass at smoke scale, the driver's
/// `run_seconds` otherwise.
fn default_seconds(flags: &Flags) -> f64 {
    if flags.smoke {
        0.0
    } else {
        metrics::RUN_SECONDS as f64
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and the build, recorded beside the metrics.
fn environment() -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        "kernel": kernel,
        "rustc": command_line("rustc", &["--version"]),
        "commit": command_line("git", &["rev-parse", "HEAD"]),
        "bench.calibration_ns": measure::calibration_ns(),
    })
}

fn write_json(path: &Path, body: &Value) -> Result<(), String> {
    std::fs::write(
        path,
        serde_json::to_string_pretty(body).expect("json prints"),
    )
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// The exit code of `run` and `trace`: failure if any workload's run
/// died or reported a failed output check.
fn exit_code(details: &[(String, Value)]) -> ExitCode {
    let failed: Vec<&str> = details
        .iter()
        .filter(|(_, d)| {
            d.get("exit_ok").and_then(Value::as_bool) != Some(true)
                || d.get("failed").and_then(Value::as_u64) != Some(0)
        })
        .map(|(name, _)| name.as_str())
        .collect();
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: output checks failed on: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}

/// `benchmark run`: every workload in a process of its own, the report
/// of each as it comes, and `results.json`.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let out = flags.out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut details = Vec::new();
    for name in workload::NAMES {
        details.push((name.to_string(), spawn_job(name, flags, false)?));
    }
    let code = exit_code(&details);
    let results = json!({
        "schema": 1u64,
        "seed": flags.number("seed", 1u64)?,
        "scale": format!("{:?}", flags.scale()).to_lowercase(),
        "seconds": flags.number("seconds", default_seconds(flags))?,
        "environment": environment(),
        "workloads": Value::Object(details.into_iter().collect::<Map>()),
    });
    let path = out.join("results.json");
    write_json(&path, &results)?;
    println!("results {}", path.display());
    Ok(code)
}

/// `benchmark trace`: the traced run of one workload or of each, and
/// their span stores gathered into `trace.json`.
fn trace_all(flags: &Flags) -> Result<ExitCode, String> {
    let names: Vec<&str> = match flags.values.get("workload") {
        Some(name) => vec![name.as_str()],
        None => workload::NAMES.to_vec(),
    };
    let mut details = Vec::new();
    let mut traces = Map::new();
    for name in names {
        let detail = spawn_job(name, flags, true)?;
        if let Some(file) = detail.get("trace_file").and_then(Value::as_str) {
            traces.insert(name, load_json(Path::new(file))?);
            std::fs::remove_file(file).ok();
        }
        details.push((name.to_string(), detail));
    }
    let path = flags.out_dir().join("trace.json");
    let body =
        json!({ "schema": 1u64, "environment": environment(), "workloads": Value::Object(traces) });
    write_json(&path, &body)?;
    println!("trace {}", path.display());
    Ok(exit_code(&details))
}

fn load_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let entry = Instant::now();
    let rss_at_entry = measure::rss_bytes();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace" | "compare" | "manifest")) => (cmd, &args[1..]),
        Some(_) => ("job", &args[..]),
        None => return usage(),
    };
    if command == "manifest" {
        println!(
            "{}",
            serde_json::to_string_pretty(&metrics::manifest()).expect("json prints")
        );
        return ExitCode::SUCCESS;
    }
    if command == "compare" {
        let [a, b] = rest else { return usage() };
        return match (load_json(Path::new(a)), load_json(Path::new(b))) {
            (Ok(a), Ok(b)) => {
                let report = compare::compare(&a, &b);
                print!("{}", report.text);
                if report.failed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let flags = match Flags::parse(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return usage();
        }
    };
    let outcome = match command {
        "run" => run_all(&flags),
        "trace" => trace_all(&flags),
        _ => Job::from_flags(&flags).map(|job| run_job(&job, entry, rss_at_entry)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            usage()
        }
    }
}
