//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro --list            list experiment ids
//! repro fig5 fig6         run specific experiments (full scale)
//! repro all               run everything
//! repro --quick all       shrunk transfers (smoke test)
//! repro --out results all custom output directory
//! repro --seed 7 fig5     override the experiment seed
//! repro --quiet fig9      tables only, no progress or metrics chatter
//! repro --jobs 4 all      simulate and reduce on 4 threads
//! repro --trace fig5      also write <out>/<id>.trace.jsonl
//! repro fleet --trace fleet.jsonl   record one exhibit to an explicit path
//! repro --clients 100 fleet   size the fleet exhibit's client count
//! repro --clients 1000000 --shards 8 fleet   sharded million-stack run
//! repro monitor --clients 16 --duration-s 4   live fleet dashboard
//! repro monitor --follow fleet.jsonl --idle-timeout-s 0   read a recording
//! ```
//!
//! Each experiment prints its tables and writes `<out>/<id>.{txt,json}`.
//! Every experiment runs with a fresh telemetry pipeline (metrics +
//! invariant observer, plus a JSONL trace sink under `--trace`), so a
//! short metrics roll-up follows each one and invariant violations
//! surface as warnings.
//!
//! `--jobs N` simulates the distinct host runs the requested exhibits
//! plan, then reduces the exhibits, each on `N` threads (a fleet exhibit
//! requested alone runs its shards on them instead). Output is
//! byte-identical to `--jobs 1`: seeds are fixed in the plans and results
//! land in plan order, never in scheduling order. The default is the
//! machine's available parallelism.

use emptcp_expr::figures::{self, Config};
use emptcp_expr::flags;
use emptcp_expr::monitor::{self, MonitorOptions, Source};
use emptcp_expr::repro::{self, ReproOptions};
use emptcp_expr::runner::Runner;
use emptcp_telemetry::{info, log, warn};
use std::path::PathBuf;
use std::time::Instant;

fn monitor_usage() -> ! {
    eprintln!(
        "usage: repro monitor [options]
  --clients N          fleet size                        (default 16)
  --seed N             simulation seed                   (default 42)
  --duration-s X       simulated seconds                 (default 4)
  --record PATH        also record the trace as JSONL for --follow
  --follow PATH        read a JSONL trace instead of running a fleet,
                       a recording or one another process is writing
                       (e.g. simulate serve --trace PATH)
  --idle-timeout-s X   with --follow: stop after X s without new data;
                       0 stops at the end of the file    (default 3)
  --export-json PATH   write the deterministic time-series JSON export
  --export-csv PATH    write the per-bin CSV export
  --quiet              no dashboard (exports still written)

A malformed trace line (PATH:LINE: error; blank lines are skipped) or
an invariant violation of the fleet is reported on stderr and makes
the exit status 1; the exports are written anyway."
    );
    std::process::exit(2);
}

fn monitor_main(args: Vec<String>) -> ! {
    let (mut clients, mut seed, mut duration_s) = (16, 42, 4.0);
    let (mut record, mut follow, mut idle_timeout_s) = (None, None, 3.0);
    let (mut export_json, mut export_csv, mut quiet) = (None, None, false);
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => clients = flags::value(&mut it, "--clients"),
            "--seed" => seed = flags::value(&mut it, "--seed"),
            "--duration-s" => duration_s = flags::value(&mut it, "--duration-s"),
            "--record" => record = Some(flags::value(&mut it, "--record")),
            "--follow" => follow = Some(flags::value(&mut it, "--follow")),
            "--idle-timeout-s" => idle_timeout_s = flags::value(&mut it, "--idle-timeout-s"),
            "--export-json" => export_json = Some(flags::value(&mut it, "--export-json")),
            "--export-csv" => export_csv = Some(flags::value(&mut it, "--export-csv")),
            "--quiet" => quiet = true,
            _ => monitor_usage(),
        }
    }
    if quiet {
        log::set_level(log::Level::Quiet);
    }
    let source = match follow {
        Some(path) => Source::Trace {
            path,
            idle_timeout_s,
        },
        None => Source::Fleet {
            clients,
            seed,
            duration_s,
            record,
        },
    };
    let opts = MonitorOptions {
        source,
        export_json,
        export_csv,
        quiet,
    };
    match monitor::monitor(&opts) {
        Ok(faults) => std::process::exit(i32::from(faults > 0)),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("repro monitor: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("monitor") {
        args.remove(0);
        monitor_main(args);
    }
    let mut quick = false;
    let mut quiet = false;
    let mut trace = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut seed: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut clients: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for id in repro::IDS {
                    println!("{id}");
                }
                return;
            }
            "--quick" => quick = true,
            "--quiet" => quiet = true,
            "--trace" => {
                trace = true;
                // Optional path operand (`repro fleet --trace fleet.jsonl`,
                // matching `simulate --trace PATH`). A following token that
                // is a flag, an exhibit id, or `all` keeps the per-exhibit
                // default destination.
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") && next != "all" && !repro::is_known(next) {
                        trace_path = Some(PathBuf::from(it.next().expect("peeked")));
                    }
                }
            }
            "--out" => out_dir = flags::value(&mut it, "--out"),
            "--seed" => seed = Some(flags::value(&mut it, "--seed")),
            "--jobs" => jobs = Some(flags::value(&mut it, "--jobs")),
            "--clients" => clients = Some(flags::value(&mut it, "--clients")),
            "--shards" => shards = Some(flags::value(&mut it, "--shards")),
            "all" => ids.extend(repro::IDS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--quiet] [--trace [PATH]] [--jobs N] [--clients N] [--shards N] [--out DIR] (all | <id>...)"
        );
        eprintln!(
            "       repro monitor [--clients N] [--seed N] [--duration-s X] [--record PATH] [--follow PATH] ..."
        );
        eprintln!("ids: {}", repro::IDS.join(" "));
        std::process::exit(2);
    }
    for id in &ids {
        if !repro::is_known(id) {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        }
    }
    if quiet {
        log::set_level(log::Level::Quiet);
    }
    let mut cfg = if quick {
        Config::quick()
    } else {
        Config::full()
    };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if let Some(clients) = clients {
        cfg.fleet_clients = clients;
    }
    cfg.fleet_shards = shards;
    if let Err(e) = figures::fleet_config(&cfg, true).validate() {
        eprintln!("error: --clients: {e}");
        std::process::exit(2);
    }
    // Each exhibit runs once, where it was first asked for.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    if trace_path.is_some() && ids.len() != 1 {
        eprintln!(
            "--trace PATH records exactly one exhibit; got {}",
            ids.len()
        );
        std::process::exit(2);
    }

    let jobs = jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let runner = Runner::new(jobs);
    let opts = ReproOptions {
        cfg,
        out_dir,
        trace,
        trace_path,
    };
    let started = Instant::now();
    let reports = runner
        .install(|| repro::run_exhibits(&ids, &opts))
        .unwrap_or_else(|e| {
            eprintln!("repro: running exhibits: {e}");
            std::process::exit(1);
        });
    for report in &reports {
        print!("{}", report.rendered);
        let label = report.ids.join("+");
        for v in &report.violations {
            warn!("[{label}] {v}");
        }
        if !report.violations.is_empty() {
            warn!(
                "[{label}] {} invariant violation(s)",
                report.violations.len()
            );
        }
        if !report.metrics.is_empty() {
            let line = report
                .metrics
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect::<Vec<_>>()
                .join(" ");
            info!("[{label}] metrics: {line}");
        }
        if !quiet {
            println!();
        }
    }
    if reports.len() > 1 {
        let busy: f64 = reports.iter().map(|r| r.wall_s).sum();
        info!(
            "{} exhibits in {:.1}s wall ({:.1}s of work, {jobs} job(s))",
            reports.len(),
            started.elapsed().as_secs_f64(),
            busy
        );
    }
    // An exhibit whose invariants failed has no output worth trusting.
    if reports.iter().any(|r| !r.violations.is_empty()) {
        std::process::exit(1);
    }
}
