//! Run one scenario from the command line and print the result.
//!
//! ```text
//! simulate --strategy emptcp --wifi-mbps 3 --cell-mbps 12 --size-mb 16
//! simulate --strategy mptcp --scenario mobility --json
//! simulate --strategy emptcp --trace run.jsonl --metrics run.json
//! simulate --list-strategies
//! simulate monitor --replay fleet.trace.jsonl
//! simulate monitor --replay fleet.trace.jsonl --check --export-json out.json
//! simulate scenario --list
//! simulate scenario --name ap-vanish --trace ap-vanish.jsonl
//! simulate scenario --corpus --check --jobs 4
//! simulate scenario --fuzz --cases 100 --seed 7
//! simulate scenario --file results/repros/fuzz-7-12-min.scenario --check
//! simulate serve --port 46100 --size-mb 4 --trace serve.jsonl
//! simulate connect --port 46110 --peer 127.0.0.1:46100 --size-mb 4
//! ```
//!
//! This is the downstream-user entry point: where `repro` regenerates the
//! paper's figures, `simulate` answers "what would strategy X do in my
//! environment?". With `--trace`/`--metrics` the run is instrumented: every
//! stack event goes to a JSONL trace (byte-identical across runs with the
//! same seed), a metrics snapshot is written as JSON, and the online
//! invariant observer checks conservation properties as the run executes.

use emptcp_expr::scenario::{Scenario, Workload};
use emptcp_expr::{flags, host, Strategy};
use emptcp_scenario::StrategyKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::{info, log, warn, JsonlSink, Telemetry};

fn usage() -> ! {
    eprintln!(
        "usage: simulate [options]
  --strategy NAME      mptcp | emptcp | tcp-wifi | tcp-cellular |
                       wifi-first | mdp | single-path     (default emptcp)
  --scenario NAME      custom | good | bad | bwchange | background |
                       mobility | web | outage | upload | streaming
                       (default custom)
  --wifi-mbps X        WiFi capacity for 'custom'          (default 10)
  --cell-mbps X        cellular capacity for 'custom'      (default 12)
  --rtt-ms N           WiFi base RTT for 'custom'          (default 25)
  --size-mb X          download size for 'custom'/'good'/'bad' (default 16)
  --seed N             simulation seed                     (default 42)
  --json               print the RunResult as JSON (each time series as
                       its point count, FNV-1a digest and a 100-point
                       sample)
  --trace PATH         write a JSONL event trace (enables invariant checks)
  --metrics PATH       write a JSON metrics snapshot (enables invariant checks)
  --quiet              suppress the human-readable summary and progress output
  --list-strategies    list strategy names and exit"
    );
    std::process::exit(2);
}

fn monitor_usage() -> ! {
    eprintln!(
        "usage: simulate monitor --replay <trace.jsonl> [options]
  --replay PATH        recorded JSONL trace to replay (required)
  --check              machine mode: no dashboard, exit 1 on malformed
                       lines (CI replays twice and diffs the exports)
  --export-json PATH   write the deterministic time-series JSON export
  --export-csv PATH    write the per-bin CSV export
  --quiet              suppress the final dashboard frame"
    );
    std::process::exit(2);
}

fn monitor_main(args: Vec<String>) -> ! {
    use emptcp_expr::monitor::{self, ReplayOptions};
    let mut trace: Option<std::path::PathBuf> = None;
    let mut check = false;
    let mut export_json = None;
    let mut export_csv = None;
    let mut quiet = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--replay" => trace = Some(flags::value(&mut it, "--replay")),
            "--check" => check = true,
            "--export-json" => export_json = Some(flags::value(&mut it, "--export-json")),
            "--export-csv" => export_csv = Some(flags::value(&mut it, "--export-csv")),
            "--quiet" => quiet = true,
            _ => monitor_usage(),
        }
    }
    let Some(trace) = trace else { monitor_usage() };
    let opts = ReplayOptions {
        trace,
        check,
        export_json,
        export_csv,
        quiet,
    };
    match monitor::run_replay(&opts) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("simulate monitor: {e}");
            std::process::exit(1);
        }
    }
}

fn live_usage(role: &str) -> ! {
    let (extra, what) = if role == "serve" {
        (
            "",
            "host the data sender: bind ports, learn the peer, push bytes",
        )
    } else {
        (
            "\n  --peer ADDR          serving side's first port, e.g. 127.0.0.1:46100 (required)",
            "run the receiver: initiate subflow handshakes, pull bytes",
        )
    };
    eprintln!(
        "usage: simulate {role} [options]
  ({what})
  --port N             first local UDP port; path i binds port+i (default {})
  --size-mb X          transfer size in MiB                  (default 4){extra}
  --seed N             shaping-draw seed                     (default 1)
  --wifi-delay-ms N    one-way delay injected on the WiFi path    (default 0)
  --cell-delay-ms N    one-way delay injected on the cellular path (default 0)
  --wifi-loss X        loss probability on the WiFi path     (default 0)
  --cell-loss X        loss probability on the cellular path (default 0)
  --jitter-ms N        per-frame jitter bound, both paths    (default 0)
  --handover-ms A:G    WiFi blackout at A ms lasting G ms (FaultPlan handover)
  --trace PATH         write the JSONL decision trace (follow with
                       `repro monitor --follow PATH`)
  --limit-s N          give up after N wall seconds          (default 60)
  --json               print the transfer report as JSON

Each endpoint advertises at most a third of its UDP socket's receive
buffer per path (rmem_default / 3: 70 997 bytes on a stock Linux box;
printed as udp.rx_window), so a transfer never overflows
its own sockets (udp.rcvbuf_drops=0, tcp.rto=0 unshaped). The price is
the usual one: a path carries at most window/RTT, e.g. 10 ms of injected
delay each way caps it near 3.5 MB/s.",
        if role == "serve" { 46100 } else { 46110 }
    );
    std::process::exit(2);
}

fn live_main(role: &str, args: Vec<String>) -> ! {
    use emptcp_live::{run_connect, run_serve, SessionConfig};

    let mut cfg = SessionConfig::new(if role == "serve" { 46100 } else { 46110 }, 4 << 20);
    let mut wifi_delay = 0u64;
    let mut cell_delay = 0u64;
    let mut wifi_loss = 0.0f64;
    let mut cell_loss = 0.0f64;
    let mut jitter = 0u64;
    let mut json = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => cfg.port_base = flags::value(&mut it, "--port"),
            "--size-mb" => {
                let mb: f64 = flags::value(&mut it, "--size-mb");
                cfg.size = (mb * (1 << 20) as f64) as u64;
            }
            "--peer" => cfg.peer = Some(flags::value(&mut it, "--peer")),
            "--seed" => cfg.seed = flags::value(&mut it, "--seed"),
            "--wifi-delay-ms" => wifi_delay = flags::value(&mut it, "--wifi-delay-ms"),
            "--cell-delay-ms" => cell_delay = flags::value(&mut it, "--cell-delay-ms"),
            "--wifi-loss" => wifi_loss = flags::value(&mut it, "--wifi-loss"),
            "--cell-loss" => cell_loss = flags::value(&mut it, "--cell-loss"),
            "--jitter-ms" => jitter = flags::value(&mut it, "--jitter-ms"),
            "--handover-ms" => {
                let spec: String = flags::value(&mut it, "--handover-ms");
                let (at, gap) = spec.split_once(':').unwrap_or_else(|| {
                    eprintln!("--handover-ms wants AT:GAP in ms");
                    live_usage(role)
                });
                cfg.faults = cfg.faults.clone().handover(
                    SimTime::from_millis(flags::parsed("--handover-ms AT", at)),
                    SimDuration::from_millis(flags::parsed("--handover-ms GAP", gap)),
                );
            }
            "--trace" => cfg.trace = Some(flags::value(&mut it, "--trace")),
            "--limit-s" => cfg.wall_limit = SimTime::from_secs(flags::value(&mut it, "--limit-s")),
            "--json" => json = true,
            "--help" | "-h" => live_usage(role),
            other => {
                eprintln!("unknown option: {other}");
                live_usage(role);
            }
        }
    }
    cfg.paths = vec![
        emptcp_live::ChaosPath::new(wifi_loss, SimDuration::from_millis(wifi_delay), jitter),
        emptcp_live::ChaosPath::new(cell_loss, SimDuration::from_millis(cell_delay), jitter),
    ];

    let report = if role == "serve" {
        run_serve(&cfg)
    } else {
        run_connect(&cfg)
    }
    .unwrap_or_else(|e| {
        eprintln!("simulate {role}: {e}");
        std::process::exit(1);
    });

    // The engine's `live.*` counters, then gauges, each in name order.
    let engine: Vec<String> = {
        let m = &report.metrics;
        let counters = m.counters().map(|(k, v)| (k, v as f64));
        counters
            .chain(m.gauges())
            .filter(|(k, _)| k.starts_with("live."))
            .map(|(k, v)| {
                if json {
                    format!("\"{k}\":{v}")
                } else {
                    format!("{}={v}", &k["live.".len()..])
                }
            })
            .collect()
    };
    if json {
        // Hand-rolled: the report is flat and this keeps serde out of it.
        println!(
            "{{\"role\":\"{role}\",\"complete\":{},\"bytes\":{},\"wifi\":{},\"cellular\":{},\
             \"elapsed_s\":{:.3},\"datagrams_sent\":{},\"datagrams_received\":{},\
             \"metrics\":{{{}}}}}",
            report.complete,
            report.bytes,
            report.wifi,
            report.cellular,
            report.elapsed.as_secs_f64(),
            report.datagrams_sent,
            report.datagrams_received,
            engine.join(",")
        );
    } else {
        // One greppable line per run; CI parses this.
        println!(
            "live-transfer role={role} complete={} bytes={} wifi={} cellular={} \
             elapsed_s={:.3} datagrams_sent={} datagrams_received={}",
            report.complete,
            report.bytes,
            report.wifi,
            report.cellular,
            report.elapsed.as_secs_f64(),
            report.datagrams_sent,
            report.datagrams_received
        );
        // Where the time went and what the sockets dropped.
        println!("live-engine role={role} {}", engine.join(" "));
    }
    std::process::exit(if report.complete { 0 } else { 1 });
}

/// A pipeline with the invariant observer on and, given a path, a JSONL
/// trace sink writing there.
fn instrumented(trace_path: Option<&str>) -> Telemetry {
    let mut builder = Telemetry::builder().invariants(true);
    if let Some(path) = trace_path {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {path}: {e}");
            std::process::exit(2);
        });
        builder = builder.sink(Box::new(JsonlSink::new(file)));
    }
    builder.build()
}

fn scenario_usage() -> ! {
    eprintln!(
        "usage: simulate scenario [options]
  --list               list the committed corpus (sorted) and exit
  --name NAME          run one corpus scenario through the oracles
  --file PATH          run a .scenario file (e.g. a shrunk repro)
  --corpus             replay the whole corpus deterministically
  --fuzz               generate and certify arbitrary valid scenarios
  --cases N            fuzz cases                          (default 100)
  --seed N             scenario-seed override / fuzz root seed (default 42)
  --check              exit non-zero on any oracle violation (CI gate)
  --json               print each chaos report as JSON
  --jobs N             worker pool size                    (default 1)
  --out DIR            write per-scenario corpus reports here
  --trace PATH         write the judged run's JSONL event trace
                       (--name or --file only)
  --repro-dir DIR      write shrunk fuzz repros here (default results/repros)
  --sabotage-oracle O  deliberately break oracle O ('delivery') to
                       exercise the fuzz -> shrink -> repro pipeline
  --quiet              suppress progress output"
    );
    std::process::exit(2);
}

fn print_chaos_report(r: &emptcp_expr::chaos::ChaosReport) {
    let verdict = if r.ok() { "certified" } else { "VIOLATED" };
    println!(
        "{:<28} {:<5} seed {:<10} faults {:<3} {}",
        r.scenario, r.world, r.seed, r.faults_injected, verdict
    );
    for v in &r.violations {
        println!("  oracle {:<22} {}", v.oracle, v.detail);
    }
}

/// The faulted run against its fault-free baseline, for a file that
/// expects goodput.
fn print_resilience(r: &emptcp_expr::chaos::ChaosReport) {
    let Some(s) = &r.resilience else { return };
    println!(
        "  completed         {} ({:.2} MB delivered)",
        s.completed,
        r.bytes_delivered as f64 / (1 << 20) as f64
    );
    println!(
        "  time              {:.2} s faulted vs {:.2} s fault-free",
        s.faulted_time_s, s.baseline_time_s
    );
    println!("  goodput retained  {:.0}%", s.goodput_retained * 100.0);
    println!(
        "  energy            {:.2} J faulted vs {:.2} J fault-free ({:+.2} J overhead)",
        s.faulted_energy_j, s.baseline_energy_j, s.energy_overhead_j
    );
    println!(
        "  failures          {} link-down, {} RTO-declared",
        s.link_down_events, s.subflow_failures
    );
    println!(
        "  recovery          {} promotions, {} revivals, {:.1} KB reinjected, worst latency {:.3} s",
        s.backup_promotions,
        s.subflow_revivals,
        s.bytes_reinjected as f64 / 1024.0,
        s.worst_recovery_latency_s
    );
}

fn scenario_main(args: Vec<String>) -> ! {
    use emptcp_expr::chaos;
    use emptcp_scenario::corpus;

    let mut list = false;
    let mut name: Option<String> = None;
    let mut file: Option<String> = None;
    let mut run_corpus = false;
    let mut fuzz = false;
    let mut cases = 100u64;
    let mut seed: Option<u64> = None;
    let mut do_check = false;
    let mut json = false;
    let mut jobs = 1usize;
    let mut out_dir: Option<String> = None;
    let mut repro_dir = "results/repros".to_string();
    let mut sabotage: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut quiet = false;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--name" => name = Some(flags::value(&mut iter, "--name")),
            "--file" => file = Some(flags::value(&mut iter, "--file")),
            "--corpus" => run_corpus = true,
            "--fuzz" => fuzz = true,
            "--cases" => cases = flags::value(&mut iter, "--cases"),
            "--seed" => seed = Some(flags::value(&mut iter, "--seed")),
            "--check" => do_check = true,
            "--json" => json = true,
            "--jobs" => jobs = flags::value(&mut iter, "--jobs"),
            "--out" => out_dir = Some(flags::value(&mut iter, "--out")),
            "--repro-dir" => repro_dir = flags::value(&mut iter, "--repro-dir"),
            "--sabotage-oracle" => sabotage = Some(flags::value(&mut iter, "--sabotage-oracle")),
            "--trace" => trace_path = Some(flags::value(&mut iter, "--trace")),
            "--quiet" => quiet = true,
            "--help" | "-h" => scenario_usage(),
            other => {
                eprintln!("unknown option: {other}");
                scenario_usage();
            }
        }
    }
    if quiet {
        log::set_level(log::Level::Quiet);
    }
    let sabotage = sabotage.as_deref();
    if let Some(s) = sabotage {
        if s != chaos::SABOTAGE_DELIVERY {
            eprintln!("unknown oracle to sabotage: {s} (supported: delivery)");
            std::process::exit(2);
        }
    }
    if trace_path.is_some() && (fuzz || run_corpus) {
        eprintln!("--trace records one run: use it with --name or --file");
        std::process::exit(2);
    }

    if list {
        for n in corpus::names() {
            let sc = corpus::load(n).expect("corpus scenario loads");
            println!("{:<28} {:<5} {}", n, sc.world_label(), sc.summary);
        }
        std::process::exit(0);
    }

    let runner = emptcp_expr::Runner::new(jobs);

    if fuzz {
        let root = seed.unwrap_or(42);
        let outcome = runner
            .install(|| chaos::fuzz(root, cases, sabotage, Some(repro_dir.as_ref())))
            .unwrap_or_else(|e| {
                eprintln!("simulate scenario: cannot write repros: {e}");
                std::process::exit(1);
            });
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&outcome).expect("outcome serializes")
            );
        } else {
            info!(
                "fuzz: {} cases from seed {}, {} oracle failure(s)",
                outcome.cases,
                outcome.seed,
                outcome.failures.len()
            );
            for f in &outcome.failures {
                println!(
                    "case {:<4} {:<24} -> {} ({} fault(s), {} client(s)){}",
                    f.case,
                    f.scenario,
                    f.violations[0].oracle,
                    f.shrunk_faults,
                    f.shrunk_clients,
                    f.repro_path
                        .as_deref()
                        .map(|p| format!(" repro: {p}"))
                        .unwrap_or_default()
                );
            }
        }
        std::process::exit(if outcome.failures.is_empty() { 0 } else { 1 });
    }

    if run_corpus {
        let reports = runner
            .install(|| chaos::replay_corpus(out_dir.as_deref().map(std::path::Path::new)))
            .unwrap_or_else(|e| {
                eprintln!("simulate scenario: cannot write reports: {e}");
                std::process::exit(1);
            });
        let mut failures = 0usize;
        for r in &reports {
            if json {
                print!("{}", chaos::report_json(r));
            } else {
                print_chaos_report(r);
            }
            failures += usize::from(!r.ok());
        }
        if !json {
            info!(
                "corpus: {} scenario(s), {} failure(s)",
                reports.len(),
                failures
            );
        }
        std::process::exit(if do_check && failures > 0 { 1 } else { 0 });
    }

    // Single-scenario modes: --name (corpus) or --file (any .scenario).
    let mut sc = match (&name, &file) {
        (Some(n), None) => corpus::load(n).unwrap_or_else(|| {
            eprintln!("unknown corpus scenario '{n}' (try --list)");
            std::process::exit(2);
        }),
        (None, Some(path)) => {
            emptcp_scenario::io::load(std::path::Path::new(path)).unwrap_or_else(|e| {
                eprintln!("simulate scenario: {e}");
                std::process::exit(2);
            })
        }
        _ => scenario_usage(),
    };
    if let Some(s) = seed {
        sc.seed = s;
    }
    let telemetry = instrumented(trace_path.as_deref());
    let report = runner
        .install(|| chaos::run_traced(&sc, sabotage, telemetry))
        .unwrap_or_else(|e| {
            eprintln!("simulate scenario: {e}");
            std::process::exit(2);
        });
    if json {
        print!("{}", chaos::report_json(&report));
    } else {
        print_chaos_report(&report);
        print_resilience(&report);
    }
    std::process::exit(if do_check && !report.ok() { 1 } else { 0 });
}

fn main() {
    let mut args_vec: Vec<String> = std::env::args().skip(1).collect();
    match args_vec.first().cloned().as_deref() {
        Some("monitor") => monitor_main(args_vec.split_off(1)),
        Some("scenario") => scenario_main(args_vec.split_off(1)),
        Some(role @ ("serve" | "connect")) => live_main(role, args_vec.split_off(1)),
        _ => {}
    }

    let mut strategy_name = "emptcp".to_string();
    let mut scenario_name = "custom".to_string();
    let mut wifi_mbps = 10.0f64;
    let mut cell_mbps = 12.0f64;
    let mut rtt_ms = 25u64;
    let mut size_mb = 16.0f64;
    let mut seed = 42u64;
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strategy" => strategy_name = flags::value(&mut args, "--strategy"),
            "--scenario" => scenario_name = flags::value(&mut args, "--scenario"),
            "--wifi-mbps" => wifi_mbps = flags::value(&mut args, "--wifi-mbps"),
            "--cell-mbps" => cell_mbps = flags::value(&mut args, "--cell-mbps"),
            "--rtt-ms" => rtt_ms = flags::value(&mut args, "--rtt-ms"),
            "--size-mb" => size_mb = flags::value(&mut args, "--size-mb"),
            "--seed" => seed = flags::value(&mut args, "--seed"),
            "--json" => json = true,
            "--trace" => trace_path = Some(flags::value(&mut args, "--trace")),
            "--metrics" => metrics_path = Some(flags::value(&mut args, "--metrics")),
            "--quiet" => quiet = true,
            "--list-strategies" => {
                for kind in StrategyKind::ALL {
                    println!("{}", kind.label());
                }
                return;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
    }

    let strategy = StrategyKind::ALL
        .into_iter()
        .find(|kind| kind.label() == strategy_name)
        .map(Strategy::from)
        .unwrap_or_else(|| {
            eprintln!("unknown strategy '{strategy_name}'");
            usage();
        });

    let size = (size_mb * (1 << 20) as f64) as u64;
    let scenario = match scenario_name.as_str() {
        "custom" => Scenario::wild(
            "custom",
            (wifi_mbps * 1e6) as u64,
            (cell_mbps * 1e6) as u64,
            SimDuration::from_millis(rtt_ms),
            SimDuration::from_millis(rtt_ms + 35),
            size,
        ),
        // The paper-scale 256 MB downloads are cut to --size-mb; the other
        // named environments bring their own workload.
        name @ ("good" | "bad" | "bwchange" | "background") => Scenario::named(name)
            .expect("a named environment")
            .with(Workload::Download { size }),
        name => Scenario::named(name).unwrap_or_else(|| {
            eprintln!("unknown scenario '{name}'");
            usage();
        }),
    };
    // What the flags built must meet the rules a file's scenario meets.
    if let Err(e) = scenario.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    if quiet {
        log::set_level(log::Level::Quiet);
    }

    // Build the telemetry pipeline when instrumentation was requested; the
    // invariant observer rides along for free on instrumented runs.
    let telemetry = if trace_path.is_some() || metrics_path.is_some() {
        instrumented(trace_path.as_deref())
    } else {
        Telemetry::disabled()
    };

    let result =
        host::Simulation::new_with_telemetry(scenario, strategy, seed, telemetry.clone()).run();

    // The snapshot timestamp is the workload completion time; gauges inside
    // already reflect the end of the radio drain.
    let snapshot_at = SimTime::from_nanos((result.download_time_s * 1e9).round() as u64);
    if let Some(path) = &metrics_path {
        let snap = telemetry
            .metrics_snapshot(snapshot_at)
            .expect("telemetry enabled when --metrics given");
        let body = serde_json::to_string_pretty(&snap).expect("serializable snapshot");
        std::fs::write(path, body + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write metrics file {path}: {e}");
            std::process::exit(2);
        });
        info!("metrics written to {path}");
    }
    if let Some(path) = &trace_path {
        info!("trace written to {path}");
    }
    let violations = telemetry.violations();
    if !violations.is_empty() {
        for v in &violations {
            warn!("{v}");
        }
        warn!("{} invariant violation(s) detected", violations.len());
    }

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&result).expect("serializable result")
        );
    } else if !quiet {
        println!("strategy:        {}", result.strategy);
        println!("scenario:        {}", result.scenario);
        println!("completed:       {}", result.completed);
        println!("download time:   {:.2} s", result.download_time_s);
        println!(
            "energy:          {:.2} J ({:.2} J at completion)",
            result.energy_j, result.energy_at_completion_j
        );
        println!(
            "delivered:       {:.2} MB  (WiFi {:.2} MB, cellular {:.2} MB)",
            result.bytes_delivered as f64 / (1 << 20) as f64,
            result.wifi_bytes as f64 / (1 << 20) as f64,
            result.cell_bytes as f64 / (1 << 20) as f64
        );
        println!("per byte:        {:.3} uJ/B", result.joules_per_byte * 1e6);
        println!(
            "radio:           {} promotions, {:.2} J promotion energy, {:.2} J tail energy",
            result.promotions, result.promo_energy_j, result.tail_energy_j
        );
        println!(
            "dynamics:        {} usage switches, {} retransmissions",
            result.usage_switches, result.retransmissions
        );
        if result.rebuffer_events > 0 {
            println!("rebuffers:       {}", result.rebuffer_events);
        }
    }
    // A run whose invariants failed has no output worth trusting.
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
