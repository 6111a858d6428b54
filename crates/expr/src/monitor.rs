//! The `monitor` subcommand: live fleet observability and trace replay.
//!
//! Two entry points sharing one pipeline:
//!
//! * [`run_live`] (`repro monitor`) — runs a contended fleet with the
//!   streaming [`PipelineSink`] tapped into its telemetry, optionally
//!   teeing the same events into a JSONL recording, and drives the
//!   redraw-in-place terminal dashboard while the simulation executes.
//! * [`run_replay`] (`simulate monitor --replay <trace.jsonl>`) — feeds a
//!   recorded trace through the identical pipeline and renders the final
//!   dashboard and/or exports.
//!
//! Determinism contract: for the same seed, the exports written by a live
//! run and by a replay of the recording that run produced are
//! byte-identical (`tests/monitor.rs` pins this; CI replays twice and
//! diffs). The dashboard is display-only — its wall-clock frame throttling
//! never influences what is exported.

use emptcp_net::{FleetConfig, ShardedFleetSim};
use emptcp_obsv::{
    export_csv, export_json, render, Dashboard, Pipeline, PipelineConfig, PipelineSink,
};
use emptcp_sim::SimDuration;
use emptcp_telemetry::{JsonlSink, TeeSink, Telemetry, TraceSink};
use std::io::{BufReader, IsTerminal, Write as _};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Aggregation knobs shared by live and replay modes.
#[derive(Debug, Clone, Copy)]
pub struct PipelineKnobs {
    /// Bin width in milliseconds.
    pub bin_ms: u64,
    /// Dashboard rolling-window length, in bins.
    pub window_bins: usize,
    /// Rows in the hot-client/hot-port tables.
    pub top_k: usize,
}

impl Default for PipelineKnobs {
    fn default() -> Self {
        let d = PipelineConfig::default();
        PipelineKnobs {
            bin_ms: d.bin.as_nanos() / 1_000_000,
            window_bins: d.window_bins,
            top_k: d.top_k,
        }
    }
}

impl PipelineKnobs {
    fn config(&self) -> PipelineConfig {
        PipelineConfig {
            bin: SimDuration::from_millis(self.bin_ms.max(1)),
            window_bins: self.window_bins.max(1),
            top_k: self.top_k.max(1),
        }
    }
}

/// Options for `repro monitor`.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Fleet size (mixed TCP/MPTCP clients behind the shared bottleneck).
    pub clients: usize,
    /// Simulation seed; same seed ⇒ byte-identical trace and exports.
    pub seed: u64,
    /// Simulated run length in seconds.
    pub duration_s: f64,
    /// Also record the trace as JSONL for later replay.
    pub record: Option<PathBuf>,
    /// Write the time-series JSON export here.
    pub export_json: Option<PathBuf>,
    /// Write the per-bin CSV export here.
    pub export_csv: Option<PathBuf>,
    /// Suppress the dashboard (exports still written).
    pub quiet: bool,
    /// Aggregation parameters.
    pub knobs: PipelineKnobs,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            clients: 16,
            seed: 42,
            duration_s: 4.0,
            record: None,
            export_json: None,
            export_csv: None,
            quiet: false,
            knobs: PipelineKnobs::default(),
        }
    }
}

/// Options for `repro monitor --follow`.
#[derive(Debug, Clone)]
pub struct FollowOptions {
    /// The JSONL trace to tail — typically one a `simulate serve` or
    /// `simulate connect` process is writing right now.
    pub trace: PathBuf,
    /// Exit after this much wall time without new trace data. A finished
    /// file is followed to EOF and then times out normally.
    pub idle_timeout_s: f64,
    /// Write the time-series JSON export here.
    pub export_json: Option<PathBuf>,
    /// Write the per-bin CSV export here.
    pub export_csv: Option<PathBuf>,
    /// Suppress the dashboard (exports still written).
    pub quiet: bool,
    /// Aggregation parameters.
    pub knobs: PipelineKnobs,
}

/// Options for `simulate monitor --replay`.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// The recorded JSONL trace to replay.
    pub trace: PathBuf,
    /// Machine mode: no dashboard, fail (exit 1) on any malformed line.
    pub check: bool,
    /// Write the time-series JSON export here.
    pub export_json: Option<PathBuf>,
    /// Write the per-bin CSV export here.
    pub export_csv: Option<PathBuf>,
    /// Suppress the final dashboard frame (exports still written).
    pub quiet: bool,
    /// Aggregation parameters.
    pub knobs: PipelineKnobs,
}

fn write_exports(
    pipeline: &Pipeline,
    json: &Option<PathBuf>,
    csv: &Option<PathBuf>,
) -> std::io::Result<()> {
    if let Some(path) = json {
        std::fs::write(path, export_json(pipeline))?;
    }
    if let Some(path) = csv {
        std::fs::write(path, export_csv(pipeline))?;
    }
    Ok(())
}

/// Run a contended fleet live with the streaming pipeline tapped in.
/// Returns the final pipeline state (exports, if requested, are written
/// before returning).
pub fn run_live(opts: &LiveOptions) -> std::io::Result<Pipeline> {
    let pipeline = Arc::new(Mutex::new(Pipeline::new(opts.knobs.config())));

    // Live dashboard: redraw at most every 50 ms of wall time, triggered
    // by aggregation-bin advances. Display only — skipping frames cannot
    // change pipeline state.
    let want_dash = !opts.quiet && std::io::stdout().is_terminal();
    let dash = Arc::new(Mutex::new((
        Dashboard::new(),
        std::time::Instant::now(),
        true,
    )));
    let mut sink = PipelineSink::new(Arc::clone(&pipeline));
    if want_dash {
        let dash = Arc::clone(&dash);
        sink = sink.with_observer(Box::new(move |p| {
            let mut guard = dash.lock().expect("dashboard poisoned");
            let (dashboard, last_frame, first) = &mut *guard;
            if *first || last_frame.elapsed().as_millis() >= 50 {
                *first = false;
                *last_frame = std::time::Instant::now();
                let _ = dashboard.draw(&mut std::io::stdout(), &render(p));
            }
        }));
    }

    let tap: Box<dyn TraceSink> = match &opts.record {
        Some(path) => Box::new(TeeSink::new(vec![
            Box::new(JsonlSink::new(std::fs::File::create(path)?)),
            Box::new(sink),
        ])),
        None => Box::new(sink),
    };
    let telemetry = Telemetry::builder().invariants(true).sink(tap).build();

    let mut cfg = FleetConfig::contended(opts.clients, opts.seed);
    cfg.duration = SimDuration::from_nanos((opts.duration_s * 1e9) as u64);
    let mut sim = ShardedFleetSim::new_with_telemetry(cfg, 1, telemetry.clone());
    let report = sim.run();
    telemetry.flush()?;
    // Release every handle to the tap so the pipeline Arc unwraps cleanly.
    drop(sim);
    drop(telemetry);

    let pipeline = Arc::try_unwrap(pipeline)
        .map(|m| m.into_inner().expect("pipeline poisoned"))
        .unwrap_or_else(|arc| arc.lock().expect("pipeline poisoned").clone());

    if !opts.quiet {
        // Final frame: on a TTY it overdraws the last live frame; on a
        // plain pipe it is the only frame printed.
        let mut stdout = std::io::stdout();
        if want_dash {
            // Same Dashboard the observer drew with, so the final frame
            // overdraws the last live frame instead of appending.
            let mut guard = dash.lock().expect("dashboard poisoned");
            guard.0.draw(&mut stdout, &render(&pipeline))?;
        } else {
            stdout.write_all(render(&pipeline).as_bytes())?;
        }
        writeln!(
            stdout,
            "fleet: {} clients · mean goodput mptcp={:.2} / tcp={:.2} Mbps · Jain={:.3}",
            report.clients, report.mptcp_mean_mbps, report.tcp_mean_mbps, report.jain_index
        )?;
    }
    write_exports(&pipeline, &opts.export_json, &opts.export_csv)?;
    Ok(pipeline)
}

/// Tail a JSONL trace as it is being written, dashboarding the events as
/// they land — this is how `repro monitor --follow` observes a live
/// serve/connect transfer from a third process. Works equally on a
/// finished file (reads to EOF, then times out idle). Returns the process
/// exit code (non-zero when malformed lines were seen).
pub fn run_follow(opts: &FollowOptions) -> std::io::Result<i32> {
    use emptcp_telemetry::parse_jsonl_line;
    use std::io::BufRead;
    use std::time::{Duration, Instant};

    let idle = Duration::from_nanos((opts.idle_timeout_s.max(0.05) * 1e9) as u64);
    let poll = Duration::from_millis(25);

    // The producer may not have created the file yet (serve starting up);
    // waiting for it counts against the same idle budget.
    let start = Instant::now();
    let file = loop {
        match std::fs::File::open(&opts.trace) {
            Ok(f) => break f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && start.elapsed() < idle => {
                std::thread::sleep(poll);
            }
            Err(e) => return Err(e),
        }
    };

    let mut pipeline = Pipeline::new(opts.knobs.config());
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    let mut events = 0u64;
    let mut malformed = 0u64;
    let mut last_data = Instant::now();

    let want_dash = !opts.quiet && std::io::stdout().is_terminal();
    let mut dashboard = Dashboard::new();
    let mut last_frame = Instant::now() - Duration::from_secs(1);

    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            if last_data.elapsed() >= idle {
                break;
            }
            std::thread::sleep(poll);
            continue;
        }
        if !line.ends_with('\n') {
            // Caught the producer mid-line: rewind and let it finish.
            reader.seek_relative(-(n as i64))?;
            std::thread::sleep(poll);
            continue;
        }
        last_data = Instant::now();
        match parse_jsonl_line(line.trim_end()) {
            Ok((t, event)) => {
                pipeline.ingest(t, &event);
                events += 1;
            }
            Err(err) => {
                malformed += 1;
                eprintln!("{}: {err}", opts.trace.display());
            }
        }
        if want_dash && last_frame.elapsed().as_millis() >= 50 {
            last_frame = Instant::now();
            let _ = dashboard.draw(&mut std::io::stdout(), &render(&pipeline));
        }
    }

    let mut stdout = std::io::stdout();
    if !opts.quiet {
        if want_dash {
            dashboard.draw(&mut stdout, &render(&pipeline))?;
        } else {
            stdout.write_all(render(&pipeline).as_bytes())?;
        }
        writeln!(
            stdout,
            "follow: {} event(s) from {} ({} malformed)",
            events,
            opts.trace.display(),
            malformed
        )?;
    }
    write_exports(&pipeline, &opts.export_json, &opts.export_csv)?;
    Ok(if malformed > 0 { 1 } else { 0 })
}

/// Replay a recorded JSONL trace through the pipeline. Returns the process
/// exit code (non-zero when `--check` finds malformed lines).
pub fn run_replay(opts: &ReplayOptions) -> std::io::Result<i32> {
    let mut pipeline = Pipeline::new(opts.knobs.config());
    let file = std::fs::File::open(&opts.trace)?;
    let stats = emptcp_obsv::replay(BufReader::new(file), &mut pipeline)?;

    if !stats.is_clean() {
        for (line, err) in &stats.errors {
            eprintln!("{}:{line}: {err}", opts.trace.display());
        }
        eprintln!(
            "{}: {} malformed line(s), {} events ingested",
            opts.trace.display(),
            stats.errors.len(),
            stats.events
        );
        if opts.check {
            return Ok(1);
        }
    }
    if !opts.quiet && !opts.check {
        std::io::stdout().write_all(render(&pipeline).as_bytes())?;
    }
    write_exports(&pipeline, &opts.export_json, &opts.export_csv)?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_round_trip_defaults() {
        let knobs = PipelineKnobs::default();
        let cfg = knobs.config();
        let d = PipelineConfig::default();
        assert_eq!(cfg.bin.as_nanos(), d.bin.as_nanos());
        assert_eq!(cfg.window_bins, d.window_bins);
        assert_eq!(cfg.top_k, d.top_k);
    }

    #[test]
    fn zero_knobs_are_clamped() {
        let knobs = PipelineKnobs {
            bin_ms: 0,
            window_bins: 0,
            top_k: 0,
        };
        let cfg = knobs.config();
        assert_eq!(cfg.bin.as_nanos(), 1_000_000);
        assert_eq!(cfg.window_bins, 1);
        assert_eq!(cfg.top_k, 1);
    }
}
