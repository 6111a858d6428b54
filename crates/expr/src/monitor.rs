//! The `monitor` subcommand: one dashboard over a fleet run or a trace.
//!
//! [`monitor`] (`repro monitor`) folds the events of one [`Source`] into
//! the streaming [`PipelineSink`]:
//!
//! * [`Source::Fleet`] runs a contended fleet with the sink tapped into
//!   its telemetry, optionally teeing the same events into a JSONL
//!   recording;
//! * [`Source::Trace`] reads a JSONL trace through
//!   [`emptcp_obsv::replay_with`], the one reader of trace lines. The file
//!   is read through [`Follow`], so a trace another process is still
//!   writing (a `simulate serve|connect` transfer) is dashboarded as it
//!   grows; a finished one is read to its end, and a zero idle timeout
//!   stops there.
//!
//! Both sources drive the same redraw-in-place dashboard from the sink's
//! bin observer, print the same final frame, write the same exports and
//! share one exit rule: each malformed trace line (reported as
//! `PATH:LINE: error`; blank lines are skipped) and each invariant
//! violation of a fleet run is a fault, any fault makes the exit status
//! 1, and the exports are written either way.
//!
//! Determinism contract: for the same seed, the exports written by a fleet
//! run and by a read of the recording that run produced are byte-identical
//! (`tests/monitor.rs` pins this; CI reads the recording twice and diffs).
//! The dashboard is display-only — its wall-clock frame throttling never
//! influences what is exported.

use emptcp_net::{FleetConfig, ShardedFleetSim};
use emptcp_obsv::{
    export_csv, export_json, render, replay_with, Dashboard, Follow, Pipeline, PipelineConfig,
    PipelineSink,
};
use emptcp_sim::SimDuration;
use emptcp_telemetry::{JsonlSink, TeeSink, Telemetry, TraceSink};
use std::io::{self, BufReader, IsTerminal, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a monitor's events come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// Run a contended fleet; the same seed gives a byte-identical trace
    /// and exports.
    Fleet {
        /// Fleet size (mixed TCP/MPTCP clients behind the shared
        /// bottleneck).
        clients: usize,
        /// Simulation seed.
        seed: u64,
        /// Simulated run length in seconds.
        duration_s: f64,
        /// Also record the trace as JSONL here.
        record: Option<PathBuf>,
    },
    /// Read a JSONL trace.
    Trace {
        /// The trace, finished or still being written.
        path: PathBuf,
        /// Stop after this much wall time without new data; waiting for
        /// the file to appear counts against it, and 0 stops at the first
        /// end of file.
        idle_timeout_s: f64,
    },
}

/// Options for `repro monitor`.
#[derive(Debug, Clone)]
pub struct MonitorOptions {
    /// Where the events come from.
    pub source: Source,
    /// Write the time-series JSON export here.
    pub export_json: Option<PathBuf>,
    /// Write the per-bin CSV export here.
    pub export_csv: Option<PathBuf>,
    /// Suppress the dashboard (exports still written).
    pub quiet: bool,
}

/// Fold `opts.source` into a fresh pipeline, dashboarding it as it goes,
/// then print the final frame and write the exports. Returns the faults
/// seen — malformed trace lines or invariant violations, each already
/// reported on stderr. A fleet the configuration cannot hold is an
/// [`io::ErrorKind::InvalidInput`] error.
pub fn monitor(opts: &MonitorOptions) -> io::Result<usize> {
    let pipeline = Arc::new(Mutex::new(Pipeline::new(PipelineConfig::default())));

    // Live dashboard: redraw at most every 50 ms of wall time, triggered
    // by aggregation-bin advances. Display only — skipping frames cannot
    // change pipeline state.
    let want_dash = !opts.quiet && io::stdout().is_terminal();
    let dash = Arc::new(Mutex::new(Dashboard::new()));
    let mut sink = PipelineSink::new(Arc::clone(&pipeline));
    if want_dash {
        let dash = Arc::clone(&dash);
        let mut last_frame: Option<Instant> = None;
        sink = sink.with_observer(Box::new(move |p| {
            if last_frame.is_none_or(|at| at.elapsed().as_millis() >= 50) {
                last_frame = Some(Instant::now());
                let mut dash = dash.lock().expect("dashboard poisoned");
                let _ = dash.draw(&mut io::stdout(), &render(p));
            }
        }));
    }

    let (faults, summary) = match &opts.source {
        Source::Fleet {
            clients,
            seed,
            duration_s,
            record,
        } => run_fleet(*clients, *seed, *duration_s, record.as_deref(), sink)?,
        Source::Trace {
            path,
            idle_timeout_s,
        } => read_trace(path, *idle_timeout_s, sink)?,
    };
    let pipeline = pipeline.lock().expect("pipeline poisoned");

    if !opts.quiet {
        // Final frame: on a TTY the same Dashboard overdraws the last live
        // frame; on a plain pipe it is the only frame printed.
        let mut stdout = io::stdout();
        if want_dash {
            let mut dash = dash.lock().expect("dashboard poisoned");
            dash.draw(&mut stdout, &render(&pipeline))?;
        } else {
            stdout.write_all(render(&pipeline).as_bytes())?;
        }
        writeln!(stdout, "{summary}")?;
    }
    if let Some(path) = &opts.export_json {
        std::fs::write(path, export_json(&pipeline))?;
    }
    if let Some(path) = &opts.export_csv {
        std::fs::write(path, export_csv(&pipeline))?;
    }
    Ok(faults)
}

/// Run the fleet with `sink` (and the recording, if any) tapped in.
/// Returns the invariant violations and the summary line.
fn run_fleet(
    clients: usize,
    seed: u64,
    duration_s: f64,
    record: Option<&Path>,
    sink: PipelineSink,
) -> io::Result<(usize, String)> {
    let mut cfg = FleetConfig::contended(clients, seed);
    cfg.duration = SimDuration::from_nanos((duration_s * 1e9) as u64);
    // Checked before `record` creates its file.
    cfg.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let tap: Box<dyn TraceSink> = match record {
        Some(path) => Box::new(TeeSink::new(vec![
            Box::new(JsonlSink::new(std::fs::File::create(path)?)),
            Box::new(sink),
        ])),
        None => Box::new(sink),
    };
    let telemetry = Telemetry::builder().invariants(true).sink(tap).build();
    let report = ShardedFleetSim::new_with_telemetry(cfg, 1, telemetry.clone()).run();
    telemetry.flush()?;
    let violations = telemetry.violations();
    for v in &violations {
        eprintln!("repro monitor: {v}");
    }
    let summary = format!(
        "fleet: {} clients · mean goodput mptcp={:.2} / tcp={:.2} Mbps · Jain={:.3}",
        report.clients, report.mptcp_mean_mbps, report.tcp_mean_mbps, report.jain_index
    );
    Ok((violations.len(), summary))
}

/// Read the trace at `path` into `sink`, following it as it grows.
/// Returns the malformed lines and the summary line.
fn read_trace(
    path: &Path,
    idle_timeout_s: f64,
    mut sink: PipelineSink,
) -> io::Result<(usize, String)> {
    let idle = Duration::from_nanos((idle_timeout_s.max(0.0) * 1e9) as u64);
    let trace = BufReader::new(Follow::open(path, idle)?);
    let stats = replay_with(trace, |t, ev| sink.record(t, ev))?;
    for (line, err) in &stats.errors {
        eprintln!("{}:{line}: {err}", path.display());
    }
    let summary = format!(
        "trace: {} event(s) from {} ({} malformed)",
        stats.events,
        path.display(),
        stats.errors.len()
    );
    Ok((stats.errors.len(), summary))
}
