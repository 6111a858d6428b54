//! Ingest: how events enter the pipeline.
//!
//! Two entry points, deliberately symmetric so they are interchangeable:
//!
//! * [`PipelineSink`] — a [`TraceSink`] that folds events into a shared
//!   [`Pipeline`] as they are emitted by a *running* simulation, without
//!   ever buffering the trace. An optional observer callback fires whenever
//!   the aggregation bin advances, which is what drives the live dashboard.
//! * [`replay`] — parses a recorded JSONL trace line by line and feeds the
//!   same `ingest` call. Same events in the same order ⇒ the same pipeline
//!   state as the live tap, which the determinism tests pin down.
//!   [`replay_with`] is its per-event form, the one place JSONL lines
//!   become events; a monitor feeds a [`PipelineSink`] through it.
//!
//! [`Follow`] reads a file another process is still writing: at its end it
//! waits for more, so the line reader above completes a partial line
//! instead of seeing end of file.

use crate::models::Pipeline;
use emptcp_sim::SimTime;
use emptcp_telemetry::{parse_jsonl_line, TraceEvent, TraceSink};
use std::fs::File;
use std::io::{self, BufRead, Read};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Callback fired by [`PipelineSink`] each time the bin index advances.
pub type BinObserver = Box<dyn FnMut(&Pipeline) + Send>;

/// Streaming sink: every recorded event is folded into the shared pipeline
/// immediately. Clone the [`Arc`] handle to read aggregates while the run
/// is still in flight.
pub struct PipelineSink {
    pipeline: Arc<Mutex<Pipeline>>,
    observer: Option<BinObserver>,
    last_bin: Option<u64>,
}

impl PipelineSink {
    pub fn new(pipeline: Arc<Mutex<Pipeline>>) -> Self {
        PipelineSink {
            pipeline,
            observer: None,
            last_bin: None,
        }
    }

    /// Attach an observer fired on every bin advance (at most once per
    /// bin). The pipeline is locked while it runs; keep it cheap.
    pub fn with_observer(mut self, observer: BinObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Shared handle to the pipeline this sink feeds.
    pub fn pipeline(&self) -> Arc<Mutex<Pipeline>> {
        Arc::clone(&self.pipeline)
    }
}

impl TraceSink for PipelineSink {
    fn record(&mut self, t: SimTime, event: &TraceEvent) {
        let mut p = self.pipeline.lock().expect("pipeline poisoned");
        p.ingest(t, event);
        let bin = p.current_bin();
        if self.last_bin != Some(bin) {
            self.last_bin = Some(bin);
            if let Some(obs) = &mut self.observer {
                obs(&p);
            }
        }
    }
}

/// Outcome of replaying a recorded trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events successfully parsed and ingested.
    pub events: u64,
    /// Lines that failed to parse, with (1-based line number, error text).
    pub errors: Vec<(u64, String)>,
}

impl ReplayStats {
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Replay a JSONL trace into `pipeline`. Blank lines are skipped; malformed
/// lines are collected (not fatal) so a partially corrupt trace still
/// yields a dashboard plus a precise list of what was dropped.
pub fn replay<R: BufRead>(reader: R, pipeline: &mut Pipeline) -> io::Result<ReplayStats> {
    replay_with(reader, |t, ev| pipeline.ingest(t, ev))
}

/// [`replay`], handing each parsed event to `each` instead of a pipeline.
pub fn replay_with<R: BufRead>(
    reader: R,
    mut each: impl FnMut(SimTime, &TraceEvent),
) -> io::Result<ReplayStats> {
    let mut stats = ReplayStats::default();
    for (idx, line) in reader.split(b'\n').enumerate() {
        // A line that is not UTF-8 is malformed like any other, not the
        // end of the read.
        let line = line?;
        let parsed = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => parse_jsonl_line(text).map_err(|e| format!("{e:?}")),
            Err(e) => Err(e.to_string()),
        };
        match parsed {
            Ok((t, ev)) => {
                each(t, &ev);
                stats.events += 1;
            }
            Err(e) => stats.errors.push((idx as u64 + 1, e)),
        }
    }
    Ok(stats)
}

/// How often [`Follow`] looks again at a file that has no new data.
const POLL: Duration = Duration::from_millis(25);

/// A file read while another process may still be writing it. At end of
/// file `read` waits for more data, and reports end of file only once
/// `idle` has passed without any (a zero `idle` stops at the first end of
/// file). From then on it stays at end of file.
pub struct Follow {
    file: File,
    idle: Duration,
    last_data: Instant,
    done: bool,
}

impl Follow {
    /// Open `path`, waiting up to `idle` for a producer to create it.
    pub fn open(path: &Path, idle: Duration) -> io::Result<Follow> {
        let start = Instant::now();
        let file = loop {
            match File::open(path) {
                Ok(file) => break file,
                Err(e) if e.kind() == io::ErrorKind::NotFound && start.elapsed() < idle => {
                    std::thread::sleep(POLL);
                }
                Err(e) => return Err(e),
            }
        };
        Ok(Follow {
            file,
            idle,
            last_data: Instant::now(),
            done: false,
        })
    }
}

impl Read for Follow {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while !self.done {
            let n = self.file.read(buf)?;
            if n > 0 {
                self.last_data = Instant::now();
                return Ok(n);
            }
            let quiet = self.last_data.elapsed();
            if quiet >= self.idle {
                self.done = true;
            } else {
                std::thread::sleep(POLL.min(self.idle - quiet));
            }
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PipelineConfig;
    use emptcp_telemetry::jsonl_line;

    fn ev(bytes: u64) -> TraceEvent {
        TraceEvent::Delivered {
            conn: 0,
            subflow: 0,
            bytes,
        }
    }

    #[test]
    fn live_sink_and_replay_agree() {
        let events = [
            (SimTime::from_millis(10), ev(100)),
            (SimTime::from_millis(250), ev(300)),
            (SimTime::from_millis(260), ev(44)),
        ];

        let live = Arc::new(Mutex::new(Pipeline::new(PipelineConfig::default())));
        let mut sink = PipelineSink::new(Arc::clone(&live));
        let mut jsonl = String::new();
        for (t, e) in &events {
            sink.record(*t, e);
            jsonl.push_str(&jsonl_line(*t, e));
            jsonl.push('\n');
        }

        let mut replayed = Pipeline::new(PipelineConfig::default());
        let stats = replay(jsonl.as_bytes(), &mut replayed).unwrap();
        assert!(stats.is_clean());
        assert_eq!(stats.events, 3);

        let live = live.lock().unwrap();
        assert_eq!(live.events, replayed.events);
        assert_eq!(live.delivered_total, replayed.delivered_total);
        assert_eq!(live.last_t, replayed.last_t);
    }

    #[test]
    fn observer_fires_once_per_bin() {
        let pipeline = Arc::new(Mutex::new(Pipeline::new(PipelineConfig::default())));
        let fired = Arc::new(Mutex::new(0u32));
        let fired_handle = Arc::clone(&fired);
        let mut sink = PipelineSink::new(pipeline).with_observer(Box::new(move |_| {
            *fired_handle.lock().unwrap() += 1;
        }));
        // Three events in bin 0, one in bin 3.
        for ms in [10, 20, 30] {
            sink.record(SimTime::from_millis(ms), &ev(1));
        }
        sink.record(SimTime::from_millis(350), &ev(1));
        assert_eq!(*fired.lock().unwrap(), 2, "bin 0 entry + bin 3 advance");
    }

    #[test]
    fn replay_collects_malformed_lines() {
        let trace: &[u8] =
            b"garbage\n\n{\"t_ns\":1,\"event\":{\"BackupPromoted\":{\"conn\":1,\"subflow\":0}}}\n\xff\n";
        let mut p = Pipeline::new(PipelineConfig::default());
        let stats = replay(trace, &mut p).unwrap();
        assert_eq!(stats.events, 1);
        let lines: Vec<u64> = stats.errors.iter().map(|e| e.0).collect();
        assert_eq!(lines, [1, 4], "{:?}", stats.errors);
    }
}
