#![forbid(unsafe_code)]
//! `emptcp-obsv` — streaming observability for fleet traces.
//!
//! The pipeline is an ingest → cache → models → export split:
//!
//! * **ingest** ([`PipelineSink`], [`replay`], [`Follow`]) — events enter
//!   either live, as a [`TraceSink`](emptcp_telemetry::TraceSink) tapped
//!   into a running simulation, or from a JSONL trace, recorded or still
//!   being written. Nothing buffers the whole trace; each event is folded
//!   into the aggregates and dropped.
//! * **cache** ([`Rolling`], [`Series`]) — bounded per-bin accumulators
//!   advanced by simulation time only.
//! * **models** ([`Pipeline`]) — rolling windowed aggregates keyed by
//!   client, router/port, subflow and energy component: throughput, queue
//!   depth, drop/ECN rates, energy per bit, RTO/recovery counts, scheduler
//!   pick shares.
//! * **export** ([`export_json`], [`export_csv`], [`render`]) — byte-
//!   deterministic time-series files plus a redraw-in-place terminal
//!   dashboard.
//!
//! Determinism contract: pipeline state is a pure function of the ingested
//! `(t, event)` sequence, and the exports are pure functions of pipeline
//! state. A live tap and a replay of the recording made from the same run
//! therefore export byte-identical files — `crates/expr` pins this with a
//! test and CI reads every recording twice and diffs.

pub mod cache;
pub mod dash;
pub mod export;
pub mod ingest;
pub mod models;

pub use cache::{Rolling, Series};
pub use dash::{render, sparkline, Dashboard};
pub use export::{export_csv, export_json};
pub use ingest::{replay, replay_with, BinObserver, Follow, PipelineSink, ReplayStats};
pub use models::{ClientModel, EnergyModel, Pipeline, PipelineConfig, PortModel};
