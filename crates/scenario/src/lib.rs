#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Declarative chaos scenarios.
//!
//! The paper validates eMPTCP over ~30 hand-picked traces; the chaos
//! subsystem replaces hand-picked with *generated*. One serializable
//! [`Scenario`] describes an entire experiment — the world (a single
//! device/server host or a many-client fleet), the workload, the device
//! energy profile, and a declarative fault script — and everything else is
//! derived from it:
//!
//! * [`spec`] — the [`Scenario`] type and its validity rules. A scenario
//!   either validates (non-empty workload, positive capacities, every
//!   fault recoverable) or fails with a typed [`ScenarioError`]. A host
//!   world also says what recovery its run must show: a list of
//!   [`Expect`] bounds on named [`Measure`]s.
//! * [`host`] — [`HostScenario`], the single-device experiment a host
//!   world carries: the one value `expr::host::Simulation` runs, with the
//!   paper's named environments as constructors and the rules a file must
//!   meet to be runnable.
//! * [`io`] — `.scenario` JSON files: parse, validate, and the canonical
//!   byte form CI replays byte-identically.
//! * [`corpus`] — the committed scenario corpus embedded at compile time,
//!   the source of truth the fault library and the fleet config presets
//!   are loaded from.
//! * [`gen`] — the deterministic fuzzer: `(run seed, case index)` maps to
//!   one arbitrary-but-valid scenario, byte-reproducible forever.
//! * [`shrink`] — greedy delta-debugging: given a failing scenario and a
//!   re-run predicate, drop faults, clients and bytes until the repro is
//!   minimal.
//!
//! The crate deliberately sits *below* the experiment harness: it knows
//! how to describe and transform scenarios, never how to run them. The
//! `expr` crate binds a scenario to the host simulation or the fleet and
//! applies the end-of-run oracles.

pub mod corpus;
pub mod gen;
pub mod host;
pub mod io;
pub mod shrink;
pub mod spec;

pub use host::{DeviceKind, HostScenario, WifiEnvironment, Workload};
pub use spec::{Expect, Measure, Scenario, ScenarioError, StrategyKind, World};
