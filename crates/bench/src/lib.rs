#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `BENCH.json` for the eMPTCP reproduction: what each exhibit costs to
//! regenerate and how big each crate is.
//!
//! The [`snapshot`] module plus the `bench` binary measure those two
//! tables and gate the first: `bench snapshot` writes a fresh snapshot,
//! `bench snapshot --check` compares against the committed baseline and
//! fails on regressions beyond tolerance (normalized by a per-machine
//! calibration loop). What a layer or a workload costs is timed by the
//! ledger alone — the package under `src/bin/benchmark/`, `BENCHMARK.json`.

pub mod snapshot;
