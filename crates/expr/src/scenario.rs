//! Experiment environments (§4 and §5): re-exports, nothing else.
//!
//! The description of a single-device experiment is
//! [`emptcp_scenario::HostScenario`] — the value a `.scenario` file's host
//! world carries and [`crate::host::Simulation`] runs unchanged. This
//! module keeps the paths this crate grew up with. The `Scenario` alias in
//! particular is what the frozen benchmark package
//! (`crates/bench/src/bin/benchmark/src/probes.rs`) compiles against:
//! `emptcp_expr::scenario::{Scenario, Workload}`,
//! `Scenario::static_good_wifi()` and the public `workload` field. A later
//! `benchmark` PR can name `HostScenario` directly and drop the alias.

pub use emptcp_scenario::{DeviceKind, HostScenario as Scenario, WifiEnvironment, Workload};
