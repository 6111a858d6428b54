#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Experiment harness: every table and figure of the eMPTCP paper.
//!
//! * [`host`] — the device/server simulation: radios (WiFi channel +
//!   cellular RRC), paths, MPTCP stacks, the eMPTCP engine and the energy
//!   meter, all driven from one deterministic event loop;
//! * [`scenario`] — re-exports of `emptcp_scenario::HostScenario` (as
//!   `Scenario`) and its parts: the environments of §4 (static, bandwidth
//!   changes, background traffic, mobility) and §5 (wild, web);
//! * [`strategy`] — the transport strategies under comparison: standard
//!   MPTCP, eMPTCP, single-path TCP over WiFi or LTE, MPTCP-with-WiFi-First
//!   and Single-Path mode;
//! * [`mdp`] — the Markov-decision-process scheduler of Pluntke et al.,
//!   reproduced for the §4.6 comparison;
//! * [`wild`] — the §5 in-the-wild study: server/venue populations and the
//!   Good/Bad × WiFi/LTE categorization of Fig 14;
//! * [`figures`] — every table/figure: a closed form, or a plan of host
//!   runs and the arithmetic over their results, producing printable tables
//!   and machine-readable JSON;
//! * [`plan`] — a host run as a value, and the merge of the runs several
//!   exhibits plan;
//! * [`report`] — table formatting and file output helpers;
//! * [`runner`] — [`runner::par_map`], the one parallel map host runs,
//!   exhibits, fleet shards and chaos cases go through (`repro --jobs N`);
//! * [`repro`] — the exhibit engine behind the `repro` binary: one
//!   deduplicated run set per call, per-exhibit telemetry, output files;
//! * [`chaos`] — chaos certification: declarative `.scenario` runs, the
//!   end-of-run oracles (the recovery each file expects among them),
//!   scenario fuzzing and minimal-repro shrinking (`simulate scenario`).
//!
//! The `repro` binary regenerates everything: `repro --list`, `repro fig5`,
//! `repro all`.
//!
//! ```
//! use emptcp_expr::scenario::{Scenario, Workload};
//! use emptcp_expr::{host, Strategy};
//!
//! let scenario = Scenario::static_good_wifi().with(Workload::Download { size: 256 << 10 });
//! let result = host::run(scenario, Strategy::emptcp_default(), 42);
//! assert!(result.completed);
//! // Small transfer on good WiFi: the LTE radio never woke up.
//! assert_eq!(result.promotions, 0);
//! ```

pub mod chaos;
pub mod figures;
pub mod flags;
pub mod host;
pub mod mdp;
pub mod monitor;
pub mod plan;
pub mod report;
pub mod repro;
pub mod runner;
pub mod scenario;
pub mod strategy;
pub mod wild;

pub use host::{RunResult, Simulation};
pub use runner::Runner;
pub use scenario::Scenario;
pub use strategy::Strategy;
