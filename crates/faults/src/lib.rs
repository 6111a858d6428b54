#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Deterministic fault injection for the eMPTCP stack.
//!
//! Robustness claims are only as good as the failures they were tested
//! against. This crate makes failures *first-class and reproducible*:
//!
//! * [`plan`] — a [`FaultPlan`] scripts timestamped [`FaultEvent`]s from
//!   composable primitives: interface blackouts, link-flap trains,
//!   Gilbert–Elliott burst-loss windows, bandwidth collapses with staged
//!   recovery, RTT spikes, WiFi→cellular handovers, and cellular RRC
//!   stalls. Plans are pre-expanded pure data: no randomness survives past
//!   build time.
//! * [`injector`] — a [`FaultInjector`] replays a plan against anything
//!   implementing [`FaultSurface`] (the experiment host's real links, or
//!   the test rigs here), emitting a telemetry event per applied fault.
//! * [`spec`] — declarative [`FaultSpec`] primitives, the serializable
//!   vocabulary the `.scenario` corpus files speak; a spec list expands to
//!   the same pre-sorted event stream the plan builders produce.
//! * [`testnet`] — the chaos-test network shared by the TCP and MPTCP
//!   suites and the live backend's shaped transports, with labelled RNG
//!   stream-splitting so fault draws never perturb traffic draws.
//!
//! Everything downstream of a seed is deterministic: the same seed and the
//! same plan produce byte-identical telemetry traces, which is what lets
//! CI assert on resilience numbers instead of eyeballing them.

pub mod injector;
pub mod plan;
pub mod spec;
pub mod testnet;

pub use injector::{FaultInjector, FaultSurface};
pub use plan::{FaultAction, FaultEvent, FaultPlan, FaultTarget};
pub use spec::FaultSpec;
pub use testnet::{ChaosNet, ChaosPath};
