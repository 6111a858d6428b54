#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Deterministic fault injection for the eMPTCP stack.
//!
//! Robustness claims are only as good as the failures they were tested
//! against. This crate makes failures *first-class and reproducible*:
//!
//! * [`spec`] — a [`FaultSpec`] is the one way a fault is written:
//!   interface blackouts, link-flap trains, Gilbert–Elliott burst-loss
//!   windows, bandwidth collapses with staged recovery, RTT spikes,
//!   WiFi→cellular handovers, cellular RRC stalls and raw rate steps, with
//!   millisecond timing. The `.scenario` corpus, the generator, the
//!   shrinker and every Rust caller speak it.
//! * [`plan`] — a plan is a `&[FaultSpec]`; [`plan::expand`] turns it into
//!   time-sorted [`FaultEvent`]s (one [`FaultAction`] on one
//!   [`FaultTarget`] at one instant). No randomness survives past the
//!   specs. A [`FaultState`] is what the events hold over one target.
//! * [`injector`] — a [`FaultInjector`] replays a plan, at each driver's
//!   own instants, against anything implementing [`FaultSurface`]'s one
//!   call (the experiment host's links, the shard engine's core ports, the
//!   reactor's shaped paths), emitting a telemetry event per fault. A
//!   surface folds the action into a [`FaultState`] and pushes the part it
//!   changed into its medium, over the link's config or the host's channel.
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
pub use plan::{FaultAction, FaultEvent, FaultPart, FaultState, FaultTarget};
pub use spec::FaultSpec;
pub use testnet::{ChaosNet, ChaosPath};
