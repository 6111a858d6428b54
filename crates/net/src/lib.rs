#![forbid(unsafe_code)]
//! Deterministic many-client fleet simulation for the eMPTCP testbed.
//!
//! Where `emptcp-expr`'s host simulation models one device with two
//! dedicated access paths, this crate models the *network between*
//! devices: router output ports with drop-tail queues and ECN-style
//! accounting built on the same rate-serializing
//! [`Link`](emptcp_phy::Link) ([`port`]), and one fleet engine
//! ([`shard`], [`ShardedFleetSim`]) that runs many independent TCP/MPTCP
//! client stacks over one shared bottleneck as described by a
//! [`FleetConfig`] ([`fleet`]).
//!
//! The engine partitions the fleet into conservative-lookahead shards
//! over flyweight struct-of-arrays client rows, each shard driven by its
//! own discrete-event queue and forked [`SimRng`](emptcp_sim::SimRng)
//! streams, so a fleet run is a pure function of its config and seed:
//! reports and traces are byte-identical for every `(jobs, shards)`
//! combination — the property the parallel experiment runner relies on.
//! One shard is the same machinery, not a separate path. [`reduce`] holds
//! the fixed-order report reductions.

#![warn(missing_docs)]

pub mod fleet;
pub mod port;
pub mod reduce;
pub mod shard;

pub use fleet::{FleetConfig, FleetConfigError, FleetReport};
pub use port::{NodeId, Port, PortOutcome};
pub use shard::{lookahead, CorePorts, SerialExecutor, ShardExecutor, ShardedFleetSim};
