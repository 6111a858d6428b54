#![warn(missing_docs)]
//! Multi-Path TCP over the `emptcp-tcp` subflow machinery.
//!
//! This crate implements the MPTCP mechanisms the paper's system builds on
//! (§2.1): per-interface **subflows** carrying data-sequence-signal (DSS)
//! mappings onto one connection-level byte stream, connection-level
//! reassembly, the Linux **minRTT scheduler** (pick the lowest-srtt subflow
//! with window space; an srtt of zero means "probe me first"), the **LIA
//! coupled congestion control** of RFC 6356, **MP_PRIO**/backup priorities
//! (how eMPTCP's path usage controller suspends a subflow remotely), the
//! three operating modes (Full-MPTCP / Single-Path / Backup), and
//! opportunistic **reinjection** of data stuck on a timed-out subflow.
//!
//! Failure recovery: a subflow whose retransmission timer expires a
//! configurable number of times in a row without ack progress is declared
//! **dead** — its stranded data-level ranges are reinjected on surviving
//! subflows and, if no regular subflow survives, the best backup is
//! **promoted** (MP_PRIO) so traffic keeps flowing. [`RecoveryStats`]
//! summarises the failure/recovery activity of one connection side.
//!
//! The connection is poll-style, like the TCP endpoints it owns: hosts feed
//! segments and deadlines in, and drain `(subflow, segment)` emissions out.

pub mod conn;
pub mod mapping;
pub mod modes;
pub mod sched;
pub mod subflow;

pub use conn::{MpConnection, MpSegmentOutcome, RecoveryStats, Role};
pub use mapping::{DataReassembly, RxMappings, TxMappings};
pub use modes::OperatingMode;
pub use subflow::{Subflow, SubflowId};
