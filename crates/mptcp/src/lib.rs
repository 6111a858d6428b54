#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Multi-Path TCP over the `emptcp-tcp` subflow machinery.
//!
//! This crate implements the MPTCP mechanisms the paper's system builds on
//! (§2.1): per-interface **subflows** carrying data-sequence-signal (DSS)
//! mappings onto one connection-level byte stream, connection-level
//! reassembly, the Linux **minRTT scheduler** (pick the lowest-srtt subflow
//! with window space; an srtt of zero means "probe me first"), the **LIA
//! coupled congestion control** of RFC 6356, **MP_PRIO**/backup priorities
//! (how eMPTCP's path usage controller suspends a subflow remotely), and
//! opportunistic **reinjection** of data stuck on a timed-out subflow.
//!
//! Failure recovery: a subflow whose retransmission timer expires a
//! configurable number of times in a row without ack progress is declared
//! **dead** — its stranded data-level ranges are reinjected on surviving
//! subflows and, if no regular subflow survives, the best backup is
//! **promoted** (MP_PRIO) so traffic keeps flowing. [`RecoveryStats`]
//! summarises the failure/recovery activity of one connection side.
//!
//! # The driver contract
//!
//! The connection is poll-style, like the TCP endpoints it owns. A driver
//! — the host simulator, the shard engine, the live reactor, a test rig —
//! makes four calls: [`MpConnection::on_segment`] when a segment arrives,
//! [`MpConnection::poll_transmit`] until it returns `None`,
//! [`MpConnection::next_deadline`] to learn when to come back, and
//! [`MpConnection::on_deadline`] when that instant has come. It may rely
//! on two guarantees, at any cadence:
//!
//! 1. **Nothing due, nothing done.** A `poll_transmit` that returns `None`
//!    and an `on_deadline` with no deadline at or before `now` change no
//!    state. Every time-dependent behaviour (retransmission timeout,
//!    delayed ACK, stall reinjection) is a function of protocol events and
//!    of a deadline `next_deadline()` reports; time-dependent state is
//!    stamped in the ACK and send paths, never by a sweep. That includes
//!    the whole-segment rule ([`Subflow::can_take_data`]): room for less
//!    than one MSS behind data in flight is refused in the scheduler's
//!    pick, before any chunk is taken, so a refused sub-MSS pick is a
//!    `None` poll like any other and the ACK that makes room for a whole
//!    segment is the event that releases it.
//! 2. **A due deadline is consumed.** After `on_deadline(now)`,
//!    `next_deadline()` is `None` or later than `now`, so a loop that
//!    sleeps until `next_deadline()` always makes progress.
//!
//! So a driver that sweeps only on the timers `next_deadline()` arms sees
//! the same stack as one that sweeps every iteration, and one wake-up
//! shared by many endpoints moves by [`rearm`] (`tests/rearm.rs`).
//! `TcpEndpoint` keeps the same contract; both are checked by the
//! `cadence` proptests (`tests/cadence.rs` here and in `emptcp-tcp`).

pub mod conn;
pub mod mapping;
pub mod sched;
pub mod subflow;

pub use conn::{MpConnection, MpSegmentOutcome, RecoveryStats, Role};
pub use mapping::{DataReassembly, RxMappings, TxMappings};
pub use subflow::{Subflow, SubflowId};

use emptcp_sim::SimTime;

/// Where a wake-up armed at `armed` must move once an event left the
/// endpoint it reached with deadline `touched`: to `touched` (no earlier
/// than `now`) if that is sooner or nothing is armed, else `None`. A
/// deadline that moved later leaves the wake-up to fire with nothing due,
/// a no-op by the contract. `all` is the earliest deadline of every
/// endpoint served; a debug build checks that it decides the same.
pub fn rearm(
    now: SimTime,
    armed: Option<SimTime>,
    touched: Option<SimTime>,
    all: impl FnOnce() -> Option<SimTime>,
) -> Option<SimTime> {
    let decide = |at: Option<SimTime>| Some(at?.max(now)).filter(|&d| armed.is_none_or(|t| d < t));
    let d = decide(touched);
    debug_assert_eq!(
        d,
        decide(all()),
        "a delivery moved the deadline of an endpoint it did not reach"
    );
    d
}
