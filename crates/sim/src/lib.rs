#![warn(missing_docs)]
//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on: an integer-nanosecond clock ([`SimTime`], [`SimDuration`]), a
//! deterministic event queue ([`EventQueue`]), a portable
//! pseudo-random number generator with the distributions the paper's
//! evaluation needs ([`rng::SimRng`]), time-series recording ([`trace`]) and
//! the summary statistics used throughout the paper's figures ([`stats`]).
//!
//! Everything here is deterministic: the same seed and the same sequence of
//! calls produce bit-identical results on every platform. Wall-clock time is
//! never consulted.
//!
//! ```
//! use emptcp_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(SimTime::from_millis(30), "rto");
//! let ack = queue.schedule(SimTime::from_millis(10), "delack");
//! queue.cancel(ack);
//! let (at, event) = queue.pop().unwrap();
//! assert_eq!((at, event), (SimTime::from_millis(30), "rto"));
//! ```

pub mod epoch;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use epoch::EpochClock;
pub use event::{EventQueue, TimerId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

/// The 64-bit FNV-1a offset basis: the state a fresh [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a: fold `bytes` into the running hash `h`. Not
/// cryptographic; it only has to tell two inputs apart, the same way on
/// every platform.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
