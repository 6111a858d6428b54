#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Packet-level single-path TCP for the eMPTCP reproduction.
//!
//! This models the sender/receiver machinery the paper's kernel patch lives
//! in: Reno congestion control with slow start, congestion avoidance, fast
//! retransmit and RTO (Jacobson/Karn, RFC 6298), delayed ACKs, receive-side
//! reassembly, and — because eMPTCP specifically disables it for resumed
//! subflows (§3.6) — RFC 2861 congestion-window validation after idle.
//!
//! The endpoint is a poll-style state machine in the smoltcp idiom: events
//! go in ([`TcpEndpoint::on_segment`], [`TcpEndpoint::on_deadline`]),
//! emissions come out ([`TcpEndpoint::poll_transmit`]), and the host owns
//! all timers via [`TcpEndpoint::next_deadline`]. Payload *contents* are
//! never materialized — only byte counts and sequence ranges — which is
//! what lets the experiment harness push hundreds of megabytes per run.
//!
//! MPTCP (in `emptcp-mptcp`) layers data-sequence mappings on top of the
//! per-subflow segments defined in [`segment`].

pub mod cc;
pub mod endpoint;
pub mod ranges;
pub mod rtt;
pub mod segment;
pub mod sendq;
pub mod slab;

pub use cc::{CcAlgorithm, CongestionCtrl};
pub use endpoint::{DeliveredRange, TcpConfig, TcpEndpoint, TcpState};
pub use ranges::RangeSet;
pub use rtt::RttEstimator;
pub use segment::{Dss, SegFlags, Segment};
pub use sendq::{SendQueue, SentSeg};
pub use slab::{SegRef, SegmentSlab};
