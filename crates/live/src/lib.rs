#![forbid(unsafe_code)]
//! `emptcp-live`: the real-traffic backend.
//!
//! Everything below `crates/tcp` and `crates/mptcp` is a pure,
//! event-driven state machine: segments in, segments out, timers in
//! between. The simulator is one engine that drives those machines; this
//! crate is the second. A purpose-built poll-loop [`Reactor`] (the
//! workspace is offline-vendored, so there is no tokio — the timer queue
//! is `crates/sim`'s [`EventQueue`](emptcp_sim::EventQueue) keyed on
//! monotonic nanoseconds) feeds the *same* [`MpConnection`] cores from
//! real I/O:
//!
//! * [`UdpTransport`] — non-blocking `std::net::UdpSocket` encapsulation,
//!   one socket per path, for cross-process traffic (`simulate serve` /
//!   `simulate connect`);
//! * [`DuplexTransport`] — an in-process byte-pair channel carrying the
//!   same wire frames through the same codec, for hermetic tests and the
//!   parity harness;
//! * [`ChaosNet`](emptcp_faults::ChaosNet) — the simulator's own
//!   by-value network, which makes the reactor on a virtual clock the
//!   chaos suites' rig too ([`MpChaosRig`]): there is one pair pump.
//!
//! All transports shape traffic with [`ChaosPath`]s — one loss / delay /
//! blackhole vocabulary, one shaping function — so a fault plan (a list
//! of [`FaultSpec`](emptcp_faults::FaultSpec)s) replays against a live
//! transfer exactly as it replays against a simulated one.
//!
//! The headline property is **parity**: [`backend::run_script`] pushes an
//! identical scripted input (arrivals, ACK timings, fault windows)
//! through the one reactor loop over [`Backend::Sim`]'s transport (the
//! `ChaosNet`) and over [`Backend::Live`]'s (the duplex byte channel),
//! and [`parity::certify`] asserts the transport decisions — scheduler
//! picks, subflow state transitions, cwnd trajectory, delivered-byte
//! accounting — match event-for-event. What the live transport adds on
//! top of the sim's (frame codec round trips, byte-channel carriage) is
//! thereby certified not to perturb protocol behavior.
//!
//! [`MpConnection`]: emptcp_mptcp::MpConnection

pub mod backend;
pub mod clock;
pub mod codec;
pub mod parity;
pub mod reactor;
pub mod session;
pub mod transport;
pub mod udp;

pub use backend::{run_script, Backend, MpChaosRig, ParityScript, ScriptOutcome};
pub use clock::ClockSource;
pub use codec::{decode_frame, encode_frame, encode_frame_into, CodecError};
pub use emptcp_faults::ChaosPath;
pub use parity::{certify, ParityDiff, ParityReport};
pub use reactor::{ConnWorker, Reactor, ReactorStats};
pub use session::{
    bind_serve, run_connect, run_serve, ServeSession, SessionConfig, TransferReport,
};
pub use transport::{DuplexTransport, Transport};
pub use udp::UdpTransport;
