#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Wireless channel models for the eMPTCP reproduction.
//!
//! The paper's evaluation runs over a campus 802.11g access point and AT&T
//! 3G/LTE. This crate provides the simulated equivalents:
//!
//! * [`iface`] — interface identities and kinds (WiFi / 3G / LTE),
//! * [`rrc`] — the 3GPP radio-resource-control state machine with the
//!   promotion and tail states whose fixed energy costs motivate eMPTCP's
//!   delayed subflow establishment (§2.3 of the paper),
//! * [`link`] — a rate-limited, queueing, lossy point-to-point pipe,
//! * [`wifi`] — a DCF-inspired contention model for `n` interfering
//!   stations sharing the AP (§4.4),
//! * [`modulation`] — the two-state exponential on-off processes used to
//!   modulate AP bandwidth (§4.3) and interferer activity (§4.4),
//! * [`mobility`] — waypoint routes, log-distance path loss and 802.11g
//!   rate adaptation for the mobile scenario (§4.5),
//! * [`fault`] — what faults hold over an interface (`FaultState`),
//! * [`path`] — a bidirectional end-to-end path (client ↔ server) built
//!   from two links plus the owning radio, taking faults both ways.

pub mod fault;
pub mod iface;
pub mod link;
pub mod mobility;
pub mod modulation;
pub mod path;
pub mod rrc;
pub mod wifi;

pub use iface::IfaceKind;
pub use link::{GeParams, Link, LinkConfig, LossModel, LossProcess};
pub use modulation::OnOffProcess;
pub use path::{Path, PathConfig};
pub use rrc::{RrcConfig, RrcMachine, RrcState};
pub use wifi::WifiChannel;
