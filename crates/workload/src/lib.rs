#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Workload generators for the eMPTCP evaluation.
//!
//! * [`download`] — the `MB`/`KB` units the 256 KB / 16 MB / 256 MB
//!   transfers of §4 and §5 are written in;
//! * [`web`] — the §5.4 web-browsing case study: a CNN-like page of 107
//!   objects fetched over six parallel persistent connections;
//! * [`interference`] — the §4.4 background stations: `n` interferers whose
//!   UDP traffic follows two-state Markov on-off processes;
//! * [`bwplan`] — the §4.3 bandwidth modulation: AP capacity flipping
//!   between a low (≤ 1 Mbps) and a high (≥ 10 Mbps) state with
//!   exponentially distributed holding times;
//! * [`crosstraffic`] — unresponsive on-off packet sources that load a
//!   shared bottleneck in the network-fabric fleet experiments.

pub mod bwplan;
pub mod crosstraffic;
pub mod download;
pub mod interference;
pub mod web;

pub use bwplan::BandwidthModulator;
pub use crosstraffic::CrossTrafficSource;
pub use interference::InterfererSet;
pub use web::WebPage;
