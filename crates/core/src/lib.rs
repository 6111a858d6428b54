#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! eMPTCP: energy-aware multi-path TCP (the paper's contribution, §3).
//!
//! Four components extend regular MPTCP at the transport layer (paper
//! Fig 2), all of which live here:
//!
//! * [`predictor`] — the bandwidth predictor (§3.2): per-interface
//!   throughput sampling at an RTT-derived interval δ, forecast with
//!   Holt-Winters exponential smoothing;
//! * the **energy information base** (§3.3) — generated offline by
//!   `emptcp-energy` ([`emptcp_energy::Eib`]) and queried here;
//! * [`controller`] — the path usage controller (§3.4): EIB lookups on the
//!   predicted throughputs with a 10% hysteresis "safety factor";
//! * [`delay`] — delayed subflow establishment (§3.5): the κ-bytes rule,
//!   the τ timer with its eq. (1) lower bound, and idle postponement.
//!
//! [`client`] ties them together as [`client::EmptcpClient`]: the control
//! loop a host runs next to an `emptcp-mptcp` client connection. It emits
//! [`client::Action`]s (establish the cellular subflow, flip MP_PRIO
//! priorities, apply the §3.6 resume tweaks) rather than touching sockets,
//! keeping the policy testable in isolation.
//!
//! ```
//! use emptcp::{EmptcpClient, EmptcpConfig};
//! use emptcp_energy::{Eib, EnergyModel};
//! use emptcp_phy::IfaceKind;
//!
//! // The offline step the paper performs once per device (§3.3):
//! let eib = Eib::generate_default(&EnergyModel::galaxy_s3_lte());
//! // At 1 Mbps LTE, the Table 2 thresholds fall out of the model:
//! let (lte_only_below, wifi_only_at) = eib.thresholds(1.0);
//! assert!((lte_only_below - 0.134).abs() < 0.01);
//! assert!((wifi_only_at - 0.502).abs() < 0.01);
//!
//! // The on-device engine consumes the EIB:
//! let engine = EmptcpClient::new(EmptcpConfig::default(), eib, IfaceKind::CellularLte);
//! assert_eq!(engine.switches(), 0);
//! ```

pub mod client;
pub mod controller;
pub mod delay;
pub mod predictor;

pub use client::{Action, EmptcpClient, EmptcpConfig, IfaceTotals};
pub use controller::PathUsageController;
pub use delay::{min_tau, DelayedEstablishment};
pub use predictor::{BandwidthPredictor, HoltWinters};
