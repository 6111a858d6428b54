#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The parameterized mobile-device energy model of the eMPTCP paper.
//!
//! The paper computes its Energy Information Base offline from the
//! multi-interface power model of Lim et al. \[17\] (itself built on the
//! cellular measurements of Balasubramanian et al. \[1\] and Huang et
//! al. \[14\]). This crate is that model, rebuilt:
//!
//! * [`power`] — piecewise-linear power-versus-throughput curves,
//! * [`profile`] — device profiles (Samsung Galaxy S3, LG Nexus 5 — the
//!   paper's Table 1 devices) with per-interface curves, cellular
//!   promotion/tail powers and timing, and the simultaneous-use sharing
//!   discount that makes "use both" sometimes the most per-byte-efficient
//!   choice,
//! * [`model`] — steady-state per-byte efficiency for each path usage,
//! * [`eib`] — Energy Information Base generation (the paper's Table 2)
//!   and the Fig 3 efficiency heat map,
//! * [`region`] — finite-transfer operating regions including fixed
//!   promotion/tail costs (the paper's Fig 4),
//! * [`meter`] — runtime energy accounting: integrates power over the
//!   simulated radio activity a host reports.

//! ```
//! use emptcp_energy::{EnergyModel, PathUsage};
//!
//! let model = EnergyModel::galaxy_s3_lte();
//! // Fig 3's V-region: at 0.3 Mbps WiFi / 1 Mbps LTE, using both
//! // interfaces is the most per-byte-efficient choice.
//! let (best, _) = model.best_usage(0.3, 1.0);
//! assert_eq!(best, PathUsage::Both);
//! // With fast WiFi the cellular radio is pure overhead.
//! assert_eq!(model.best_usage(15.0, 1.0).0, PathUsage::WifiOnly);
//! ```

pub mod eib;
pub mod meter;
pub mod model;
pub mod power;
pub mod profile;
pub mod region;

pub use eib::{Eib, EibRow};
pub use meter::{EnergyMeter, RadioSnapshot};
pub use model::{EnergyModel, PathUsage};
pub use power::PowerCurve;
pub use profile::{CellularPower, DeviceProfile};
