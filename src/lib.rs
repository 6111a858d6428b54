#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Umbrella crate for the eMPTCP reproduction workspace.
//!
//! This crate exists to host the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`. It re-exports the workspace
//! crates so examples can use a single dependency root.

pub use emptcp;
pub use emptcp_energy as energy;
pub use emptcp_expr as expr;
pub use emptcp_mptcp as mptcp;
pub use emptcp_phy as phy;
pub use emptcp_sim as sim;
pub use emptcp_tcp as tcp;
pub use emptcp_workload as workload;
