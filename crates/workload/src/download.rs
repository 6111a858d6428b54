//! Download sizes.
//!
//! The evaluation's bread and butter: the controlled lab uses 256 MB files
//! (§4.2–4.5), the in-the-wild study uses 256 KB "small" and 16 MB "large"
//! transfers (§5.2–5.3), and Fig 4 sweeps 1/4/16 MB.

/// One mebibyte.
pub const MB: u64 = 1 << 20;
/// One kibibyte.
pub const KB: u64 = 1 << 10;

/// The upload that asks for a bulk download or timed bulk transfer; the
/// server answers once all of it has arrived.
pub const BULK_REQUEST_BYTES: u64 = 400;
/// The response to an "unbounded" bulk request: far more than any run can
/// move.
pub const UNBOUNDED_BYTES: u64 = 1 << 42;
