//! Fixed-size file downloads.
//!
//! The evaluation's bread and butter: the controlled lab uses 256 MB files
//! (§4.2–4.5), the in-the-wild study uses 256 KB "small" and 16 MB "large"
//! transfers (§5.2–5.3), and Fig 4 sweeps 1/4/16 MB.

use serde::{Deserialize, Serialize};

/// One mebibyte.
pub const MB: u64 = 1 << 20;
/// One kibibyte.
pub const KB: u64 = 1 << 10;

/// A single-file download request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DownloadSpec {
    /// Bytes the client asks the server to send.
    pub size_bytes: u64,
    /// Bytes of the HTTP-like request the client uploads first.
    pub request_bytes: u64,
}

impl DownloadSpec {
    /// A download of `size_bytes` with a typical 400-byte GET request.
    pub fn of(size_bytes: u64) -> Self {
        DownloadSpec {
            size_bytes,
            request_bytes: 400,
        }
    }

    /// §5.2's small transfer.
    pub fn small() -> Self {
        Self::of(256 * KB)
    }

    /// §5.3's large transfer.
    pub fn large() -> Self {
        Self::of(16 * MB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sizes() {
        assert_eq!(DownloadSpec::small().size_bytes, 262_144);
        assert_eq!(DownloadSpec::large().size_bytes, 16_777_216);
        assert_eq!(DownloadSpec::of(5).request_bytes, 400);
    }
}
