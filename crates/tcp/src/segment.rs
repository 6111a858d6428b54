//! TCP segments as they cross the simulated network.
//!
//! Payload contents are never carried — only the sequence range — so a
//! segment is a small value type. Wire size (for link serialization and
//! energy-relevant airtime) is computed from the payload length plus
//! realistic header overhead, including the MPTCP option space that data
//! segments carrying a DSS mapping pay for.

use emptcp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Standard MSS for 1500-byte MTU paths with MPTCP options present.
pub const DEFAULT_MSS: u32 = 1428;
/// Initial congestion window in segments (Linux IW10).
pub const INIT_CWND_SEGMENTS: u32 = 10;
/// How long a receiver may hold the ACK for a lone in-order segment; the
/// second full segment is ACKed at once.
pub const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);

/// Ethernet + IPv4 + TCP header bytes (no options).
pub const BASE_HEADER_BYTES: u64 = 14 + 20 + 20;
/// Timestamp option (RFC 7323), padded.
pub const TS_OPTION_BYTES: u64 = 12;
/// DSS option bytes when a data-sequence mapping is attached.
pub const DSS_OPTION_BYTES: u64 = 20;
/// MP_PRIO option bytes.
pub const MP_PRIO_OPTION_BYTES: u64 = 4;
/// Per-SACK-block option bytes (RFC 2018: 8 per block + 2 header).
pub const SACK_BLOCK_BYTES: u64 = 8;
/// Maximum SACK blocks carried (3, leaving room for the other options).
pub const MAX_SACK_BLOCKS: usize = 3;

/// TCP flags relevant to the model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct SegFlags {
    /// SYN: consumes one sequence number.
    pub syn: bool,
    /// ACK: `ack` field is valid.
    pub ack: bool,
    /// FIN: consumes one sequence number.
    pub fin: bool,
}

/// MPTCP data-sequence-signal option: maps this segment's subflow payload
/// onto the connection-level byte stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Dss {
    /// Connection-level ("data") sequence of the first payload byte.
    pub data_seq: u64,
    /// Length of the mapping (equals the segment payload here).
    pub len: u32,
    /// Cumulative connection-level acknowledgment.
    pub data_ack: u64,
}

/// One TCP segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Segment {
    /// Subflow-level sequence number of the first payload byte (or of the
    /// SYN/FIN if flagged).
    pub seq: u64,
    /// Payload bytes (0 for pure ACKs and SYNs).
    pub payload: u32,
    /// Cumulative subflow-level acknowledgment (valid when `flags.ack`).
    pub ack: u64,
    /// Flags.
    pub flags: SegFlags,
    /// Receive window advertised by the sender of this segment (bytes).
    pub rwnd: u64,
    /// Sender timestamp (RFC 7323 TSval).
    pub ts_val: SimTime,
    /// Echoed peer timestamp (TSecr), used for RTT sampling.
    pub ts_ecr: Option<SimTime>,
    /// MPTCP data-sequence mapping, when carrying connection data.
    pub dss: Option<Dss>,
    /// MPTCP MP_PRIO option: `Some(backup)` requests the peer treat the
    /// subflow this segment rides on as backup (`true`) or normal (`false`).
    pub mp_prio: Option<bool>,
    /// SACK blocks (RFC 2018): received `[start, end)` ranges beyond the
    /// cumulative ack, lowest-first.
    pub sack: [Option<(u64, u64)>; MAX_SACK_BLOCKS],
    /// True if this is a retransmission (diagnostics; Karn's rule is
    /// enforced via timestamps).
    pub retransmit: bool,
}

impl Segment {
    /// A quiet template; builders fill in the rest.
    pub fn empty(now: SimTime) -> Self {
        Segment {
            seq: 0,
            payload: 0,
            ack: 0,
            flags: SegFlags::default(),
            rwnd: 0,
            ts_val: now,
            ts_ecr: None,
            dss: None,
            mp_prio: None,
            sack: [None; MAX_SACK_BLOCKS],
            retransmit: false,
        }
    }

    /// Bytes this segment occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        let mut n = BASE_HEADER_BYTES + TS_OPTION_BYTES + self.payload as u64;
        if self.dss.is_some() {
            n += DSS_OPTION_BYTES;
        }
        if self.mp_prio.is_some() {
            n += MP_PRIO_OPTION_BYTES;
        }
        let sack_blocks = self.sack.iter().flatten().count() as u64;
        if sack_blocks > 0 {
            n += 2 + sack_blocks * SACK_BLOCK_BYTES;
        }
        n
    }

    /// Sequence space consumed: payload plus SYN/FIN.
    pub fn seq_space(&self) -> u64 {
        self.payload as u64 + self.flags.syn as u64 + self.flags.fin as u64
    }

    /// Sequence number just past this segment.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.seq_space()
    }

    /// True for segments carrying no payload and no SYN/FIN (pure ACKs,
    /// window updates, MP_PRIO carriers).
    pub fn is_pure_ack(&self) -> bool {
        self.seq_space() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_accounts_options() {
        let mut seg = Segment::empty(SimTime::ZERO);
        assert_eq!(seg.wire_bytes(), 54 + 12);
        seg.payload = 1000;
        assert_eq!(seg.wire_bytes(), 54 + 12 + 1000);
        seg.dss = Some(Dss {
            data_seq: 0,
            len: 1000,
            data_ack: 0,
        });
        assert_eq!(seg.wire_bytes(), 54 + 12 + 20 + 1000);
        seg.mp_prio = Some(true);
        assert_eq!(seg.wire_bytes(), 54 + 12 + 20 + 4 + 1000);
        seg.sack = [Some((1, 2)), Some((3, 4)), None];
        assert_eq!(seg.wire_bytes(), 54 + 12 + 20 + 4 + 1000 + 2 + 16);
    }

    #[test]
    fn seq_space_counts_flags() {
        let mut seg = Segment::empty(SimTime::ZERO);
        assert_eq!(seg.seq_space(), 0);
        assert!(seg.is_pure_ack());
        seg.flags.syn = true;
        assert_eq!(seg.seq_space(), 1);
        seg.flags.syn = false;
        seg.flags.fin = true;
        seg.payload = 10;
        seg.seq = 100;
        assert_eq!(seg.seq_space(), 11);
        assert_eq!(seg.seq_end(), 111);
        assert!(!seg.is_pure_ack());
    }

    #[test]
    fn mss_fits_mtu() {
        // MSS + headers + TS + DSS must fit a 1500-byte IP MTU + ethernet.
        assert!(DEFAULT_MSS as u64 + 20 + 20 + TS_OPTION_BYTES + DSS_OPTION_BYTES <= 1500);
    }
}
