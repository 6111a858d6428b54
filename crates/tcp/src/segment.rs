//! TCP segments as they cross the simulated network.
//!
//! Payload contents are never carried — only the sequence range — so a
//! segment is a small value type: 120 bytes, under the 128 that rustc
//! copies inline, because the SACK blocks are held as `u32` offsets from
//! the cumulative ack rather than as absolute `u64` pairs. Wire size (for
//! link serialization and energy-relevant airtime) is computed from the
//! payload length plus realistic header overhead, including the MPTCP
//! option space that data segments carrying a DSS mapping pay for.

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
    /// SACK blocks (RFC 2018) as `[start, end)` offsets from `ack`; the
    /// first `sack_count` are in use and the rest stay zero. Read and
    /// written through [`sack_blocks`](Self::sack_blocks) and
    /// [`push_sack`](Self::push_sack).
    sack: [(u32, u32); MAX_SACK_BLOCKS],
    sack_count: u8,
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
            sack: [(0, 0); MAX_SACK_BLOCKS],
            sack_count: 0,
            retransmit: false,
        }
    }

    /// The SACK blocks carried, as absolute `[start, end)` ranges in the
    /// order they were pushed.
    pub fn sack_blocks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sack
            .iter()
            .take(self.sack_count as usize)
            .map(|&(start, end)| (self.ack + start as u64, self.ack + end as u64))
    }

    /// Append the SACK block `[start, end)`, stored relative to `ack` (so
    /// set `ack` first). Returns `false`, storing nothing, when the block
    /// starts below `ack`, ends before it starts, ends more than 4 GiB
    /// above `ack`, or all [`MAX_SACK_BLOCKS`] slots are taken.
    #[must_use]
    pub fn push_sack(&mut self, start: u64, end: u64) -> bool {
        let offset = |seq: u64| u32::try_from(seq.checked_sub(self.ack)?).ok();
        let (Some(from), Some(to)) = (offset(start), offset(end)) else {
            return false;
        };
        let slot = self.sack_count as usize;
        if to < from || slot == MAX_SACK_BLOCKS {
            return false;
        }
        self.sack[slot] = (from, to);
        self.sack_count += 1;
        true
    }

    /// Bytes this segment occupies on the wire.
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        let mut n = BASE_HEADER_BYTES + TS_OPTION_BYTES + self.payload as u64;
        if self.dss.is_some() {
            n += DSS_OPTION_BYTES;
        }
        if self.mp_prio.is_some() {
            n += MP_PRIO_OPTION_BYTES;
        }
        let sack_blocks = self.sack_count as u64;
        if sack_blocks > 0 {
            n += 2 + sack_blocks * SACK_BLOCK_BYTES;
        }
        n
    }

    /// Sequence space consumed: payload plus SYN/FIN.
    #[inline]
    pub fn seq_space(&self) -> u64 {
        self.payload as u64 + self.flags.syn as u64 + self.flags.fin as u64
    }

    /// Sequence number just past this segment.
    #[inline]
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
        assert!(seg.push_sack(1, 2) && seg.push_sack(3, 4));
        assert_eq!(seg.wire_bytes(), 54 + 12 + 20 + 4 + 1000 + 2 + 16);
    }

    #[test]
    fn sack_blocks_are_held_relative_to_the_ack() {
        let ack = 1 << 40;
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.ack = ack;
        assert!(seg.push_sack(ack, ack));
        assert!(seg.push_sack(ack + 10, ack + u32::MAX as u64));
        let before = seg;
        // Below the ack, reversed, 4 GiB above it: refused, nothing stored.
        for (start, end) in [
            (ack - 1, ack + 5),
            (ack + 9, ack + 8),
            (ack, ack + (1 << 32)),
        ] {
            assert!(!seg.push_sack(start, end), "[{start}, {end})");
            assert_eq!(seg, before);
        }
        assert!(seg.push_sack(ack + 1, ack + 2));
        assert!(!seg.push_sack(ack + 3, ack + 4), "three blocks at most");
        assert_eq!(
            seg.sack_blocks().collect::<Vec<_>>(),
            [
                (ack, ack),
                (ack + 10, ack + u32::MAX as u64),
                (ack + 1, ack + 2)
            ]
        );
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
