//! The sender's scoreboard: segments sent and not yet cumulatively
//! acknowledged, in sequence order, with their loss-recovery marks.
//!
//! Segments enter at `snd_nxt` and leave from the front as the cumulative
//! ACK passes them, so the store is a queue: a send is a push at the back
//! and an ACK pops from the front, both O(1) and allocation-free once the
//! ring has grown to the window. Entries never overlap.
//!
//! The queue alone writes a segment's four marks (SACKed, lost,
//! retransmitted, queued for retransmission), each together with what it
//! counts toward, so these hold by construction:
//!
//! - [`sacked_bytes`](SendQueue::sacked_bytes) and
//!   [`lost_bytes`](SendQueue::lost_bytes), which the pipe estimate
//!   subtracts, are the sequence space of the SACKed and the lost segments;
//! - the queued segments are counted and none starts below a sequence
//!   hint, so the next retransmission, the lowest queued sequence, is
//!   found from there without a second sorted list;
//! - a SACK takes what it marks off the retransmission queue, and so does
//!   the cumulative ACK, also for a segment it lands inside (that one stays
//!   in flight).
//!
//! *When* a segment is deemed lost or queued is the endpoint's policy.

use emptcp_sim::SimTime;
use std::collections::VecDeque;

/// What the sender remembers about one transmitted segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentSeg {
    /// Payload bytes carried.
    pub payload: u32,
    /// The segment was a SYN (one unit of sequence space).
    pub syn: bool,
    /// The segment carried the FIN (one unit of sequence space).
    pub fin: bool,
    /// When it was last put on the wire.
    pub ts: SimTime,
    retransmitted: bool,
    sacked: bool,
    lost: bool,
    queued: bool,
}

impl SentSeg {
    /// A segment on its first transmission at `ts`, unmarked.
    pub fn new(payload: u32, syn: bool, fin: bool, ts: SimTime) -> Self {
        SentSeg {
            payload,
            syn,
            fin,
            ts,
            retransmitted: false,
            sacked: false,
            lost: false,
            queued: false,
        }
    }

    /// Sequence space the segment occupies.
    pub fn space(&self) -> u64 {
        self.payload as u64 + self.syn as u64 + self.fin as u64
    }

    /// Retransmitted this recovery.
    pub fn retransmitted(&self) -> bool {
        self.retransmitted
    }

    /// Selectively acknowledged (RFC 2018), not yet cumulatively.
    pub fn sacked(&self) -> bool {
        self.sacked
    }

    /// Deemed lost (RFC 6675 IsLost) and not yet retransmitted.
    pub fn lost(&self) -> bool {
        self.lost
    }

    /// Waiting in the retransmission queue.
    pub fn queued(&self) -> bool {
        self.queued
    }
}

/// Sent segments keyed by their first sequence number, ascending, with
/// the totals of their marks.
#[derive(Clone, Debug, Default)]
pub struct SendQueue {
    segs: VecDeque<(u64, SentSeg)>,
    sacked_bytes: u64,
    lost_bytes: u64,
    /// Segments marked queued.
    queued: usize,
    /// No queued segment starts below this sequence.
    queued_from: u64,
}

impl SendQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nothing is awaiting acknowledgement.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Sequence space of the SACKed segments.
    pub fn sacked_bytes(&self) -> u64 {
        self.sacked_bytes
    }

    /// Sequence space of the lost segments.
    pub fn lost_bytes(&self) -> u64 {
        self.lost_bytes
    }

    /// Every segment, in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SentSeg)> + '_ {
        self.segs.iter().copied()
    }

    /// Index of the first entry at or after `seq`.
    fn lower_bound(&self, seq: u64) -> usize {
        self.segs.partition_point(|&(s, _)| s < seq)
    }

    /// Record a segment just sent at `seq`, past every segment held.
    pub fn push(&mut self, seq: u64, seg: SentSeg) {
        debug_assert!(self.segs.back().is_none_or(|&(s, e)| s + e.space() <= seq));
        debug_assert_eq!(seg, SentSeg::new(seg.payload, seg.syn, seg.fin, seg.ts));
        self.segs.push_back((seq, seg));
    }

    fn set_lost(&mut self, at: usize, lost: bool) {
        let seg = &mut self.segs[at].1;
        self.lost_bytes -= seg.space() * u64::from(seg.lost);
        self.lost_bytes += seg.space() * u64::from(lost);
        seg.lost = lost;
    }

    fn set_queued(&mut self, at: usize, queued: bool) {
        let (seq, seg) = &mut self.segs[at];
        self.queued = self.queued - usize::from(seg.queued) + usize::from(queued);
        seg.queued = queued;
        if queued {
            self.queued_from = self.queued_from.min(*seq);
        }
    }

    /// The cumulative ACK reached `ack`: pop every segment it covers and
    /// return their payload bytes. A segment it lands inside stays in
    /// flight but leaves the retransmission queue.
    pub fn ack(&mut self, ack: u64) -> u64 {
        let mut payload = 0;
        while let Some(&(seq, seg)) = self.segs.front().filter(|&&(seq, _)| seq < ack) {
            if seq + seg.space() > ack {
                self.set_queued(0, false);
                break;
            }
            self.segs.pop_front();
            self.queued -= usize::from(seg.queued);
            self.lost_bytes -= seg.space() * u64::from(seg.lost);
            self.sacked_bytes -= seg.space() * u64::from(seg.sacked);
            payload += seg.payload as u64;
        }
        payload
    }

    /// A SACK block reported `[start, end)` delivered: every segment it
    /// wholly covers is SACKed, no longer lost and no longer queued.
    pub fn sack(&mut self, start: u64, end: u64) {
        for at in self.lower_bound(start)..self.lower_bound(end) {
            let (seq, seg) = self.segs[at];
            if !seg.sacked && seq + seg.space() <= end {
                self.segs[at].1.sacked = true;
                self.sacked_bytes += seg.space();
                self.set_lost(at, false);
                self.set_queued(at, false);
            }
        }
    }

    /// Queue and deem lost every hole starting below `below`: un-SACKed,
    /// not already queued, and not yet retransmitted this recovery (a
    /// retransmission that is itself lost falls back to the RTO).
    pub fn queue_holes(&mut self, below: u64) {
        for at in 0..self.lower_bound(below) {
            let seg = self.segs[at].1;
            if !seg.sacked && !seg.retransmitted && !seg.queued {
                self.set_queued(at, true);
                self.set_lost(at, true);
            }
        }
    }

    /// Queue the segment starting exactly at `seq`, if there is one, and
    /// deem it lost if `lost`.
    pub fn queue(&mut self, seq: u64, lost: bool) {
        let at = self.lower_bound(seq);
        if self.segs.get(at).is_some_and(|&(s, _)| s == seq) {
            if lost {
                self.set_lost(at, true);
            }
            self.set_queued(at, true);
        }
    }

    /// The retransmission timer fired: every un-SACKed segment is lost and
    /// queued, and the once-per-recovery retransmission marks are cleared.
    pub fn rto_sweep(&mut self) {
        (self.lost_bytes, self.queued, self.queued_from) = (0, 0, 0);
        for (_, seg) in &mut self.segs {
            (seg.retransmitted, seg.lost, seg.queued) = (false, !seg.sacked, !seg.sacked);
            self.lost_bytes += seg.space() * u64::from(seg.lost);
            self.queued += usize::from(seg.queued);
        }
    }

    /// The next sequence to retransmit: the lowest one queued.
    pub fn next_retx(&self) -> Option<u64> {
        if self.queued == 0 {
            return None;
        }
        let from = self.lower_bound(self.queued_from);
        let next = self.segs.range(from..).find(|(_, seg)| seg.queued);
        next.map(|&(seq, _)| seq)
    }

    /// Take the [next retransmission](Self::next_retx) off the queue and
    /// record it re-sent at `now`: retransmitted, no longer lost.
    pub fn retransmit(&mut self, now: SimTime) -> Option<(u64, SentSeg)> {
        let seq = self.next_retx()?;
        self.queued_from = seq;
        let at = self.lower_bound(seq);
        self.set_queued(at, false);
        self.set_lost(at, false);
        let seg = &mut self.segs[at].1;
        (seg.retransmitted, seg.ts) = (true, now);
        Some((seq, *seg))
    }
}
