//! The retransmission store: segments sent and not yet cumulatively
//! acknowledged, in sequence order.
//!
//! Segments enter at `snd_nxt` and leave from the front as the cumulative
//! ACK passes them, so the store is a queue: a send is a push at the back
//! and an ACK pops from the front, both O(1) and allocation-free once the
//! ring has grown to the window. Lookups by sequence (SACK marking, the
//! retransmission queue's head) are binary searches. Entries never
//! overlap.

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
    /// Retransmitted this recovery.
    pub retransmitted: bool,
    /// Selectively acknowledged (RFC 2018): delivered but not yet covered
    /// by the cumulative ack.
    pub sacked: bool,
    /// Deemed lost (RFC 6675 IsLost): excluded from the pipe estimate
    /// until retransmitted.
    pub lost: bool,
}

impl SentSeg {
    /// Sequence space the segment occupies.
    pub fn space(&self) -> u64 {
        self.payload as u64 + self.syn as u64 + self.fin as u64
    }
}

/// Sent segments keyed by their first sequence number, ascending.
#[derive(Clone, Debug, Default)]
pub struct SendQueue {
    segs: VecDeque<(u64, SentSeg)>,
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

    /// Index of the first entry at or after `seq`.
    fn lower_bound(&self, seq: u64) -> usize {
        self.segs.partition_point(|&(s, _)| s < seq)
    }

    fn index_of(&self, seq: u64) -> Option<usize> {
        let at = self.lower_bound(seq);
        (self.segs.get(at)?.0 == seq).then_some(at)
    }

    /// Record a segment sent at `seq`, replacing any entry already there.
    /// New data always lands at the back; anything else is placed in
    /// order.
    pub fn insert(&mut self, seq: u64, seg: SentSeg) {
        if self.segs.back().is_none_or(|&(last, _)| last < seq) {
            self.segs.push_back((seq, seg));
            return;
        }
        let at = self.lower_bound(seq);
        if self.segs[at].0 == seq {
            self.segs[at].1 = seg;
        } else {
            self.segs.insert(at, (seq, seg));
        }
    }

    /// Forget the segment starting at `seq` (the handshake's, once
    /// answered).
    pub fn remove(&mut self, seq: u64) -> Option<SentSeg> {
        let at = self.index_of(seq)?;
        self.segs.remove(at).map(|(_, seg)| seg)
    }

    /// The segment starting exactly at `seq`.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut SentSeg> {
        self.index_of(seq).map(|at| &mut self.segs[at].1)
    }

    /// A segment starts exactly at `seq`.
    pub fn contains_key(&self, seq: u64) -> bool {
        self.index_of(seq).is_some()
    }

    /// Every segment, in sequence order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut SentSeg)> {
        self.segs.iter_mut().map(|(seq, seg)| (*seq, seg))
    }

    /// The segments starting in `[start, end)`, in sequence order.
    pub fn range_mut(&mut self, start: u64, end: u64) -> impl Iterator<Item = (u64, &mut SentSeg)> {
        let from = self.lower_bound(start);
        self.segs
            .range_mut(from..)
            .take_while(move |(seq, _)| *seq < end)
            .map(|(seq, seg)| (*seq, seg))
    }

    /// Remove and return the front segment if the cumulative `ack` covers
    /// all of it. One that straddles the ACK point stays.
    pub fn pop_acked(&mut self, ack: u64) -> Option<SentSeg> {
        let &(seq, seg) = self.segs.front()?;
        if seq + seg.space() > ack {
            return None;
        }
        self.segs.pop_front();
        Some(seg)
    }
}
