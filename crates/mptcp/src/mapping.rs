//! Run-length DSS mapping tables.
//!
//! A data-sequence mapping ties a stretch of one subflow's byte stream to a
//! stretch of the connection's. The sender makes one per scheduling
//! decision and the receiver learns one per arriving segment, so a table
//! with an entry apiece grows with the window — thousands of entries per
//! subflow once the windows are megabytes. But the scheduler hands a
//! subflow bursts of consecutive chunks, and those are contiguous in
//! *both* sequence spaces, so both tables store runs instead: memory is
//! O(scheduler bursts in flight), and every answer is what the per-entry
//! table would have given. [`DataReassembly`] is the third leg: the
//! connection-level reorder queue as a coalesced [`RangeSet`], O(holes)
//! where one entry per out-of-order segment was O(window).

use emptcp_tcp::{Dss, RangeSet};
use std::collections::VecDeque;

/// Consecutive pushes contiguous in both sequence spaces: `len` bytes from
/// subflow position `start` map to data position `data_seq`, pushed in
/// pieces of `stride` bytes — all of them exactly `stride` except possibly
/// the last, which closes the run. The original push boundaries are thus
/// recoverable, and reinjection re-queues exactly the chunks that were
/// scheduled.
#[derive(Clone, Copy, Debug)]
struct TxRun {
    start: u64,
    data_seq: u64,
    len: u64,
    stride: u32,
}

impl TxRun {
    fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Run-relative `[from, to)` of the push holding run offset `off`.
    fn push_at(&self, off: u64) -> (u64, u64) {
        let from = off - off % self.stride as u64;
        (from, (from + self.stride as u64).min(self.len))
    }
}

/// Sender side: what this end scheduled onto a subflow and has not seen
/// acknowledged there.
#[derive(Clone, Debug, Default)]
pub struct TxMappings {
    /// Ascending and disjoint in subflow space.
    runs: VecDeque<TxRun>,
}

impl TxMappings {
    /// Record `len` data bytes from `data_seq` scheduled at subflow
    /// position `subflow_seq`; positions never go backwards.
    pub fn push(&mut self, subflow_seq: u64, data_seq: u64, len: u32) {
        if len == 0 {
            return;
        }
        if let Some(run) = self.runs.back_mut() {
            debug_assert!(run.end() <= subflow_seq, "pushes out of order");
            // Only a run of whole strides is still open, and only a piece
            // no longer than the stride keeps the boundaries recoverable.
            if run.end() == subflow_seq
                && run.data_seq + run.len == data_seq
                && run.len % run.stride as u64 == 0
                && len <= run.stride
            {
                run.len += len as u64;
                return;
            }
        }
        self.runs.push_back(TxRun {
            start: subflow_seq,
            data_seq,
            len: len as u64,
            stride: len,
        });
    }

    /// The DSS for an outgoing segment covering `[seq, seq + len)`, `len`
    /// nonzero: `None` unless one push holds all of it.
    pub fn dss(&self, seq: u64, len: u32, data_ack: u64) -> Option<Dss> {
        let idx = self
            .runs
            .partition_point(|r| r.start <= seq)
            .checked_sub(1)?;
        let run = &self.runs[idx];
        let off = seq - run.start;
        if off >= run.len || off + len as u64 > run.push_at(off).1 {
            return None;
        }
        Some(Dss {
            data_seq: run.data_seq + off,
            len,
            data_ack,
        })
    }

    /// Call `visit(data_seq, len)` for each data range not acknowledged
    /// below subflow position `una`, one per original push (the first cut
    /// at `una`), in subflow order.
    pub fn for_each_unacked(&self, una: u64, mut visit: impl FnMut(u64, u32)) {
        for run in self.runs.iter().filter(|r| r.end() > una) {
            let acked = una.saturating_sub(run.start);
            let mut off = run.push_at(acked).0;
            while off < run.len {
                let to = run.push_at(off).1;
                let from = off.max(acked);
                visit(run.data_seq + from, (to - from) as u32);
                off = to;
            }
        }
    }

    /// What [`for_each_unacked`](Self::for_each_unacked) visits, in order.
    pub fn unacked(&self, una: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        self.for_each_unacked(una, |seq, len| out.push((seq, len)));
        out
    }

    /// Forget every push acknowledged in full below `una`.
    pub fn gc(&mut self, una: u64) {
        while let Some(run) = self.runs.front_mut() {
            if run.end() <= una {
                self.runs.pop_front();
                continue;
            }
            if una > run.start {
                let acked = run.push_at(una - run.start).0;
                run.start += acked;
                run.data_seq += acked;
                run.len -= acked;
            }
            break;
        }
    }

    /// Runs held.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Receiver side: mappings learned from arriving DSS options, consulted
/// when the subflow delivers bytes in order.
#[derive(Clone, Debug, Default)]
pub struct RxMappings {
    /// `(subflow start, data_seq, len)`, ascending by start with no start
    /// repeated. A DSS that continues (or repeats part of) an entry in
    /// both sequence spaces is folded into it, so in-order and
    /// retransmitted segments of one burst share one.
    runs: VecDeque<(u64, u64, u64)>,
}

impl RxMappings {
    /// Record the mapping a DSS option carried for subflow position
    /// `subflow_seq`. Arrival order is free; a zero-length DSS (a bare
    /// data-ack) maps nothing. A mapping at the start of one held already
    /// that does not continue it replaces it.
    pub fn learn(&mut self, subflow_seq: u64, dss: Dss) {
        if dss.len == 0 {
            return;
        }
        let (mut start, mut data_seq) = (subflow_seq, dss.data_seq);
        // Sequence numbers come off the wire: a mapping that would run
        // past the end of sequence space maps nothing.
        let Some(mut end) = subflow_seq.checked_add(dss.len as u64) else {
            return;
        };
        // The common case: beyond the start of the last entry, which it
        // then continues or follows.
        if let Some(back) = self.runs.back_mut().filter(|b| b.0 < start) {
            let (ps, pd, pl) = *back;
            if ps + pl >= start && pd.wrapping_add(start - ps) == data_seq {
                back.2 = pl.max(end - ps);
            } else {
                self.runs.push_back((start, data_seq, end - start));
            }
            return;
        }
        // `at` is where the mapping goes; `replace` when the entry there
        // is the predecessor it folds into or the one it displaces.
        let mut at = self.runs.partition_point(|&(s, _, _)| s <= start);
        let mut replace = false;
        if let Some(prev) = at.checked_sub(1) {
            let (ps, pd, pl) = self.runs[prev];
            // Fold into a predecessor that reaches this mapping and
            // agrees with it about where its bytes go.
            if ps + pl >= start && pd.wrapping_add(start - ps) == data_seq {
                if ps + pl >= end {
                    return; // a retransmission: nothing new
                }
                (start, data_seq) = (ps, pd);
            }
            if ps == start {
                (at, replace) = (prev, true);
            }
        }
        // Swallow successors this mapping now reaches, likewise.
        let from = at + usize::from(replace);
        let mut to = from;
        while let Some(&(ns, nd, nl)) = self.runs.get(to) {
            if ns > end || data_seq.wrapping_add(ns - start) != nd {
                break;
            }
            end = end.max(ns + nl);
            to += 1;
        }
        self.runs.drain(from..to);
        if replace {
            self.runs[at] = (start, data_seq, end - start);
        } else {
            self.runs.insert(at, (start, data_seq, end - start));
        }
    }

    /// Translate a delivered subflow range into data-sequence space,
    /// calling `visit(data_seq, len)` once per run crossed, in subflow
    /// order; returns the bytes visited. Translation stops at the first
    /// byte no mapping covers (a protocol error the caller reports).
    pub fn translate_each(&self, seq: u64, len: u32, mut visit: impl FnMut(u64, u32)) -> u64 {
        let mut pos = seq;
        let end = seq + len as u64;
        while pos < end {
            let Some(idx) = self
                .runs
                .partition_point(|&(s, _, _)| s <= pos)
                .checked_sub(1)
            else {
                break;
            };
            let (start, data_seq, run_len) = self.runs[idx];
            let run_end = start + run_len;
            if pos >= run_end {
                break; // hole in the mapping table
            }
            let take = (end.min(run_end) - pos) as u32;
            visit(data_seq.wrapping_add(pos - start), take);
            pos += take as u64;
        }
        pos - seq
    }

    /// Forget every run delivered in full below `delivered_to`.
    pub fn gc(&mut self, delivered_to: u64) {
        while let Some(&(start, _, len)) = self.runs.front() {
            if start + len > delivered_to {
                break;
            }
            self.runs.pop_front();
        }
    }

    /// Runs held.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

#[cfg(test)]
impl RxMappings {
    /// What [`translate_each`](Self::translate_each) visits, in order.
    pub(crate) fn translated(&self, seq: u64, len: u32) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mapped = self.translate_each(seq, len, |data_seq, len| out.push((data_seq, len)));
        assert_eq!(mapped, out.iter().map(|&(_, l)| l as u64).sum::<u64>());
        out
    }
}

/// Connection-level receive stream: the in-order point plus whatever
/// arrived beyond it.
#[derive(Clone, Debug, Default)]
pub struct DataReassembly {
    rcv_nxt: u64,
    ooo: RangeSet,
    ooo_high_water: usize,
}

impl DataReassembly {
    /// Insert `[data_seq, data_seq + len)`; returns the bytes this newly
    /// delivers in order (zero for a duplicate or an out-of-order range,
    /// more than `len` when it fills a hole).
    pub fn receive(&mut self, data_seq: u64, len: u32) -> u64 {
        let end = data_seq.saturating_add(len as u64);
        if end <= self.rcv_nxt {
            return 0; // duplicate (e.g. a reinjected copy)
        }
        if data_seq > self.rcv_nxt {
            self.ooo.insert(data_seq, end);
            self.ooo_high_water = self.ooo_high_water.max(self.ooo.len());
            return 0;
        }
        let from = self.rcv_nxt;
        self.rcv_nxt = end;
        while let Some((_, e)) = self.ooo.pop_reaching(self.rcv_nxt) {
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
        self.rcv_nxt - from
    }

    /// Next data sequence number expected in order (the data-ack).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Disjoint out-of-order ranges held right now.
    pub fn ooo_ranges(&self) -> usize {
        self.ooo.len()
    }

    /// The most out-of-order ranges ever held at once.
    pub fn ooo_high_water(&self) -> usize {
        self.ooo_high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dss(data_seq: u64, len: u32) -> Dss {
        Dss {
            data_seq,
            len,
            data_ack: 0,
        }
    }

    #[test]
    fn a_burst_of_pushes_is_one_run_with_its_boundaries_kept() {
        let mut tx = TxMappings::default();
        for i in 0..10u64 {
            tx.push(1 + i * 1428, 5000 + i * 1428, 1428);
        }
        tx.push(1 + 14_280, 5000 + 14_280, 600); // window-limited tail
        assert_eq!(tx.len(), 1);
        // A segment inside one push maps; one straddling two does not.
        assert_eq!(tx.dss(1 + 1428, 1428, 9).unwrap().data_seq, 5000 + 1428);
        assert_eq!(tx.dss(1 + 1500, 100, 9).unwrap().data_seq, 5000 + 1500);
        assert!(tx.dss(1 + 1000, 1000, 9).is_none());
        assert!(tx.dss(1 + 14_280, 601, 9).is_none());
        // Reinjection sees the eleven chunks that were scheduled.
        let ranges = tx.unacked(0);
        assert_eq!(ranges.len(), 11);
        assert_eq!(ranges[0], (5000, 1428));
        assert_eq!(ranges[10], (5000 + 14_280, 600));
        // The short tail closed the run: the next push starts another.
        tx.push(1 + 14_880, 5000 + 14_880, 1428);
        assert_eq!(tx.len(), 2);
    }

    #[test]
    fn a_push_longer_than_the_stride_or_elsewhere_in_data_space_starts_a_run() {
        let mut tx = TxMappings::default();
        tx.push(1, 0, 500);
        tx.push(501, 500, 1428); // longer than the stride
        tx.push(1929, 90_000, 1428); // a reinjected chunk: data jumps
        assert_eq!(tx.len(), 3);
        assert_eq!(tx.unacked(0), [(0, 500), (500, 1428), (90_000, 1428)]);
    }

    #[test]
    fn gc_and_unacked_cut_at_the_cumulative_ack() {
        let mut tx = TxMappings::default();
        for i in 0..4u64 {
            tx.push(1 + i * 1000, i * 1000, 1000);
        }
        assert_eq!(
            tx.unacked(2501),
            [(2500, 500), (3000, 1000)],
            "the push holding the ack point is cut, the rest are whole"
        );
        tx.gc(2501);
        assert_eq!(tx.len(), 1);
        assert!(
            tx.dss(1001, 1000, 0).is_none(),
            "acknowledged pushes are gone"
        );
        assert_eq!(tx.dss(2001, 1000, 0).unwrap().data_seq, 2000);
        tx.gc(4001);
        assert!(tx.is_empty());
    }

    #[test]
    fn in_order_segments_extend_one_run_and_late_ones_close_the_gap() {
        let mut rx = RxMappings::default();
        rx.learn(1, dss(7000, 1000));
        rx.learn(1001, dss(8000, 1000));
        assert_eq!(rx.len(), 1);
        rx.learn(3001, dss(10_000, 1000)); // 2001.. was lost
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.translated(1, 4000), [(7000, 2000)], "stops at the hole");
        rx.learn(2001, dss(9000, 1000)); // the retransmission
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.translated(1, 4000), [(7000, 4000)]);
        rx.learn(1001, dss(8000, 1000)); // a duplicate changes nothing
        assert_eq!(rx.translated(501, 1000), [(7500, 1000)]);
    }

    #[test]
    fn a_mapping_off_the_end_of_sequence_space_is_ignored() {
        let mut rx = RxMappings::default();
        rx.learn(u64::MAX - 10, dss(0, 1000));
        rx.learn(u64::MAX, dss(u64::MAX, 1));
        assert!(rx.is_empty());
    }

    #[test]
    fn reassembly_holds_holes_not_segments() {
        let mut rx = DataReassembly::default();
        assert_eq!(rx.receive(0, 1000), 1000);
        // A run far ahead of the in-order point, segment by segment.
        for i in 0..500u64 {
            assert_eq!(rx.receive(5000 + i * 1428, 1428), 0);
        }
        assert_eq!((rx.ooo_ranges(), rx.ooo_high_water()), (1, 1));
        assert_eq!(rx.receive(0, 500), 0, "a duplicate delivers nothing");
        // Filling the hole releases everything behind it.
        assert_eq!(rx.receive(1000, 4000), 4000 + 500 * 1428);
        assert_eq!(rx.rcv_nxt(), 5000 + 500 * 1428);
        assert_eq!(rx.ooo_ranges(), 0);
    }

    #[test]
    fn a_jump_in_data_space_keeps_runs_apart() {
        let mut rx = RxMappings::default();
        rx.learn(1, dss(9000, 1000));
        rx.learn(1001, dss(50_000, 500)); // e.g. a reinjected chunk
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.translated(1, 1500), [(9000, 1000), (50_000, 500)]);
        rx.gc(1001);
        assert_eq!(rx.len(), 1);
        assert!(rx.translated(1, 10).is_empty());
    }
}
