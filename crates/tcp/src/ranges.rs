//! A coalesced set of half-open sequence ranges.
//!
//! Both reassembly queues in the stack — a TCP endpoint's out-of-order
//! store and an MPTCP connection's data-level one — hold "bytes received
//! beyond the in-order point". Delivery is a union of what they hold, so
//! the granularity of the entries is free: keeping touching and
//! overlapping ranges merged makes the store O(holes in the stream), not
//! O(segments received), which is what bounds memory when one path stalls
//! while another runs a full window ahead.

use std::collections::VecDeque;

/// Disjoint, non-touching `[start, end)` ranges, ordered by `start`.
///
/// Flat and sorted: the set usually holds zero to three ranges, and a
/// segment arriving behind a hole almost always extends the last one, so
/// the common insert rewrites the back entry in place and the drain step
/// pops the front, neither touching the allocator once the deque has
/// grown to its working size.
#[derive(Clone, Debug, Default)]
pub struct RangeSet {
    ranges: VecDeque<(u64, u64)>,
    bytes: u64,
}

impl RangeSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `[start, end)`, merging it with every range it overlaps or
    /// touches. An empty range is ignored.
    pub fn insert(&mut self, mut start: u64, mut end: u64) {
        if start >= end {
            return;
        }
        // The common case: at or beyond the start of the last range,
        // which it then extends or follows.
        match self.ranges.back_mut() {
            Some(back) if back.0 > start => {}
            Some(back) if back.1 >= start => {
                if back.1 < end {
                    self.bytes += end - back.1;
                    back.1 = end;
                }
                return;
            }
            _ => {
                self.ranges.push_back((start, end));
                self.bytes += end - start;
                return;
            }
        }
        // Ranges `[at, to)` overlap or touch `[start, end)`: the last one
        // beginning at or before `start` if it reaches it, and every one
        // after it beginning at or before `end`.
        let mut at = self.ranges.partition_point(|&(s, _)| s <= start);
        if let Some(prev) = at.checked_sub(1) {
            let (ps, pe) = self.ranges[prev];
            if pe >= start {
                if pe >= end {
                    return; // fully covered
                }
                start = ps;
                at = prev;
            }
        }
        let to = at
            + self
                .ranges
                .range(at..)
                .take_while(|&&(s, _)| s <= end)
                .count();
        if at == to {
            self.ranges.insert(at, (start, end));
            self.bytes += end - start;
            return;
        }
        for &(s, e) in self.ranges.range(at..to) {
            self.bytes -= e - s;
            end = end.max(e);
        }
        self.ranges.drain(at + 1..to);
        self.ranges[at] = (start, end);
        self.bytes += end - start;
    }

    /// Remove and return the lowest range if it begins at or before
    /// `pos` — the drain step of in-order delivery.
    pub fn pop_reaching(&mut self, pos: u64) -> Option<(u64, u64)> {
        let &(start, end) = self.ranges.front()?;
        if start > pos {
            return None;
        }
        self.ranges.pop_front();
        self.bytes -= end - start;
        Some((start, end))
    }

    /// The first range beginning at or after `cursor`.
    pub fn first_from(&self, cursor: u64) -> Option<(u64, u64)> {
        let at = self.ranges.partition_point(|&(s, _)| s < cursor);
        self.ranges.get(at).copied()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of disjoint ranges held.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Total bytes held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(set: &RangeSet) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = 0;
        while let Some((s, e)) = set.first_from(cursor) {
            out.push((s, e));
            cursor = e;
        }
        out
    }

    #[test]
    fn touching_and_overlapping_ranges_merge() {
        let mut set = RangeSet::new();
        set.insert(10, 20);
        set.insert(30, 40);
        assert_eq!(held(&set), [(10, 20), (30, 40)]);
        set.insert(20, 30); // touches both neighbours
        assert_eq!(held(&set), [(10, 40)]);
        set.insert(5, 12); // overlaps the front
        set.insert(35, 50); // overlaps the back
        set.insert(15, 18); // already covered
        assert_eq!(held(&set), [(5, 50)]);
        assert_eq!((set.len(), set.bytes()), (1, 45));
        set.insert(7, 7);
        assert_eq!(set.bytes(), 45, "an empty range adds nothing");
    }

    #[test]
    fn one_insert_can_swallow_many_ranges() {
        let mut set = RangeSet::new();
        for i in 0..10 {
            set.insert(i * 10, i * 10 + 5);
        }
        assert_eq!((set.len(), set.bytes()), (10, 50));
        set.insert(3, 93);
        assert_eq!(held(&set), [(0, 95)]);
        assert_eq!(set.bytes(), 95);
    }

    #[test]
    fn pop_reaching_drains_only_what_the_stream_reached() {
        let mut set = RangeSet::new();
        set.insert(100, 200);
        set.insert(300, 400);
        assert_eq!(set.pop_reaching(99), None);
        assert_eq!(set.pop_reaching(100), Some((100, 200)));
        assert_eq!(set.pop_reaching(200), None);
        assert_eq!(set.bytes(), 100);
        assert_eq!(set.pop_reaching(350), Some((300, 400)));
        assert!(set.is_empty());
    }
}
