//! A free-listed slab for in-flight [`Segment`]s.
//!
//! Simulation hosts keep one segment per queued hop event. Carrying the
//! 120-byte [`Segment`] by value through every queue operation means the
//! event payload dominates the memcpy cost of the hot loop; parking the
//! segment here and carrying a 4-byte [`SegRef`] instead keeps queue
//! payloads word-sized and recycles segment storage without touching the
//! allocator in steady state.
//!
//! The slab doubles as a leak oracle: it counts every allocation, free and
//! double-free, so a host that drops a hop event without reclaiming its
//! segment (or reclaims one twice) is caught structurally at end of run —
//! `live() == 0` and `double_frees == 0` — rather than showing up as slow
//! memory growth. The invariant checker consumes [`SegSlabStats`] for
//! exactly that check.

use crate::segment::Segment;
use serde::Serialize;

/// Handle to a segment parked in a [`SegmentSlab`].
///
/// Plain index, deliberately `Copy`: the owning host moves it through its
/// event queue and reclaims it exactly once with [`SegmentSlab::take`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegRef(u32);

/// Allocation counters of a [`SegmentSlab`], exported for leak oracles.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize)]
pub struct SegSlabStats {
    /// Segments parked over the slab's lifetime.
    pub allocated: u64,
    /// Segments reclaimed over the slab's lifetime.
    pub freed: u64,
    /// Segments currently parked (`allocated - freed`).
    pub live: u64,
    /// Reclaims of a slot that was already empty — always a host bug.
    pub double_frees: u64,
    /// Distinct slots ever backed (the high-water mark of `live`).
    pub capacity: usize,
}

/// Free-listed segment storage with recycle counters. See the module docs.
#[derive(Debug, Default)]
pub struct SegmentSlab {
    slots: Vec<Option<Segment>>,
    free: Vec<u32>,
    allocated: u64,
    freed: u64,
    double_frees: u64,
}

impl SegmentSlab {
    /// An empty slab.
    pub fn new() -> SegmentSlab {
        SegmentSlab::default()
    }

    /// Park a segment, recycling a freed slot when one is available.
    pub fn insert(&mut self, seg: Segment) -> SegRef {
        self.allocated += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(seg);
                SegRef(i)
            }
            None => {
                debug_assert!(self.slots.len() < u32::MAX as usize, "segment slab full");
                self.slots.push(Some(seg));
                SegRef((self.slots.len() - 1) as u32)
            }
        }
    }

    /// Reclaim a parked segment, returning its slot to the free list.
    ///
    /// Taking a slot that is already empty returns `None` and bumps the
    /// `double_frees` counter instead of panicking, so the invariant
    /// battery can report the bug with the run's context attached.
    pub fn take(&mut self, r: SegRef) -> Option<Segment> {
        match self.slots.get_mut(r.0 as usize).and_then(Option::take) {
            Some(seg) => {
                self.freed += 1;
                self.free.push(r.0);
                Some(seg)
            }
            None => {
                self.double_frees += 1;
                None
            }
        }
    }

    /// Segments currently parked.
    pub fn live(&self) -> u64 {
        self.allocated - self.freed
    }

    /// Lifetime counters for the leak oracle.
    pub fn stats(&self) -> SegSlabStats {
        SegSlabStats {
            allocated: self.allocated,
            freed: self.freed,
            live: self.live(),
            double_frees: self.double_frees,
            capacity: self.slots.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimTime;

    fn seg(payload: u32) -> Segment {
        let mut s = Segment::empty(SimTime::ZERO);
        s.payload = payload;
        s
    }

    #[test]
    fn round_trips_segments() {
        let mut slab = SegmentSlab::new();
        let a = slab.insert(seg(1));
        let b = slab.insert(seg(2));
        assert_eq!(slab.take(b).unwrap().payload, 2);
        assert_eq!(slab.take(a).unwrap().payload, 1);
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn recycles_slots_without_growing() {
        let mut slab = SegmentSlab::new();
        for i in 0..1000 {
            let r = slab.insert(seg(i));
            assert!(slab.take(r).is_some());
        }
        let st = slab.stats();
        assert_eq!(st.allocated, 1000);
        assert_eq!(st.freed, 1000);
        assert_eq!(st.live, 0);
        assert_eq!(st.double_frees, 0);
        assert_eq!(st.capacity, 1, "free slots must be recycled, not leaked");
    }

    #[test]
    fn double_free_is_counted_not_fatal() {
        let mut slab = SegmentSlab::new();
        let r = slab.insert(seg(7));
        assert!(slab.take(r).is_some());
        assert!(slab.take(r).is_none());
        assert_eq!(slab.stats().double_frees, 1);
        assert_eq!(slab.stats().freed, 1);
    }

    #[test]
    fn leak_shows_in_live_count() {
        let mut slab = SegmentSlab::new();
        let _held = slab.insert(seg(9));
        let r = slab.insert(seg(10));
        slab.take(r);
        let st = slab.stats();
        assert_eq!(st.live, 1);
        assert_eq!(st.allocated, 2);
    }
}
