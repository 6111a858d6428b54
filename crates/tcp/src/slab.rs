//! A free-listed slab of [`Segment`]s.
//!
//! No engine uses it: a queued event owns its segment, and the event
//! queue stores each payload once in its own slab. It stays only because
//! the benchmark's `tcp.slab.recycle_ns` probe builds one; a change to the
//! benchmark deletes this type together with that probe.

use crate::segment::Segment;

/// Handle to a segment parked in a [`SegmentSlab`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegRef(u32);

/// Free-listed segment storage: `insert` recycles a freed slot before
/// growing.
#[derive(Debug, Default)]
pub struct SegmentSlab {
    slots: Vec<Option<Segment>>,
    free: Vec<u32>,
}

impl SegmentSlab {
    /// An empty slab.
    pub fn new() -> SegmentSlab {
        SegmentSlab::default()
    }

    /// Park a segment, recycling a freed slot when one is available.
    pub fn insert(&mut self, seg: Segment) -> SegRef {
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

    /// Take a parked segment out, returning its slot to the free list;
    /// `None` if the slot is already empty.
    pub fn take(&mut self, r: SegRef) -> Option<Segment> {
        let seg = self.slots.get_mut(r.0 as usize)?.take()?;
        self.free.push(r.0);
        Some(seg)
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
    }

    #[test]
    fn recycles_slots_without_growing() {
        let mut slab = SegmentSlab::new();
        let first = slab.insert(seg(0));
        assert!(slab.take(first).is_some());
        for i in 1..1000 {
            let r = slab.insert(seg(i));
            assert_eq!(r, first, "free slots must be recycled, not leaked");
            assert!(slab.take(r).is_some());
        }
    }
}
