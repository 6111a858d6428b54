//! The deterministic event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence-number)`: events scheduled for the
//! same instant fire in the order they were scheduled, which makes runs
//! reproducible regardless of queue internals or platform.
//!
//! [`EventQueue`] is one binary heap of `(time, seq)` keys over a slab of
//! payloads. Every payload — a simulated segment included — is stored once,
//! in that slab, and a heap sift moves only keys. The differential proptest
//! in `tests/event_queue_model.rs` drives the queue in lockstep with a
//! sorted-`Vec` reference, so any divergence in pop order is caught
//! structurally, not statistically.
//!
//! Protocol crates in this workspace are written as poll-style state machines
//! (in the spirit of smoltcp): they never touch the queue directly, they
//! return deadlines and emissions, and a host drives them from the queue via
//! a single-threaded loop.
//!
//! This queue serves the drivers whose events genuinely reorder or carry
//! their own ordering keys: the sharded fleet engine, `ChaosNet`'s
//! jittered paths and the live UDP transport's egress shaping. In the
//! fleet every event is keyed with [`EventQueue::schedule_keyed`]. The
//! core shard drains its queue with [`EventQueue::pop_before`]; a client
//! shard keeps only what it schedules itself here and the core's hops on
//! two keyed [`LaneQueue`](crate::LaneQueue) lanes, and pops both merged
//! with [`LaneQueue::pop_merged_before`](crate::LaneQueue::pop_merged_before).
//! The device ↔ server host runs on lanes alone: its in-flight segments
//! ride one lane per link direction and its three timers one lane each.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, used for cancellation.
///
/// Carries the event's sequence number (its identity) and the slab slot the
/// payload lives in (a lookup hint). A stale handle — already fired or
/// already cancelled — fails the sequence check and cancels nothing, so
/// handles can be held across pops safely.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId {
    seq: u64,
    slot: u32,
}

/// Compact when at least this many tombstones accumulated …
const COMPACT_MIN_TOMBSTONES: usize = 64;
/// … and they make up more than half the stored keys.
const COMPACT_RATIO: usize = 2;

/// A stored queue key: the `(time, seq)` total order plus the slab slot of
/// the payload. Three words — heap sifts move these, never the payload
/// (which for a simulated network can be a whole segment).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// A payload slab slot. `seq` identifies the current occupant; a key or
/// [`TimerId`] whose sequence number disagrees is stale (the event fired or
/// was cancelled and the slot has been recycled).
#[derive(Debug)]
struct SlabSlot<E> {
    seq: u64,
    payload: Option<E>,
}

/// A priority queue of timestamped events with stable same-time ordering,
/// O(1) cancellation and O(log n) scheduling and popping.
///
/// # Structure
///
/// * **Payload slab** — events live in a free-listed `Vec`; the heap stores
///   only 24-byte [`Key`]s pointing at slots. Alloc/free is a `Vec`
///   push/pop; slots are recycled with a fresh sequence number, which is
///   what makes stale [`TimerId`]s detectable.
/// * **Key heap** — a `BinaryHeap` of every stored key, live or cancelled.
///   A cancelled key stays as a tombstone until it reaches the top (where
///   it is dropped) or compaction sweeps it.
///
/// The heap compares whole keys, so pop order is the `(time, seq)` total
/// order: ties on `time` resolve by sequence number, never by heap layout or
/// payload placement — the property the byte-identity guarantees of the
/// whole repo sit on, and the one the differential proptest pins.
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Vec<SlabSlot<E>>,
    free_slots: Vec<u32>,
    heap: BinaryHeap<Reverse<Key>>,
    live: usize,
    /// Stale keys (cancelled payloads) still in the heap.
    tombstones: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free_slots: Vec::new(),
            heap: BinaryHeap::new(),
            live: 0,
            tombstones: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error; the event is clamped to `now` in release builds.
    pub fn schedule(&mut self, at: SimTime, event: E) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(at, seq, event)
    }

    /// Schedule `event` at `at` under a caller-supplied ordering key.
    ///
    /// Same-time events pop in ascending `key` order instead of insertion
    /// order, which makes the pop order a pure function of the event set —
    /// the property sharded hosts need so that *where* an event was
    /// scheduled from (which shard, which barrier exchange) can never leak
    /// into execution order. The caller must guarantee `key` is unique
    /// among the events it ever schedules on this queue: a same-`(at, key)`
    /// pair would fall back to slab-slot order, which is insertion-
    /// dependent. Auto-keyed [`EventQueue::schedule`] draws from a private
    /// monotonic counter; a queue should use one discipline or the other,
    /// not both, unless the caller keys from a disjoint range.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) -> TimerId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let at = at.max(self.now);
        let seq = key;
        let slot = match self.free_slots.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.seq = seq;
                s.payload = Some(event);
                i
            }
            None => {
                debug_assert!(self.slots.len() < u32::MAX as usize, "slab full");
                self.slots.push(SlabSlot {
                    seq,
                    payload: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        self.heap.push(Reverse(Key { at, seq, slot }));
        TimerId { seq, slot }
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op. The payload is dropped and its
    /// slab slot recycled immediately; the stored key becomes a tombstone
    /// that is dropped lazily (or swept by compaction).
    pub fn cancel(&mut self, id: TimerId) {
        let Some(s) = self.slots.get_mut(id.slot as usize) else {
            return;
        };
        if s.seq == id.seq && s.payload.is_some() {
            s.payload = None;
            self.free_slots.push(id.slot);
            self.live -= 1;
            self.tombstones += 1;
            if self.tombstones >= COMPACT_MIN_TOMBSTONES
                && self.tombstones * COMPACT_RATIO > self.live + self.tombstones
            {
                self.compact();
            }
        }
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.front()?;
        Some(self.take_front(key))
    }

    /// [`pop`](Self::pop), plus the key it was scheduled under, if the next
    /// live event is strictly before `bound`, else `None` with the event
    /// left queued: a bounded drain loop's `peek_time` + `pop` in one call.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, u64, E)> {
        self.pop_below(bound, 0)
    }

    /// [`pop_before`](Self::pop_before) with the bound a whole `(time,
    /// key)`: the next live event pops if its `(time, key)` is strictly
    /// below `(at, key)`.
    pub(crate) fn pop_below(&mut self, at: SimTime, key: u64) -> Option<(SimTime, u64, E)> {
        let front = self.front()?;
        ((front.at, front.seq) < (at, key)).then(|| (front.at, front.seq, self.take_front(front).1))
    }

    /// Remove the live key `front` just found at the top of the heap.
    fn take_front(&mut self, key: Key) -> (SimTime, E) {
        let top = self.heap.pop();
        debug_assert_eq!(top, Some(Reverse(key)));
        let s = &mut self.slots[key.slot as usize];
        let payload = s.payload.take().expect("front key must be live");
        self.free_slots.push(key.slot);
        self.live -= 1;
        self.now = key.at;
        (key.at, payload)
    }

    /// Timestamp of the next live event without popping it. Drops any
    /// tombstones sitting above it (never the clock), hence `&mut`.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.front().map(|key| key.at)
    }

    /// Number of live events still queued.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn is_live(slots: &[SlabSlot<E>], key: Key) -> bool {
        let s = &slots[key.slot as usize];
        s.seq == key.seq && s.payload.is_some()
    }

    /// The earliest live key, left in place; tombstones above it are
    /// dropped on the way.
    fn front(&mut self) -> Option<Key> {
        while let Some(&Reverse(k)) = self.heap.peek() {
            if Self::is_live(&self.slots, k) {
                return Some(k);
            }
            self.heap.pop();
            self.tombstones -= 1;
        }
        None
    }

    /// Sweep every stored key, dropping tombstones: one O(n) pass.
    fn compact(&mut self) {
        let slots = &self.slots;
        self.heap.retain(|&Reverse(k)| Self::is_live(slots, k));
        self.tombstones = 0;
    }

    /// Total keys physically stored (live + tombstones), for tests that pin
    /// the compaction bound.
    #[cfg(test)]
    fn stored_keys(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue's behavioural contract.
    mod contract {
        use super::*;

        #[test]
        fn pops_in_time_order() {
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_secs(3), "c");
            q.schedule(SimTime::from_secs(1), "a");
            q.schedule(SimTime::from_secs(2), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
            assert_eq!(q.now(), SimTime::from_secs(3));
        }

        #[test]
        fn same_time_fifo() {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn keyed_same_instant_pops_in_key_order() {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1);
            // Insertion order deliberately scrambled: pop order must
            // follow the caller-supplied keys, not insertion.
            q.schedule_keyed(t, 7, "g");
            q.schedule_keyed(t, 2, "b");
            q.schedule_keyed(t, 5, "e");
            q.schedule_keyed(t, 1, "a");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "e", "g"]);
        }

        #[test]
        fn keyed_respects_time_before_key() {
            let mut q = EventQueue::new();
            q.schedule_keyed(SimTime::from_secs(2), 1, "late");
            q.schedule_keyed(SimTime::from_secs(1), 9, "early");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["early", "late"]);
        }

        #[test]
        fn keyed_events_cancel() {
            let mut q = EventQueue::new();
            q.schedule_keyed(SimTime::from_secs(1), 1, "a");
            let b = q.schedule_keyed(SimTime::from_secs(1), 2, "b");
            q.schedule_keyed(SimTime::from_secs(1), 3, "c");
            q.cancel(b);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "c"]);
        }

        #[test]
        fn cancellation() {
            let mut q = EventQueue::new();
            let a = q.schedule(SimTime::from_secs(1), "a");
            let b = q.schedule(SimTime::from_secs(2), "b");
            q.schedule(SimTime::from_secs(3), "c");
            q.cancel(b);
            q.cancel(b); // double-cancel is a no-op
            assert_eq!(q.len(), 2);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "c"]);
            q.cancel(a); // cancelling a fired event is a no-op
        }

        #[test]
        fn cancelling_a_fired_event_keeps_len_exact() {
            let mut q = EventQueue::new();
            let a = q.schedule(SimTime::from_secs(1), "a");
            q.schedule(SimTime::from_secs(2), "b");
            assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
            q.cancel(a); // no-op: already fired
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
            assert_eq!(q.len(), 0);
        }

        #[test]
        fn heavy_cancellation_compacts_storage() {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1);
            // Re-arm a timer thousands of times: schedule, cancel,
            // repeat — the pattern of a retransmit timer reset on
            // every ack.
            let mut id = q.schedule(t, 0u32);
            for i in 1..5_000u32 {
                q.cancel(id);
                id = q.schedule(t, i);
            }
            assert_eq!(q.len(), 1);
            // Compaction must have kept storage near the live size
            // rather than letting all 4 999 tombstones accumulate.
            assert!(
                q.stored_keys() < COMPACT_MIN_TOMBSTONES * 2 + 1,
                "{} stored keys for 1 live event",
                q.stored_keys()
            );
            assert_eq!(q.pop().map(|(_, e)| e), Some(4_999));
            assert!(q.pop().is_none());
        }

        #[test]
        fn compaction_preserves_order_and_clock() {
            let mut q = EventQueue::new();
            let mut keep = Vec::new();
            for i in 0..500u64 {
                let id = q.schedule(SimTime::from_millis(1000 - i), i);
                if i % 5 == 0 {
                    keep.push(i);
                } else {
                    q.cancel(id);
                }
            }
            assert_eq!(q.len(), keep.len());
            let mut popped = Vec::new();
            while let Some((_, e)) = q.pop() {
                popped.push(e);
            }
            // Live events come out in time order (descending i ⇒
            // ascending time), untouched by the compactions the
            // cancels triggered.
            keep.reverse();
            assert_eq!(popped, keep);
            assert_eq!(q.now(), SimTime::from_millis(1000));
        }

        #[test]
        fn peek_skips_cancelled() {
            let mut q = EventQueue::new();
            let a = q.schedule(SimTime::from_secs(1), "a");
            q.schedule(SimTime::from_secs(2), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        }

        #[test]
        fn far_future_and_near_interleave_in_order() {
            let mut q = EventQueue::new();
            // Far-future one-shots and sentinels pop in order with the
            // near events scheduled after them.
            q.schedule(SimTime::from_secs(3600), "hour");
            q.schedule(SimTime::from_nanos(u64::MAX - 1), "sentinel");
            q.schedule(SimTime::from_secs(20), "soon-ish");
            q.schedule(SimTime::from_nanos(5_000), "now");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["now", "soon-ish", "hour", "sentinel"]);
        }

        #[test]
        fn same_instant_from_different_distances_resolves_by_seq() {
            let mut q = EventQueue::new();
            // Pile many events onto one instant from different
            // distances (scheduled before and after intervening pops):
            // sequence order must win.
            let t = SimTime::from_millis(40);
            q.schedule(t, 0u32); // far ahead at schedule time
            q.schedule(SimTime::from_nanos(1_000), 100);
            q.schedule(t, 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some(100));
            q.schedule(t, 2); // nearer now; same instant
            q.schedule(t + crate::SimDuration::from_nanos(1), 3);
            q.schedule(t, 4);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![0, 1, 2, 4, 3]);
        }
    }

    /// Slot recycling must never resurrect a cancelled event or let a stale
    /// handle cancel the slot's new occupant.
    #[test]
    fn recycled_slab_slot_defeats_stale_handles() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.cancel(a);
        // The freed slot is recycled for `b` with a fresh sequence number.
        let _b = q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a); // stale: same slot, old seq — must be a no-op
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    /// Mixed magnitudes, from sub-microsecond to tens of seconds, against
    /// a straight sort — the in-module version of the differential
    /// proptest.
    #[test]
    fn mixed_magnitudes_match_sorted_reference() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut x: u64 = 0x1234_5678;
        let step = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        // Nanoseconds to tens of seconds, and a cluster just past 2^34 ns.
        for seq in 0..4_000u64 {
            let r = step(&mut x);
            let at = match r % 5 {
                0 => r % 1_000,
                1 => r % 1_000_000,
                2 => r % 1_000_000_000,
                3 => r % 40_000_000_000,
                _ => 17_179_869_184 + r % 1_000_000,
            };
            q.schedule(SimTime::from_nanos(at), seq);
            expect.push((at, seq));
        }
        expect.sort();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        assert_eq!(got, expect);
    }
}
