//! The deterministic event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence-number)`: events scheduled for the
//! same instant fire in the order they were scheduled, which makes runs
//! reproducible regardless of queue internals or platform.
//!
//! [`EventQueue`] is a hierarchical timing wheel for the re-armed timer
//! class (RTO, pacing, cross-traffic, fleet ticks) with a key-heap fallback
//! for far-future one-shots, over a slab of payloads. Its structurally
//! independent twin — the original `(time, seq)` key-heap — lives in
//! `tests/event_queue_model.rs`, where the three-way differential proptest
//! drives both against a sorted-Vec oracle, so any divergence in pop order
//! is caught structurally, not statistically.
//!
//! Protocol crates in this workspace are written as poll-style state machines
//! (in the spirit of smoltcp): they never touch the queue directly, they
//! return deadlines and emissions, and a host drives them from the queue via
//! a single-threaded loop.

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

/// One wheel tick is `2^TICK_SHIFT` nanoseconds (1.024 µs) — comfortably
/// below every timer the stacks arm (delayed acks are milliseconds, RTOs
/// hundreds of milliseconds), so timer-class events almost never collide
/// into the exact-order heap unnecessarily.
const TICK_SHIFT: u32 = 10;
/// Each level fans out over `2^LEVEL_BITS = 64` slots.
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
/// Four levels cover `64^4` ticks ≈ 17.2 s of lookahead; anything further
/// out (idle-timeout sentinels, `SimTime::MAX` markers) takes the far-heap
/// fallback and is popped from there directly.
const LEVELS: usize = 4;
/// Ticks covered by the whole wheel.
const WHEEL_SPAN: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// A stored queue key: the `(time, seq)` total order plus the slab slot of
/// the payload. Three words — sift and cascade operations move these, never
/// the payload (which for a simulated network can be a whole segment).
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
/// O(1) cancellation, and amortized O(1) scheduling for the near future.
///
/// # Structure
///
/// * **Payload slab** — events live in a free-listed `Vec`; the wheel and
///   heaps store only 24-byte [`Key`]s pointing at slots. Alloc/free is a
///   `Vec` push/pop; slots are recycled with a fresh sequence number, which
///   is what makes stale [`TimerId`]s detectable.
/// * **Hierarchical timing wheel** — [`LEVELS`] levels of [`SLOTS`] slots,
///   one tick = `2^TICK_SHIFT` ns. An event `delta` ticks ahead lands in
///   the level whose granularity spans it; as the cursor passes a slot the
///   slot is drained: level-0 slots feed the *ready heap*, higher slots
///   cascade their keys strictly downward.
/// * **Ready heap** — a `BinaryHeap` of keys already behind the wheel
///   cursor. Only its top is ever compared against the wheel boundary, and
///   it stays small (the events of the current tick neighbourhood).
/// * **Far heap** — the fallback for events beyond the wheel span. They are
///   popped directly from here when their time comes; no migration needed.
///
/// # Why the `(time, seq)` order is exact
///
/// A candidate (the smaller of the ready/far tops) fires only when its
/// timestamp is strictly below the *wheel boundary* — the start time of the
/// earliest occupied wheel slot, which is a proven lower bound on every
/// event still stored in the wheel. If the candidate is not strictly below
/// the boundary, the boundary slot is drained first, which moves any
/// potential earlier-or-tied event into the ready heap, where the full
/// `(time, seq)` comparison decides. Ties on `time` therefore always
/// resolve by sequence number, never by which structure held the event —
/// the property the byte-identity guarantees of the whole repo sit on, and
/// the one the three-way differential proptest pins.
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Vec<SlabSlot<E>>,
    free_slots: Vec<u32>,
    /// Flat `[level][slot]` buckets: `wheel[level * SLOTS + slot]`.
    wheel: Vec<Vec<Key>>,
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    ready: BinaryHeap<Reverse<Key>>,
    far: BinaryHeap<Reverse<Key>>,
    /// The wheel cursor: every key still stored in the wheel has
    /// `tick >= the start of its slot >= the earliest boundary`, and slots
    /// the cursor has passed are empty.
    cur_tick: u64,
    live: usize,
    /// Stale keys (cancelled payloads) still stored somewhere.
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
            wheel: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            ready: BinaryHeap::new(),
            far: BinaryHeap::new(),
            cur_tick: 0,
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
        debug_assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
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
        self.place(Key { at, seq, slot });
        TimerId { seq, slot }
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
        self.place(Key { at, seq, slot });
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
        let (from_far, key) = self.settle()?;
        Some(self.take_settled(from_far, key))
    }

    /// [`pop`](Self::pop) if the next live event is strictly before
    /// `bound`, else `None` with the event left queued: a bounded drain
    /// loop's `peek_time` + `pop` for one settle instead of two.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        let (from_far, key) = self.settle()?;
        (key.at < bound).then(|| self.take_settled(from_far, key))
    }

    /// Remove the event `settle` just found at the top of its heap.
    fn take_settled(&mut self, from_far: bool, key: Key) -> (SimTime, E) {
        let top = if from_far {
            self.far.pop()
        } else {
            self.ready.pop()
        };
        debug_assert_eq!(top, Some(Reverse(key)));
        let s = &mut self.slots[key.slot as usize];
        let payload = s.payload.take().expect("settled key must be live");
        self.free_slots.push(key.slot);
        self.live -= 1;
        self.now = key.at;
        (key.at, payload)
    }

    /// Timestamp of the next live event without popping it. May advance the
    /// wheel cursor internally (never the clock), hence `&mut`.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|(_, key)| key.at)
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
    fn is_live(&self, key: Key) -> bool {
        let s = &self.slots[key.slot as usize];
        s.seq == key.seq && s.payload.is_some()
    }

    /// The wheel level whose slot granularity spans an event `delta` ticks
    /// ahead of the cursor. Caller has already excluded `delta >= WHEEL_SPAN`.
    #[inline]
    fn level_for(delta: u64) -> usize {
        match delta {
            d if d < 1 << LEVEL_BITS => 0,
            d if d < 1 << (2 * LEVEL_BITS) => 1,
            d if d < 1 << (3 * LEVEL_BITS) => 2,
            _ => 3,
        }
    }

    /// File a key into the structure that owns its time range: the ready
    /// heap for anything at or behind the cursor, the wheel level whose
    /// granularity spans the distance, or the far heap beyond the span.
    /// Always safe: moving a key to the ready heap early never breaks the
    /// order (the heap compares full keys), it only costs heap space.
    fn place(&mut self, key: Key) {
        let tick = key.at.as_nanos() >> TICK_SHIFT;
        if tick < self.cur_tick {
            self.ready.push(Reverse(key));
            return;
        }
        let delta = tick - self.cur_tick;
        if delta >= WHEEL_SPAN {
            self.far.push(Reverse(key));
            return;
        }
        let lvl = Self::level_for(delta);
        let idx = ((tick >> (LEVEL_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.wheel[lvl * SLOTS + idx].push(key);
        self.occupancy[lvl] |= 1 << idx;
    }

    /// The earliest occupied wheel slot as `(start_tick, level, index)`.
    /// `start_tick << TICK_SHIFT` is a lower bound on the timestamp of
    /// every key still stored in the wheel: keys never sit in a slot the
    /// cursor has passed, so the first occupied slot at-or-after the cursor
    /// position of each level bounds that level from below.
    fn next_boundary(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for lvl in 0..LEVELS {
            let occ = self.occupancy[lvl];
            if occ == 0 {
                continue;
            }
            let shift = LEVEL_BITS * lvl as u32;
            let cur_s = self.cur_tick >> shift;
            let cur_i = (cur_s & (SLOTS as u64 - 1)) as u32;
            // After the rotate, bit j = slot (cur_i + j) % SLOTS: the
            // distance from the cursor to the first occupied slot, O(1).
            let j = occ.rotate_right(cur_i).trailing_zeros() as u64;
            let s = cur_s + j;
            let b = s << shift;
            if best.is_none_or(|(bb, _, _)| b < bb) {
                let idx = ((cur_i as u64 + j) & (SLOTS as u64 - 1)) as usize;
                best = Some((b, lvl, idx));
            }
        }
        best
    }

    /// Drain the wheel slot at `(start_tick b, level, index)` — the current
    /// earliest boundary. Level-0 slots feed the ready heap. Higher slots
    /// cascade: a key re-enters the wheel only if it lands on a *strictly
    /// lower* level; otherwise it goes to the ready heap (always
    /// order-safe). The strict-descent rule is what makes
    /// [`EventQueue::settle`] terminate: a slot whose residue matches the
    /// cursor's own position can hold keys from the *next* rotation of its
    /// level (the cursor sits mid-slot, so `delta` stays just inside the
    /// level's span), and re-filing those at the same level would re-fill
    /// the very slot being drained, cycling forever. Sending them to the
    /// ready heap early costs a little heap space for a thin band of
    /// near-rotation events and nothing in correctness.
    fn drain_slot(&mut self, b: u64, lvl: usize, idx: usize) {
        let cell = lvl * SLOTS + idx;
        let mut keys = std::mem::take(&mut self.wheel[cell]);
        self.occupancy[lvl] &= !(1u64 << idx);
        if lvl == 0 {
            // The slot spans exactly one tick; every other stored key is
            // provably at a later tick, so the cursor may pass it.
            self.cur_tick = self.cur_tick.max(b + 1);
            for k in keys.drain(..) {
                if self.is_live(k) {
                    self.ready.push(Reverse(k));
                } else {
                    self.tombstones -= 1;
                }
            }
        } else {
            self.cur_tick = self.cur_tick.max(b);
            for k in keys.drain(..) {
                if !self.is_live(k) {
                    self.tombstones -= 1;
                    continue;
                }
                let tick = k.at.as_nanos() >> TICK_SHIFT;
                // Drained keys sit within 64^lvl ticks of the (possibly
                // just-advanced) cursor, so `level_for` never exceeds
                // `lvl`; equality marks the next-rotation alias band.
                if tick >= self.cur_tick && Self::level_for(tick - self.cur_tick) < lvl {
                    self.place(k);
                } else {
                    self.ready.push(Reverse(k));
                }
            }
        }
        // Hand the bucket's allocation back so steady-state cascading
        // never reallocates.
        if self.wheel[cell].capacity() == 0 {
            self.wheel[cell] = keys;
        }
    }

    /// Advance the wheel until the front candidate (smaller of the
    /// ready/far tops) provably precedes everything still in the wheel,
    /// then return it (without removing it). Prunes stale heap tops on the
    /// way. Returns `(came_from_far_heap, key)`.
    fn settle(&mut self) -> Option<(bool, Key)> {
        loop {
            while let Some(&Reverse(k)) = self.ready.peek() {
                if self.is_live(k) {
                    break;
                }
                self.ready.pop();
                self.tombstones -= 1;
            }
            while let Some(&Reverse(k)) = self.far.peek() {
                if self.is_live(k) {
                    break;
                }
                self.far.pop();
                self.tombstones -= 1;
            }
            let cand = match (self.ready.peek(), self.far.peek()) {
                (Some(&Reverse(r)), Some(&Reverse(f))) => {
                    Some(if r <= f { (false, r) } else { (true, f) })
                }
                (Some(&Reverse(r)), None) => Some((false, r)),
                (None, Some(&Reverse(f))) => Some((true, f)),
                (None, None) => None,
            };
            match (cand, self.next_boundary()) {
                // Strictly before the boundary: nothing in the wheel can
                // precede or tie it, fire. (A tie on the boundary time must
                // drain the slot first — the wheel key could hold a smaller
                // sequence number.)
                (Some(c), Some((b, _, _))) if c.1.at.as_nanos() < (b << TICK_SHIFT) => {
                    return Some(c)
                }
                (Some(c), None) => return Some(c),
                (None, None) => return None,
                (_, Some((b, lvl, idx))) => self.drain_slot(b, lvl, idx),
            }
        }
    }

    /// Sweep every stored key, dropping tombstones: one O(n) pass. Live
    /// keys re-place against the current cursor (far keys that have come
    /// near re-enter the wheel as a bonus).
    fn compact(&mut self) {
        let mut stored: Vec<Key> = Vec::with_capacity(self.live);
        stored.extend(self.ready.drain().map(|Reverse(k)| k));
        stored.extend(self.far.drain().map(|Reverse(k)| k));
        for cell in 0..LEVELS * SLOTS {
            stored.append(&mut self.wheel[cell]);
        }
        self.occupancy = [0; LEVELS];
        for k in stored {
            if self.is_live(k) {
                self.place(k);
            }
        }
        self.tombstones = 0;
    }

    /// Total keys physically stored (live + tombstones), for tests that pin
    /// the compaction bound.
    #[cfg(test)]
    fn stored_keys(&self) -> usize {
        self.ready.len() + self.far.len() + self.wheel.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue's behavioural contract.
    mod wheel {
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
            // Beyond the wheel span (> 17.2 s): far-heap fallback.
            q.schedule(SimTime::from_secs(3600), "hour");
            q.schedule(SimTime::from_nanos(u64::MAX - 1), "sentinel");
            q.schedule(SimTime::from_secs(20), "soon-ish");
            q.schedule(SimTime::from_nanos(5_000), "now");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["now", "soon-ish", "hour", "sentinel"]);
        }

        #[test]
        fn same_instant_across_structures_resolves_by_seq() {
            let mut q = EventQueue::new();
            // Seed the clock so later schedules straddle the wheel
            // levels, then pile many events onto one instant from
            // different distances (scheduled before and after
            // intervening pops): sequence order must win.
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

    /// Drive the wheel cursor across every level boundary and verify the
    /// merge against a straight sort — the in-module version of the
    /// three-way differential proptest.
    #[test]
    fn wheel_rollover_matches_sorted_reference() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut x: u64 = 0x1234_5678;
        let step = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        // Spread events from sub-tick to beyond the wheel span.
        for seq in 0..4_000u64 {
            let r = step(&mut x);
            let at = match r % 5 {
                0 => r % 1_000,                      // sub-tick
                1 => r % 1_000_000,                  // level 0-1
                2 => r % 1_000_000_000,              // level 2-3
                3 => r % 40_000_000_000,             // rolls past the span
                _ => 17_179_869_184 + r % 1_000_000, // right at the seam
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
