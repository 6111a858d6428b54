//! The three event-queue implementations and the lockstep harness that
//! drives them as one: the wheel ([`EventQueue`]), the retired key-heap
//! ([`KeyHeapQueue`], kept here and nowhere else) and a sorted-`Vec`
//! reference. Shared with the root package's `workspace_smoke` through
//! `#[path]`.

use emptcp_sim::{EventQueue, SimDuration, SimTime, TimerId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for event sequence numbers: a single Fibonacci multiply plus a
/// xor-fold. Sequence numbers are dense, monotonically assigned integers,
/// so a strong (SipHash) hasher buys nothing — this keeps the per-event
/// map lookup in [`KeyHeapQueue`] to a couple of cycles.
#[derive(Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only reached for non-u64 keys; FNV-1a keeps it correct.
        self.0 = emptcp_sim::fnv1a(self.0, bytes);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

/// Compact when at least this many tombstones accumulated …
const COMPACT_MIN_TOMBSTONES: usize = 64;
/// … and they make up more than half the stored keys.
const COMPACT_RATIO: usize = 2;

/// The original event queue: a `BinaryHeap` of 16-byte `(time, seq)` keys
/// over a sequence-indexed payload map, with tombstoned cancellation and
/// O(n) compaction.
///
/// Retired from the hot path in favour of the timing-wheel [`EventQueue`]
/// and moved out of the library, but kept fully functional as the
/// structurally independent reference this harness (and the CI
/// `hotpath-differential` step) drives in lockstep with the wheel: two
/// implementations that share nothing but the API contract and must agree
/// on every pop. A cancellation handle is the event's sequence number.
#[derive(Debug)]
struct KeyHeapQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    events: HashMap<u64, E, BuildHasherDefault<SeqHasher>>,
    tombstones: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for KeyHeapQueue<E> {
    fn default() -> Self {
        KeyHeapQueue {
            heap: BinaryHeap::new(),
            events: HashMap::default(),
            tombstones: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> KeyHeapQueue<E> {
    /// The current simulated time: the timestamp of the last popped event.
    fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error; the event is clamped to `now` in release builds.
    fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.events.insert(seq, event);
        seq
    }

    /// Cancel a previously scheduled event (no-op when already fired or
    /// cancelled). The payload is dropped immediately; its heap key becomes
    /// a tombstone dropped lazily at pop/peek or swept by compaction.
    fn cancel(&mut self, seq: u64) {
        if self.events.remove(&seq).is_some() {
            self.tombstones += 1;
            if self.tombstones >= COMPACT_MIN_TOMBSTONES
                && self.tombstones * COMPACT_RATIO > self.heap.len()
            {
                self.compact();
            }
        }
    }

    /// Rebuild the heap without tombstoned keys: one O(n) pass.
    fn compact(&mut self) {
        let heap = std::mem::take(&mut self.heap);
        self.heap = heap
            .into_iter()
            .filter(|&Reverse((_, seq))| self.events.contains_key(&seq))
            .collect();
        self.tombstones = 0;
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            if let Some(event) = self.events.remove(&seq) {
                self.now = at;
                return Some((at, event));
            }
            self.tombstones -= 1;
        }
        None
    }

    /// Timestamp of the next live event without popping it.
    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            if self.events.contains_key(&seq) {
                return Some(at);
            }
            self.heap.pop();
            self.tombstones -= 1;
        }
        None
    }

    /// Number of live events still queued.
    fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no live events remain.
    fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The reference: a flat vector of live `(time_nanos, seq, payload)`
/// entries. Correct by inspection, O(n) everything.
#[derive(Default)]
struct Reference {
    live: Vec<(u64, u64, u32)>,
    next_seq: u64,
    now: u64,
}

impl Reference {
    fn schedule(&mut self, at: u64, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.push((at.max(self.now), seq, payload));
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.live.retain(|&(_, s, _)| s != seq);
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let best = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?
            .0;
        let (at, _, payload) = self.live.swap_remove(best);
        self.now = at;
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.live
            .iter()
            .map(|&(at, seq, _)| (at, seq))
            .min()
            .map(|(at, _)| at)
    }
}

/// All three queues plus the reference, driven as one unit. Handles of
/// not-yet-popped schedules are kept in lockstep; stale entries (fired or
/// cancelled) stay eligible so cancel exercises its no-op paths too.
#[derive(Default)]
pub struct Trio {
    wheel: EventQueue<u32>,
    heap: KeyHeapQueue<u32>,
    reference: Reference,
    pub handles: Vec<(TimerId, u64, u64)>,
}

impl Trio {
    pub fn schedule(&mut self, delta_ns: u64, payload: u32) {
        let at = self.wheel.now() + SimDuration::from_nanos(delta_ns);
        let wid = self.wheel.schedule(at, payload);
        let hid = self.heap.schedule(at, payload);
        let seq = self.reference.schedule(at.as_nanos(), payload);
        self.handles.push((wid, hid, seq));
    }

    pub fn cancel_nth(&mut self, pick: usize) {
        if self.handles.is_empty() {
            return;
        }
        let (wid, hid, seq) = self.handles[pick % self.handles.len()];
        self.wheel.cancel(wid);
        self.heap.cancel(hid);
        self.reference.cancel(seq);
    }

    pub fn pop(&mut self) -> Option<(u64, u32)> {
        let got_w = self.wheel.pop().map(|(t, p)| (t.as_nanos(), p));
        let got_h = self.heap.pop().map(|(t, p)| (t.as_nanos(), p));
        let want = self.reference.pop();
        assert_eq!(got_w, want, "wheel pop diverged from reference");
        assert_eq!(got_h, want, "key-heap pop diverged from reference");
        want
    }

    /// Pop the next event only if it is due strictly before `now +
    /// delta_ns`. The wheel answers with `pop_before`; its twins spell it
    /// out as `peek_time() < bound`, then `pop()`.
    pub fn pop_before(&mut self, delta_ns: u64) -> Option<(u64, u32)> {
        let bound = self.wheel.now() + SimDuration::from_nanos(delta_ns);
        let got_w = self.wheel.pop_before(bound).map(|(t, p)| (t.as_nanos(), p));
        let due = |peek: Option<u64>| peek.is_some_and(|t| t < bound.as_nanos());
        let got_h = due(self.heap.peek_time().map(|t| t.as_nanos()))
            .then(|| self.heap.pop().map(|(t, p)| (t.as_nanos(), p)))
            .flatten();
        let want = due(self.reference.peek_time())
            .then(|| self.reference.pop())
            .flatten();
        assert_eq!(got_w, want, "wheel pop_before diverged from reference");
        assert_eq!(
            got_h, want,
            "key-heap peek-then-pop diverged from reference"
        );
        want
    }

    pub fn check_observers(&mut self) {
        assert_eq!(self.wheel.len(), self.reference.live.len(), "wheel len");
        assert_eq!(self.heap.len(), self.reference.live.len(), "heap len");
        assert_eq!(self.wheel.is_empty(), self.reference.live.is_empty());
        assert_eq!(self.heap.is_empty(), self.reference.live.is_empty());
        let want_peek = self.reference.peek_time();
        assert_eq!(
            self.wheel.peek_time().map(|t| t.as_nanos()),
            want_peek,
            "wheel peek"
        );
        assert_eq!(
            self.heap.peek_time().map(|t| t.as_nanos()),
            want_peek,
            "heap peek"
        );
        assert_eq!(
            self.wheel.now().as_nanos(),
            self.reference.now,
            "wheel clock"
        );
        assert_eq!(self.heap.now().as_nanos(), self.reference.now, "heap clock");
    }

    /// Drain everything left; all three must agree to the last event.
    pub fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.reference.pop().is_none(), "reference had leftovers");
        assert_eq!(self.wheel.len(), 0);
        assert_eq!(self.heap.len(), 0);
    }
}

/// One splitmix64 step, for deriving op sequences from a proptest seed.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The wheel's geometry, mirrored from `event.rs`: 1024 ns ticks, 64-slot
/// levels, four levels. Deltas built from these hit slot seams exactly.
pub const TICK_NS: u64 = 1 << 10;
pub const SLOTS: u64 = 64;
/// One full wheel span in nanoseconds; anything scheduled further out
/// falls through to the far heap.
pub const WHEEL_SPAN_NS: u64 = TICK_NS * SLOTS * SLOTS * SLOTS * SLOTS;

/// Arbitrary interleavings of schedule / cancel / pop with mixed
/// magnitudes, derived from `seed`; every step is checked three ways.
pub fn check_interleavings(seed: u64, ops: usize, cancel_weight: u64, horizon_ns: u64) {
    let mut state = seed;
    let mut trio = Trio::default();

    for _ in 0..ops {
        match mix(&mut state) % (4 + cancel_weight) {
            // Schedule at now + delta (delta may be 0: same-time
            // events must preserve FIFO order).
            0..=2 => {
                let delta = mix(&mut state) % horizon_ns;
                let payload = mix(&mut state) as u32;
                trio.schedule(delta, payload);
            }
            // Pop one event, or only one due within a bound (0: never).
            3 => {
                if mix(&mut state).is_multiple_of(2) {
                    trio.pop();
                } else {
                    trio.pop_before(mix(&mut state) % horizon_ns);
                }
            }
            // Cancel a random handle — possibly already fired or
            // already cancelled (both must be exact no-ops).
            _ => {
                let pick = mix(&mut state) as usize;
                trio.cancel_nth(pick);
            }
        }
        // Invariants checked after every step.
        trio.check_observers();
    }
    trio.drain();
}
