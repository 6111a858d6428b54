//! Three-way differential model test for the event queues.
//!
//! Every property drives the same operation sequence through three
//! implementations in lockstep and demands bit-identical observations:
//!
//! * [`EventQueue`] — the hierarchical timing wheel (the hot path),
//! * [`KeyHeapQueue`] — the original `(time, seq)` key-heap, kept here
//!   (and nowhere else) precisely so the wheel has a trusted,
//!   structurally different twin,
//! * a naive sorted-`Vec` reference — correct by inspection.
//!
//! Agreement across all three pins the queue contract — (time, sequence)
//! total order, exact `len`, idempotent cancellation, clock monotonicity —
//! independently of either real implementation's machinery (tombstones and
//! compaction in the heap; slots, occupancy bitmaps, the ready/far escape
//! heaps and the strict-descent drain rule in the wheel).
//!
//! The generators are shaped around the wheel's seams: same-instant
//! bursts, slot- and level-boundary-aligned deltas, far-future deltas
//! beyond the wheel span (the `far`-heap fallback), cancel/re-arm storms,
//! and pops interleaved with fresh schedules mid-rotation — the last being
//! exactly the class that once drove a slot to re-fill itself while it was
//! being drained.
//!
//! Case count: 64 by default, raised in CI via `PROPTEST_CASES` (the
//! differential gate runs with ≥1000).

use emptcp_sim::{EventQueue, SimDuration, SimTime, TimerId};
use proptest::prelude::*;
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
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
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
struct Trio {
    wheel: EventQueue<u32>,
    heap: KeyHeapQueue<u32>,
    reference: Reference,
    handles: Vec<(TimerId, u64, u64)>,
}

impl Trio {
    fn schedule(&mut self, delta_ns: u64, payload: u32) {
        let at = self.wheel.now() + SimDuration::from_nanos(delta_ns);
        let wid = self.wheel.schedule(at, payload);
        let hid = self.heap.schedule(at, payload);
        let seq = self.reference.schedule(at.as_nanos(), payload);
        self.handles.push((wid, hid, seq));
    }

    fn cancel_nth(&mut self, pick: usize) {
        if self.handles.is_empty() {
            return;
        }
        let (wid, hid, seq) = self.handles[pick % self.handles.len()];
        self.wheel.cancel(wid);
        self.heap.cancel(hid);
        self.reference.cancel(seq);
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let got_w = self.wheel.pop().map(|(t, p)| (t.as_nanos(), p));
        let got_h = self.heap.pop().map(|(t, p)| (t.as_nanos(), p));
        let want = self.reference.pop();
        prop_assert_eq!(got_w, want, "wheel pop diverged from reference");
        prop_assert_eq!(got_h, want, "key-heap pop diverged from reference");
        want
    }

    fn check_observers(&mut self) {
        prop_assert_eq!(self.wheel.len(), self.reference.live.len(), "wheel len");
        prop_assert_eq!(self.heap.len(), self.reference.live.len(), "heap len");
        prop_assert_eq!(self.wheel.is_empty(), self.reference.live.is_empty());
        prop_assert_eq!(self.heap.is_empty(), self.reference.live.is_empty());
        let want_peek = self.reference.peek_time();
        prop_assert_eq!(
            self.wheel.peek_time().map(|t| t.as_nanos()),
            want_peek,
            "wheel peek"
        );
        prop_assert_eq!(
            self.heap.peek_time().map(|t| t.as_nanos()),
            want_peek,
            "heap peek"
        );
        prop_assert_eq!(
            self.wheel.now().as_nanos(),
            self.reference.now,
            "wheel clock"
        );
        prop_assert_eq!(self.heap.now().as_nanos(), self.reference.now, "heap clock");
    }

    /// Drain everything left; all three must agree to the last event.
    fn drain(&mut self) {
        while self.pop().is_some() {}
        prop_assert!(self.reference.pop().is_none(), "reference had leftovers");
        prop_assert_eq!(self.wheel.len(), 0);
        prop_assert_eq!(self.heap.len(), 0);
    }
}

/// One splitmix64 step, for deriving op sequences from a proptest seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The wheel's geometry, mirrored from `event.rs`: 1024 ns ticks, 64-slot
/// levels, four levels. Deltas built from these hit slot seams exactly.
const TICK_NS: u64 = 1 << 10;
const SLOTS: u64 = 64;
/// One full wheel span in nanoseconds; anything scheduled further out
/// falls through to the far heap.
const WHEEL_SPAN_NS: u64 = TICK_NS * SLOTS * SLOTS * SLOTS * SLOTS;

/// Default 64 cases; CI raises this via `PROPTEST_CASES` (the
/// hot-path differential gate uses ≥1000).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arbitrary interleavings of schedule / cancel / pop with mixed
    /// magnitudes, the broad-spectrum property.
    #[test]
    fn three_way_agreement_under_arbitrary_interleavings(
        seed in 0u64..u64::MAX,
        ops in 100usize..600,
        cancel_weight in 1u64..6,
        horizon_ns in 1_000u64..1_000_000,
    ) {
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
                // Pop one event.
                3 => {
                    trio.pop();
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

    /// Same-instant seams: bursts of events at identical timestamps —
    /// including timestamps aligned exactly on tick, slot, and level
    /// boundaries — must come out in schedule (FIFO) order from all three
    /// queues. This is where (time, seq) total order does all the work.
    #[test]
    fn same_instant_bursts_preserve_fifo_order(
        seed in 0u64..u64::MAX,
        bursts in 2usize..30,
        burst_len in 2usize..12,
    ) {
        let mut state = seed;
        let mut trio = Trio::default();

        for _ in 0..bursts {
            // A burst target: either an arbitrary instant or one aligned
            // on a wheel seam (tick edge, slot edge of each level).
            let delta = match mix(&mut state) % 5 {
                0 => mix(&mut state) % 1_000_000,
                1 => (mix(&mut state) % 1_000) * TICK_NS,
                2 => (mix(&mut state) % SLOTS + 1) * TICK_NS * SLOTS,
                3 => (mix(&mut state) % SLOTS + 1) * TICK_NS * SLOTS * SLOTS,
                _ => 0, // a burst exactly at `now`
            };
            for _ in 0..burst_len {
                let payload = mix(&mut state) as u32;
                trio.schedule(delta, payload);
            }
            // Interleave pops between bursts so same-instant groups are
            // sometimes split across a cursor advance.
            if mix(&mut state).is_multiple_of(2) {
                trio.pop();
                trio.check_observers();
            }
        }
        trio.drain();
    }

    /// Far-future rollover: deltas straddling the wheel span exercise the
    /// far-heap fallback and its migration back into the wheel as the
    /// cursor advances past whole rotations; near events keep the wheel
    /// busy in the foreground.
    #[test]
    fn far_future_events_survive_wheel_rollover(
        seed in 0u64..u64::MAX,
        ops in 30usize..150,
    ) {
        let mut state = seed;
        let mut trio = Trio::default();

        for _ in 0..ops {
            match mix(&mut state) % 5 {
                // Near-term foreground traffic.
                0 | 1 => {
                    let delta = mix(&mut state) % (TICK_NS * SLOTS);
                    let payload = mix(&mut state) as u32;
                    trio.schedule(delta, payload);
                }
                // Just inside / exactly at / beyond the wheel span.
                2 => {
                    let offset = mix(&mut state) % (2 * TICK_NS);
                    let delta = (WHEEL_SPAN_NS - TICK_NS) + offset;
                    let payload = mix(&mut state) as u32;
                    trio.schedule(delta, payload);
                }
                // Deep future: several spans out.
                3 => {
                    let spans = 1 + mix(&mut state) % 3;
                    let delta = WHEEL_SPAN_NS * spans + mix(&mut state) % WHEEL_SPAN_NS;
                    let payload = mix(&mut state) as u32;
                    trio.schedule(delta, payload);
                }
                // Pop — dragging the cursor toward (and eventually past)
                // the far events, forcing their migration into the wheel.
                _ => {
                    trio.pop();
                }
            }
            trio.check_observers();
        }
        trio.drain();
    }

    /// Cancel/re-arm storms: the timer-handle pattern every host uses —
    /// cancel the previous handle and schedule a replacement, nearer or
    /// farther, over and over, with pops interleaved. Cancellation of
    /// already-fired and already-cancelled handles must stay a no-op.
    #[test]
    fn rearm_storms_agree(
        seed in 0u64..u64::MAX,
        rounds in 20usize..200,
    ) {
        let mut state = seed;
        let mut trio = Trio::default();
        // The "host timer": the latest live handle index, re-armed
        // aggressively.
        let mut armed: Option<usize> = None;

        for _ in 0..rounds {
            match mix(&mut state) % 4 {
                // Re-arm: cancel the current handle (maybe stale), then
                // schedule the replacement at a fresh deadline.
                0 | 1 => {
                    if let Some(idx) = armed {
                        trio.cancel_nth(idx);
                    }
                    let delta = mix(&mut state) % (TICK_NS * SLOTS * 4);
                    let payload = mix(&mut state) as u32;
                    trio.schedule(delta, payload);
                    armed = Some(trio.handles.len() - 1);
                }
                // Background event the storm has to coexist with.
                2 => {
                    let delta = mix(&mut state) % 1_000_000;
                    let payload = mix(&mut state) as u32;
                    trio.schedule(delta, payload);
                }
                _ => {
                    trio.pop();
                }
            }
            trio.check_observers();
        }
        trio.drain();
    }

    /// Pops interleaved with fresh schedules mid-rotation: every pop is
    /// followed by schedules whose deltas are biased to land in the slot
    /// band the cursor is currently draining (small multiples of the slot
    /// spans, offset by a few ticks). This is the exact class that once
    /// made an upper-level slot re-fill itself while being drained; the
    /// strict-descent drain rule is pinned here.
    #[test]
    fn mid_rotation_schedules_terminate_and_agree(
        seed in 0u64..u64::MAX,
        rounds in 30usize..200,
    ) {
        let mut state = seed;
        let mut trio = Trio::default();

        // Prime the wheel across all levels.
        for lvl_span in [TICK_NS, TICK_NS * SLOTS, TICK_NS * SLOTS * SLOTS] {
            for k in 1..4u64 {
                let payload = mix(&mut state) as u32;
                trio.schedule(lvl_span * k, payload);
            }
        }

        for _ in 0..rounds {
            trio.pop();
            // Schedule into the alias band of the just-advanced cursor:
            // deltas a hair under whole slot spans land in slots whose
            // residue matches the cursor's own position.
            let n = 1 + mix(&mut state) % 3;
            for _ in 0..n {
                let span = match mix(&mut state) % 3 {
                    0 => TICK_NS * SLOTS,
                    1 => TICK_NS * SLOTS * SLOTS,
                    _ => TICK_NS * SLOTS * SLOTS * SLOTS,
                };
                let jitter = mix(&mut state) % (4 * TICK_NS);
                let delta = span - 2 * TICK_NS + jitter;
                let payload = mix(&mut state) as u32;
                trio.schedule(delta, payload);
            }
            trio.check_observers();
        }
        trio.drain();
    }

    /// Clock sanity on the wheel alone: pop times are monotone and the
    /// queue clock tracks them.
    #[test]
    fn clock_is_monotone_and_matches_pop_times(
        seed in 0u64..u64::MAX,
        n in 1usize..200,
    ) {
        let mut state = seed;
        let mut queue: EventQueue<usize> = EventQueue::new();
        for i in 0..n {
            let at = SimTime::from_nanos(mix(&mut state) % 1_000_000);
            queue.schedule(at, i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = queue.pop() {
            prop_assert!(t >= last, "time went backwards: {t:?} after {last:?}");
            prop_assert_eq!(queue.now(), t);
            last = t;
        }
    }
}
