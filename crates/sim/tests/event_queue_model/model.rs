//! The event queue, a sorted-`Vec` reference and the lockstep harness that
//! drives them as one. Shared with the root package's `workspace_smoke`
//! through `#[path]`.

use emptcp_sim::{EventQueue, SimDuration, TimerId};

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

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let best = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?
            .0;
        let (at, seq, payload) = self.live.swap_remove(best);
        self.now = at;
        Some((at, seq, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.live
            .iter()
            .map(|&(at, seq, _)| (at, seq))
            .min()
            .map(|(at, _)| at)
    }
}

/// The queue and the reference, driven as one unit. Handles of
/// not-yet-popped schedules are kept in lockstep; stale entries (fired or
/// cancelled) stay eligible so cancel exercises its no-op paths too.
#[derive(Default)]
pub struct Pair {
    queue: EventQueue<u32>,
    reference: Reference,
    pub handles: Vec<(TimerId, u64)>,
}

impl Pair {
    pub fn schedule(&mut self, delta_ns: u64, payload: u32) {
        let at = self.queue.now() + SimDuration::from_nanos(delta_ns);
        let qid = self.queue.schedule(at, payload);
        let seq = self.reference.schedule(at.as_nanos(), payload);
        self.handles.push((qid, seq));
    }

    pub fn cancel_nth(&mut self, pick: usize) {
        if self.handles.is_empty() {
            return;
        }
        let (qid, seq) = self.handles[pick % self.handles.len()];
        self.queue.cancel(qid);
        self.reference.cancel(seq);
    }

    pub fn pop(&mut self) -> Option<(u64, u32)> {
        let got = self.queue.pop().map(|(t, p)| (t.as_nanos(), p));
        let want = self.reference.pop().map(|(at, _, payload)| (at, payload));
        assert_eq!(got, want, "queue pop diverged from reference");
        want
    }

    /// Pop the next event only if it is due strictly before `now +
    /// delta_ns`. The queue answers with `pop_before`; the reference
    /// spells it out as `peek_time() < bound`, then `pop()`. Both report
    /// the key the event was scheduled under.
    pub fn pop_before(&mut self, delta_ns: u64) -> Option<(u64, u64, u32)> {
        let bound = self.queue.now() + SimDuration::from_nanos(delta_ns);
        let got = self
            .queue
            .pop_before(bound)
            .map(|(t, key, p)| (t.as_nanos(), key, p));
        let due = self
            .reference
            .peek_time()
            .is_some_and(|t| t < bound.as_nanos());
        let want = due.then(|| self.reference.pop()).flatten();
        assert_eq!(got, want, "queue pop_before diverged from reference");
        want
    }

    pub fn check_observers(&mut self) {
        assert_eq!(self.queue.len(), self.reference.live.len(), "queue len");
        assert_eq!(self.queue.is_empty(), self.reference.live.is_empty());
        assert_eq!(
            self.queue.peek_time().map(|t| t.as_nanos()),
            self.reference.peek_time(),
            "queue peek"
        );
        assert_eq!(
            self.queue.now().as_nanos(),
            self.reference.now,
            "queue clock"
        );
    }

    /// Drain everything left; both must agree to the last event.
    pub fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.reference.pop().is_none(), "reference had leftovers");
        assert_eq!(self.queue.len(), 0);
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

/// Input shapes kept from the four-level timing wheel the queue once was:
/// 1024 ns ticks, 64-slot levels, four levels. Deltas built from these land
/// on tick, slot and level seams, and on powers of two generally.
pub const TICK_NS: u64 = 1 << 10;
pub const SLOTS: u64 = 64;
/// That wheel's span in nanoseconds (2^34 ns, about 17.2 s), the
/// generators' unit for far-future deltas.
pub const WHEEL_SPAN_NS: u64 = TICK_NS * SLOTS * SLOTS * SLOTS * SLOTS;

/// Arbitrary interleavings of schedule / cancel / pop with mixed
/// magnitudes, derived from `seed`; every step is checked against the
/// reference.
pub fn check_interleavings(seed: u64, ops: usize, cancel_weight: u64, horizon_ns: u64) {
    let mut state = seed;
    let mut pair = Pair::default();

    for _ in 0..ops {
        match mix(&mut state) % (4 + cancel_weight) {
            // Schedule at now + delta (delta may be 0: same-time
            // events must preserve FIFO order).
            0..=2 => {
                let delta = mix(&mut state) % horizon_ns;
                let payload = mix(&mut state) as u32;
                pair.schedule(delta, payload);
            }
            // Pop one event, or only one due within a bound (0: never).
            3 => {
                if mix(&mut state).is_multiple_of(2) {
                    pair.pop();
                } else {
                    pair.pop_before(mix(&mut state) % horizon_ns);
                }
            }
            // Cancel a random handle — possibly already fired or
            // already cancelled (both must be exact no-ops).
            _ => {
                let pick = mix(&mut state) as usize;
                pair.cancel_nth(pick);
            }
        }
        // Invariants checked after every step.
        pair.check_observers();
    }
    pair.drain();
}
