//! A fixed-lane event queue for drivers whose events fall into a few
//! nearly-ordered streams.
//!
//! [`LaneQueue`] pops in exactly the `(time, seq)` order an
//! [`EventQueue`](crate::EventQueue) fed the same schedules would: one seq
//! counter is shared by every lane, so same-instant events across lanes
//! still fire in schedule order. What changes is the cost. A lane is a
//! `VecDeque` kept sorted on `(time, seq)`, and an event whose lane tail is
//! no later than it is pushed at the back; only an event that lands ahead
//! of its tail pays a binary search and a mid-deque insert (counted by
//! [`LaneQueue::inserted_ahead`]). A pop takes the least of the `N` cached
//! lane heads. There are no handles and no tombstones: a lane that holds a
//! single re-armable timer is re-armed with [`LaneQueue::replace`].

use crate::time::SimTime;
use std::collections::VecDeque;

/// The packed `(time, seq)` key of an empty lane: above every real key.
const EMPTY: u128 = u128::MAX;

/// `(time, seq)` as one integer with the same order.
fn key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// A queue of timestamped events over `N` lanes, popping in `(time, seq)`
/// order across all of them.
#[derive(Clone, Debug)]
pub struct LaneQueue<E, const N: usize> {
    lanes: [VecDeque<(u128, E)>; N],
    /// Each lane's front key, or [`EMPTY`].
    heads: [u128; N],
    next_seq: u64,
    now: SimTime,
    inserted_ahead: u64,
}

impl<E, const N: usize> Default for LaneQueue<E, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, const N: usize> LaneQueue<E, N> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        LaneQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heads: [EMPTY; N],
            next_seq: 0,
            now: SimTime::ZERO,
            inserted_ahead: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` on `lane` at absolute time `at`. Scheduling in the
    /// past is a logic error; the event is clamped to `now` in release
    /// builds, as [`EventQueue::schedule`](crate::EventQueue::schedule)
    /// does.
    pub fn schedule(&mut self, lane: usize, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let k = key(at.max(self.now), self.next_seq);
        self.next_seq += 1;
        let q = &mut self.lanes[lane];
        match q.back() {
            Some(&(tail, _)) if tail > k => {
                let i = q.partition_point(|&(other, _)| other < k);
                q.insert(i, (k, event));
                self.inserted_ahead += 1;
            }
            _ => q.push_back((k, event)),
        }
        self.heads[lane] = self.heads[lane].min(k);
    }

    /// Drop whatever `lane` holds, then schedule `event` on it: a timer
    /// re-arm. It consumes one seq, as cancel-then-schedule on an
    /// [`EventQueue`](crate::EventQueue) does.
    pub fn replace(&mut self, lane: usize, at: SimTime, event: E) {
        self.lanes[lane].clear();
        self.heads[lane] = EMPTY;
        self.schedule(lane, at, event);
    }

    /// Pop the earliest event of any lane, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let lane = (0..N).min_by_key(|&i| self.heads[i])?;
        let (k, event) = self.lanes[lane].pop_front()?;
        self.heads[lane] = self.lanes[lane].front().map_or(EMPTY, |&(k, _)| k);
        self.now = SimTime::from_nanos((k >> 64) as u64);
        Some((self.now, event))
    }

    /// How many schedules landed ahead of their lane's tail (a binary
    /// search and a mid-lane insert each) rather than at its back.
    pub fn inserted_ahead(&self) -> u64 {
        self.inserted_ahead
    }
}
