//! A fixed-lane event queue for drivers whose events fall into a few
//! nearly-ordered streams.
//!
//! [`LaneQueue`] pops in exactly the `(time, seq)` order an
//! [`EventQueue`] fed the same schedules would: one seq counter is shared by
//! every lane, so same-instant events across lanes still fire in schedule
//! order. What changes is the cost. A lane is a `VecDeque` kept sorted on
//! `(time, seq)`, and an event whose lane tail is no later than it is pushed
//! at the back; only an event that lands ahead of its tail pays a binary
//! search and a mid-deque insert (counted by [`LaneQueue::inserted_ahead`]).
//! A pop takes the least of the `N` cached lane heads. There are no handles
//! and no tombstones: a lane that holds a single re-armable timer is
//! re-armed with [`LaneQueue::replace`]. A full lane grows by about a
//! quarter, not by doubling, so it holds little more than its peak: a
//! driver keeps its lanes for the whole run, and a fleet keeps two per
//! client shard.
//!
//! Two drivers use it, each its own way:
//!
//! * The device ↔ server host (`emptcp_expr::host`) runs on lanes alone,
//!   under the shared seq counter ([`LaneQueue::schedule`]): one lane per
//!   link direction for the segments in flight, one per timer.
//! * The sharded fleet engine (`emptcp_net::shard`) keys every event
//!   itself. A client shard's two streams from the core (bottleneck hops
//!   and reverse-port hops) each ride a lane under the sender's key
//!   ([`LaneQueue::schedule_keyed`]), and everything else the shard
//!   schedules sits in its keyed [`EventQueue`];
//!   [`LaneQueue::pop_merged_before`] pops the least `(time, key)` of the
//!   two. With unique keys that is the order one heap holding every event
//!   would pop in.

use crate::event::EventQueue;
use crate::time::SimTime;
use std::collections::VecDeque;

/// The packed `(time, seq)` key of an empty lane: above every real key.
const EMPTY: u128 = u128::MAX;

/// `(time, seq)` as one integer with the same order.
fn pack(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// The `(time, seq)` a packed key stands for.
fn unpack(k: u128) -> (SimTime, u64) {
    (SimTime::from_nanos((k >> 64) as u64), k as u64)
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
    /// builds, as [`EventQueue::schedule`] does.
    pub fn schedule(&mut self, lane: usize, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(lane, at, seq, event);
    }

    /// Schedule `event` on `lane` at `at` under a caller-supplied ordering
    /// key, as [`EventQueue::schedule_keyed`] does: same-instant events pop
    /// in ascending `key` order, and the caller keeps keys unique. A queue
    /// uses this or [`LaneQueue::schedule`], not both.
    pub fn schedule_keyed(&mut self, lane: usize, at: SimTime, key: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let k = pack(at.max(self.now), key);
        let q = &mut self.lanes[lane];
        if q.len() == q.capacity() {
            q.reserve_exact(q.len() / 4 + 4);
        }
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
    /// [`EventQueue`] does.
    pub fn replace(&mut self, lane: usize, at: SimTime, event: E) {
        self.lanes[lane].clear();
        self.heads[lane] = EMPTY;
        self.schedule(lane, at, event);
    }

    /// Pop the earliest event of any lane, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, event)| (at, event))
    }

    /// [`pop`](Self::pop), plus the seq or key the event was scheduled
    /// under.
    fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let lane = (0..N).min_by_key(|&i| self.heads[i])?;
        let (k, event) = self.lanes[lane].pop_front()?;
        self.heads[lane] = self.lanes[lane].front().map_or(EMPTY, |&(k, _)| k);
        let (at, seq) = unpack(k);
        self.now = at;
        Some((at, seq, event))
    }

    /// The `(time, seq)` of the earliest event of any lane, left queued.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        let k = self.heads.iter().copied().min().filter(|&k| k != EMPTY)?;
        Some(unpack(k))
    }

    /// When `lane`'s earliest event is due, or `None` if the lane is empty:
    /// a single-timer lane's armed instant.
    pub fn head(&self, lane: usize) -> Option<SimTime> {
        let k = self.heads[lane];
        (k != EMPTY).then(|| unpack(k).0)
    }

    /// Pop the least `(time, key)` among `heap`'s front and this queue's
    /// lane heads, if it is strictly before `bound`; otherwise leave both
    /// queued. Both queues must be keyed from one set of unique keys
    /// ([`EventQueue::schedule_keyed`], [`LaneQueue::schedule_keyed`]):
    /// then the pops come in the order one [`EventQueue`] holding every
    /// event would give.
    pub fn pop_merged_before(
        &mut self,
        heap: &mut EventQueue<E>,
        bound: SimTime,
    ) -> Option<(SimTime, u64, E)> {
        let head = self.peek_key().filter(|&(at, _)| at < bound);
        let (at, seq) = head.unwrap_or((bound, 0));
        heap.pop_below(at, seq)
            .or_else(|| head.and_then(|_| self.pop_keyed()))
    }

    /// How many schedules landed ahead of their lane's tail (a binary
    /// search and a mid-lane insert each) rather than at its back.
    pub fn inserted_ahead(&self) -> u64 {
        self.inserted_ahead
    }
}
