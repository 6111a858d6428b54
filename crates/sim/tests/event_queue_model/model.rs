//! The two event queues, a sorted-`Vec` reference and the lockstep
//! harnesses that drive each queue and the reference as one. Shared with
//! the root package's `workspace_smoke` through `#[path]`.

use emptcp_sim::{EventQueue, LaneQueue, SimDuration, SimTime, TimerId};

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
        self.schedule_keyed(at, seq, payload);
        seq
    }

    /// Schedule under a caller-supplied key, which orders like a seq.
    fn schedule_keyed(&mut self, at: u64, key: u64, payload: u32) {
        self.live.push((at.max(self.now), key, payload));
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

/// Lanes in the [`LanePair`] queue: as many as the host uses.
pub const LANES: usize = 7;

/// A [`LaneQueue`] and the reference, driven as one. The reference knows
/// nothing of lanes beyond which lane each seq was scheduled on, so a
/// `replace` is a cancel of every live entry of the lane, then a schedule.
#[derive(Default)]
pub struct LanePair {
    queue: LaneQueue<u32, LANES>,
    reference: Reference,
    /// The lane of each seq, indexed by seq.
    lane_of: Vec<usize>,
    /// Schedules the reference saw land ahead of a later live entry of
    /// their lane.
    pub inserted_ahead: u64,
}

impl LanePair {
    pub fn schedule(&mut self, lane: usize, delta_ns: u64, payload: u32) {
        let at = self.queue.now() + SimDuration::from_nanos(delta_ns);
        self.queue.schedule(lane, at, payload);
        self.reference_schedule(lane, at, payload);
    }

    pub fn replace(&mut self, lane: usize, delta_ns: u64, payload: u32) {
        let at = self.queue.now() + SimDuration::from_nanos(delta_ns);
        self.queue.replace(lane, at, payload);
        let lane_of = &self.lane_of;
        self.reference
            .live
            .retain(|&(_, seq, _)| lane_of[seq as usize] != lane);
        self.reference_schedule(lane, at, payload);
    }

    fn reference_schedule(&mut self, lane: usize, at: SimTime, payload: u32) {
        let at = at.as_nanos().max(self.reference.now);
        let lane_of = &self.lane_of;
        let ahead = self
            .reference
            .live
            .iter()
            .any(|&(t, seq, _)| lane_of[seq as usize] == lane && t > at);
        self.inserted_ahead += u64::from(ahead);
        let seq = self.reference.schedule(at, payload);
        assert_eq!(seq as usize, self.lane_of.len());
        self.lane_of.push(lane);
    }

    pub fn pop(&mut self) -> Option<(u64, u32)> {
        let got = self.queue.pop().map(|(t, p)| (t.as_nanos(), p));
        let want = self.reference.pop().map(|(at, _, payload)| (at, payload));
        assert_eq!(got, want, "lane queue pop diverged from reference");
        want
    }

    pub fn check_observers(&self) {
        assert_eq!(self.queue.now().as_nanos(), self.reference.now, "clock");
        assert_eq!(self.queue.inserted_ahead(), self.inserted_ahead);
        for lane in 0..LANES {
            let live = self.reference.live.iter();
            let head = live.filter(|&&(_, seq, _)| self.lane_of[seq as usize] == lane);
            let want = head.map(|&(at, _, _)| at).min();
            assert_eq!(
                self.queue.head(lane).map(SimTime::as_nanos),
                want,
                "lane {lane} head"
            );
        }
    }

    /// Drain everything left; both must agree to the last event.
    pub fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Link-like traffic, derived from `seed`: lanes 0–3 are links whose
/// deliveries mostly come at or after their lane's last one (a push at the
/// back) and, one time in `reorder_every`, earlier (a mid-lane insert);
/// lanes 4–6 are timers re-armed with `replace`, nearer or farther, and
/// now and then scheduled plainly next to what they hold. Same-instant
/// bursts land across lanes, and pops interleave throughout. Returns
/// `(inserted ahead, replaces)` so callers can assert the run exercised
/// both paths.
pub fn check_lanes(seed: u64, ops: usize, reorder_every: u64) -> (u64, u64) {
    let mut state = seed;
    let mut pair = LanePair::default();
    // Each link's last delivery, as an offset from the clock at schedule.
    let mut tail = [0u64; 4];
    let mut replaces = 0;

    for _ in 0..ops {
        match mix(&mut state) % 8 {
            0..=2 => {
                let lane = (mix(&mut state) % 4) as usize;
                let now = pair.queue.now().as_nanos();
                let last = tail[lane].max(now);
                let at = if mix(&mut state).is_multiple_of(reorder_every) {
                    now + mix(&mut state) % (last - now + 1)
                } else {
                    last + mix(&mut state) % (4 * TICK_NS)
                };
                tail[lane] = tail[lane].max(at);
                pair.schedule(lane, at - now, mix(&mut state) as u32);
            }
            3 => {
                let lane = 4 + (mix(&mut state) % 3) as usize;
                let delta = mix(&mut state) % (TICK_NS * SLOTS);
                pair.replace(lane, delta, mix(&mut state) as u32);
                replaces += 1;
            }
            4 => {
                let lane = 4 + (mix(&mut state) % 3) as usize;
                let delta = mix(&mut state) % (TICK_NS * SLOTS);
                pair.schedule(lane, delta, mix(&mut state) as u32);
            }
            5 => {
                // A same-instant burst across random lanes.
                let delta = mix(&mut state) % (2 * TICK_NS);
                for _ in 0..1 + mix(&mut state) % 6 {
                    let lane = (mix(&mut state) % LANES as u64) as usize;
                    pair.schedule(lane, delta, mix(&mut state) as u32);
                    if lane < 4 {
                        let at = pair.queue.now().as_nanos() + delta;
                        tail[lane] = tail[lane].max(at);
                    }
                }
            }
            _ => {
                pair.pop();
            }
        }
        pair.check_observers();
    }
    pair.drain();
    (pair.inserted_ahead, replaces)
}

/// Lanes in the [`MergedPair`]: as many as a fleet client shard has.
pub const MERGED_LANES: usize = 2;
/// The owner of every lane key; heap keys are under owners 0, 1, 3 and 4.
const LANE_OWNER: usize = 2;

fn is_lane_key(key: u64) -> bool {
    key >> 32 == LANE_OWNER as u64
}

/// A keyed [`EventQueue`] and a keyed [`LaneQueue`] popped as one
/// with `pop_merged_before`, next to the reference holding every event.
/// Lane keys come from one counter under owner [`LANE_OWNER`] and heap
/// keys from per-owner counters under the owners either side of it, as
/// the fleet's client shards key them: unique, but not in schedule order
/// across owners, and a same-instant tie may go either way.
#[derive(Default)]
pub struct MergedPair {
    heap: EventQueue<u32>,
    lanes: LaneQueue<u32, MERGED_LANES>,
    reference: Reference,
    /// Every heap schedule's handle and key, fired or cancelled or not.
    handles: Vec<(TimerId, u64)>,
    /// The lane of each lane key, indexed by the key's seq.
    lane_of: Vec<usize>,
    owner_seq: [u32; 5],
    /// Lane schedules the reference saw land ahead of a later live entry
    /// of their lane.
    pub inserted_ahead: u64,
}

impl MergedPair {
    fn next_key(&mut self, owner: usize) -> u64 {
        let seq = self.owner_seq[owner];
        self.owner_seq[owner] += 1;
        (owner as u64) << 32 | u64::from(seq)
    }

    /// The merged clock: the time of the last event either queue popped.
    pub fn now(&self) -> u64 {
        self.reference.now
    }

    pub fn schedule_heap(&mut self, owner: usize, delta_ns: u64, payload: u32) {
        let at = self.now() + delta_ns;
        let key = self.next_key(owner);
        let id = self
            .heap
            .schedule_keyed(SimTime::from_nanos(at), key, payload);
        self.reference.schedule_keyed(at, key, payload);
        self.handles.push((id, key));
    }

    pub fn cancel_nth(&mut self, pick: usize) {
        if self.handles.is_empty() {
            return;
        }
        let (id, key) = self.handles[pick % self.handles.len()];
        self.heap.cancel(id);
        self.reference.cancel(key);
    }

    pub fn schedule_lane(&mut self, lane: usize, at: u64, payload: u32) {
        let key = self.next_key(LANE_OWNER);
        assert_eq!(key as u32 as usize, self.lane_of.len());
        self.lane_of.push(lane);
        let lane_of = &self.lane_of;
        let ahead = self.reference.live.iter().any(|&(t, k, _)| {
            is_lane_key(k) && lane_of[k as u32 as usize] == lane && (t, k) > (at, key)
        });
        self.inserted_ahead += u64::from(ahead);
        self.lanes
            .schedule_keyed(lane, SimTime::from_nanos(at), key, payload);
        self.reference.schedule_keyed(at, key, payload);
    }

    /// Pop the least event of both queues if it is due strictly before
    /// `now + delta_ns`; the reference spells it out as `peek_time() <
    /// bound`, then `pop()`.
    pub fn pop_before(&mut self, delta_ns: u64) -> Option<(u64, u64, u32)> {
        let bound = self.now() + delta_ns;
        let got = self
            .lanes
            .pop_merged_before(&mut self.heap, SimTime::from_nanos(bound))
            .map(|(t, key, p)| (t.as_nanos(), key, p));
        let due = self.reference.peek_time().is_some_and(|t| t < bound);
        let want = due.then(|| self.reference.pop()).flatten();
        assert_eq!(got, want, "merged pop diverged from reference");
        want
    }

    pub fn check_observers(&self) {
        assert_eq!(self.lanes.inserted_ahead(), self.inserted_ahead);
        let lane = self.lanes.peek_key().map(|(t, k)| (t.as_nanos(), k));
        let lane_ref = self
            .reference
            .live
            .iter()
            .filter(|&&(_, k, _)| is_lane_key(k))
            .map(|&(t, k, _)| (t, k))
            .min();
        assert_eq!(lane, lane_ref, "lane peek");
    }

    /// Drain everything left; both must agree to the last event.
    pub fn drain(&mut self) {
        while self.pop_before(u64::MAX - self.now()).is_some() {}
        assert!(self.reference.live.is_empty(), "reference had leftovers");
        assert!(self.heap.is_empty());
    }
}

/// A client shard's shape, derived from `seed`: two lanes fed in port
/// order (each hop at or after its lane's last one, and, one time in
/// `reorder_every` that the lane holds a later hop, earlier: a rate rise), heap events from four owners at
/// any distance, timer-like cancels, and bounded pops whose bounds fall
/// before, between and after what is queued. Returns `(inserted ahead,
/// cancels)` so callers can assert the run exercised both paths.
pub fn check_merged(seed: u64, ops: usize, reorder_every: u64) -> (u64, u64) {
    let mut state = seed;
    let mut pair = MergedPair::default();
    let mut tail = [0u64; MERGED_LANES];
    let mut cancels = 0;

    for _ in 0..ops {
        match mix(&mut state) % 8 {
            0..=2 => {
                let lane = (mix(&mut state) % MERGED_LANES as u64) as usize;
                let now = pair.now();
                let last = tail[lane].max(now);
                // A hop ahead of the lane's live tail, or one after it.
                let at = if last > now && mix(&mut state).is_multiple_of(reorder_every) {
                    now + mix(&mut state) % (last - now)
                } else {
                    last + mix(&mut state) % (4 * TICK_NS)
                };
                tail[lane] = tail[lane].max(at);
                pair.schedule_lane(lane, at, mix(&mut state) as u32);
            }
            3 | 4 => {
                let owner = [0, 1, 3, 4][(mix(&mut state) % 4) as usize];
                // Now and then exactly at a lane's tail: a same-instant
                // tie that only the key breaks.
                let delta = match mix(&mut state) % 4 {
                    0 => tail[0].max(pair.now()) - pair.now(),
                    _ => mix(&mut state) % (TICK_NS * SLOTS),
                };
                pair.schedule_heap(owner, delta, mix(&mut state) as u32);
            }
            5 => {
                pair.cancel_nth(mix(&mut state) as usize);
                cancels += 1;
            }
            _ => {
                pair.pop_before(mix(&mut state) % (8 * TICK_NS));
            }
        }
        pair.check_observers();
    }
    pair.drain();
    (pair.inserted_ahead, cancels)
}
