//! Differential model test for the event queues.
//!
//! Every property drives the same operation sequence through a queue —
//! [`EventQueue`], a binary heap of keys over a payload slab, or
//! [`LaneQueue`](emptcp_sim::LaneQueue), sorted lanes under one seq
//! counter — and a naive sorted-`Vec` reference, correct by inspection, in
//! lockstep, and demands bit-identical observations.
//!
//! Agreement pins the queue contract — (time, sequence) total order,
//! exact `len`, idempotent cancellation, clock monotonicity —
//! independently of the queue's machinery (tombstones and compaction,
//! slab slots recycled under fresh sequence numbers, and the stale-handle
//! check that guards them).
//!
//! The generators keep the shapes once aimed at the four-level timing
//! wheel the queue used to be: same-instant bursts, tick-, slot- and
//! level-aligned deltas, far-future deltas of several 17.2 s spans,
//! cancel/re-arm storms that recycle slab slots, and pops interleaved with
//! fresh schedules. They stay as inputs: any queue must pop them in the
//! same order.
//!
//! The lane properties drive the host's shape: link lanes whose
//! deliveries mostly join the back and sometimes land mid-lane, timer
//! lanes re-armed by `replace`, and same-instant bursts across lanes. The
//! lane queue must agree on every pop's time and payload, the clock and
//! its count of inserts ahead of a lane's tail.
//!
//! The merged property drives a fleet client shard's shape: two keyed
//! lanes fed in port order, a keyed heap beside them, and bounded pops
//! that take the least `(time, key)` of both. Every pop must be the one
//! the reference, holding every event in one list, gives.
//!
//! Case count: the default 64, raised in CI via `PROPTEST_CASES` (the
//! differential gate runs with ≥1000). The reference and the lockstep
//! harness live in `event_queue_model/model.rs`, shared with the root
//! package's tier-1 smoke test.

#[path = "event_queue_model/model.rs"]
mod model;

use emptcp_sim::{EventQueue, SimTime};
use model::{mix, LanePair, Pair, LANES, SLOTS, TICK_NS, WHEEL_SPAN_NS};
use proptest::prelude::*;

proptest! {
    /// Arbitrary interleavings of schedule / cancel / pop with mixed
    /// magnitudes, the broad-spectrum property. Half the pops are bounded:
    /// the queue's `pop_before(b)` must equal the reference's
    /// `peek_time() < b`, then `pop()`.
    #[test]
    fn agreement_under_arbitrary_interleavings(
        seed in 0u64..u64::MAX,
        ops in 100usize..600,
        cancel_weight in 1u64..6,
        horizon_ns in 1_000u64..1_000_000,
    ) {
        model::check_interleavings(seed, ops, cancel_weight, horizon_ns);
    }

    /// Same-instant bursts: events at identical timestamps — including
    /// timestamps aligned exactly on power-of-two tick, slot and level
    /// multiples — must come out in schedule (FIFO) order. This is where (time, seq) total order does all the work.
    #[test]
    fn same_instant_bursts_preserve_fifo_order(
        seed in 0u64..u64::MAX,
        bursts in 2usize..30,
        burst_len in 2usize..12,
    ) {
        let mut state = seed;
        let mut pair = Pair::default();

        for _ in 0..bursts {
            // A burst target: either an arbitrary instant or one aligned
            // on a tick, slot or level multiple.
            let delta = match mix(&mut state) % 5 {
                0 => mix(&mut state) % 1_000_000,
                1 => (mix(&mut state) % 1_000) * TICK_NS,
                2 => (mix(&mut state) % SLOTS + 1) * TICK_NS * SLOTS,
                3 => (mix(&mut state) % SLOTS + 1) * TICK_NS * SLOTS * SLOTS,
                _ => 0, // a burst exactly at `now`
            };
            for _ in 0..burst_len {
                let payload = mix(&mut state) as u32;
                pair.schedule(delta, payload);
            }
            // Interleave pops between bursts so same-instant groups are
            // sometimes split across a clock advance.
            if mix(&mut state).is_multiple_of(2) {
                pair.pop();
                pair.check_observers();
            }
        }
        pair.drain();
    }

    /// Far-future events: deltas around and several times beyond 17.2 s
    /// sit deep in the heap while near events are scheduled and popped in
    /// the foreground; every one must surface at its time.
    #[test]
    fn far_future_events_interleave_with_near_traffic(
        seed in 0u64..u64::MAX,
        ops in 30usize..150,
    ) {
        let mut state = seed;
        let mut pair = Pair::default();

        for _ in 0..ops {
            match mix(&mut state) % 5 {
                // Near-term foreground traffic.
                0 | 1 => {
                    let delta = mix(&mut state) % (TICK_NS * SLOTS);
                    let payload = mix(&mut state) as u32;
                    pair.schedule(delta, payload);
                }
                // Just inside / exactly at / beyond one span.
                2 => {
                    let offset = mix(&mut state) % (2 * TICK_NS);
                    let delta = (WHEEL_SPAN_NS - TICK_NS) + offset;
                    let payload = mix(&mut state) as u32;
                    pair.schedule(delta, payload);
                }
                // Deep future: several spans out.
                3 => {
                    let spans = 1 + mix(&mut state) % 3;
                    let delta = WHEEL_SPAN_NS * spans + mix(&mut state) % WHEEL_SPAN_NS;
                    let payload = mix(&mut state) as u32;
                    pair.schedule(delta, payload);
                }
                // Pop — dragging the clock toward (and eventually past)
                // the far events.
                _ => {
                    pair.pop();
                }
            }
            pair.check_observers();
        }
        pair.drain();
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
        let mut pair = Pair::default();
        // The "host timer": the latest live handle index, re-armed
        // aggressively.
        let mut armed: Option<usize> = None;

        for _ in 0..rounds {
            match mix(&mut state) % 4 {
                // Re-arm: cancel the current handle (maybe stale), then
                // schedule the replacement at a fresh deadline.
                0 | 1 => {
                    if let Some(idx) = armed {
                        pair.cancel_nth(idx);
                    }
                    let delta = mix(&mut state) % (TICK_NS * SLOTS * 4);
                    let payload = mix(&mut state) as u32;
                    pair.schedule(delta, payload);
                    armed = Some(pair.handles.len() - 1);
                }
                // Background event the storm has to coexist with.
                2 => {
                    let delta = mix(&mut state) % 1_000_000;
                    let payload = mix(&mut state) as u32;
                    pair.schedule(delta, payload);
                }
                _ => {
                    pair.pop();
                }
            }
            pair.check_observers();
        }
        pair.drain();
    }

    /// Pops interleaved with fresh schedules: every pop is followed by
    /// schedules whose deltas sit a few ticks either side of whole slot
    /// and level spans, next to events primed at those spans. This is the
    /// class that once made the wheel's upper-level slots re-fill
    /// themselves while being drained; it stays as an input.
    #[test]
    fn mid_rotation_schedules_terminate_and_agree(
        seed in 0u64..u64::MAX,
        rounds in 30usize..200,
    ) {
        let mut state = seed;
        let mut pair = Pair::default();

        // Prime events at one to three spans of each size.
        for lvl_span in [TICK_NS, TICK_NS * SLOTS, TICK_NS * SLOTS * SLOTS] {
            for k in 1..4u64 {
                let payload = mix(&mut state) as u32;
                pair.schedule(lvl_span * k, payload);
            }
        }

        for _ in 0..rounds {
            pair.pop();
            // Deltas a hair under or over whole spans, so new events
            // tie or nearly tie with primed ones.
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
                pair.schedule(delta, payload);
            }
            pair.check_observers();
        }
        pair.drain();
    }

    /// Link-like traffic over the lane queue: in-order pushes, mid-lane
    /// inserts (every one of them, when `reorder_every` is 1), timer
    /// re-arms and bursts, with pops interleaved.
    #[test]
    fn lanes_agree_under_link_like_traffic(
        seed in 0u64..u64::MAX,
        ops in 100usize..800,
        reorder_every in 1u64..40,
    ) {
        model::check_lanes(seed, ops, reorder_every);
    }

    /// Same-instant bursts spread over every lane pop in schedule order:
    /// the shared seq counter, not the lane number, breaks the tie.
    #[test]
    fn same_instant_bursts_across_lanes_pop_in_schedule_order(
        seed in 0u64..u64::MAX,
        bursts in 2usize..30,
        burst_len in 2usize..16,
    ) {
        let mut state = seed;
        let mut pair = LanePair::default();
        for _ in 0..bursts {
            let delta = match mix(&mut state) % 3 {
                0 => mix(&mut state) % 1_000_000,
                1 => (mix(&mut state) % 8) * TICK_NS,
                _ => 0,
            };
            for _ in 0..burst_len {
                let lane = (mix(&mut state) % LANES as u64) as usize;
                pair.schedule(lane, delta, mix(&mut state) as u32);
            }
            if mix(&mut state).is_multiple_of(2) {
                pair.pop();
            }
            pair.check_observers();
        }
        pair.drain();
    }

    /// `replace` storms: one lane re-armed over and over, nearer and
    /// farther, next to plain schedules on the others and on itself (a
    /// `replace` drops everything its lane holds), with pops between.
    #[test]
    fn lane_replace_storms_agree(
        seed in 0u64..u64::MAX,
        rounds in 20usize..300,
    ) {
        let mut state = seed;
        let mut pair = LanePair::default();
        for _ in 0..rounds {
            let delta = mix(&mut state) % (TICK_NS * SLOTS * 4);
            let payload = mix(&mut state) as u32;
            match mix(&mut state) % 5 {
                0 | 1 => pair.replace(LANES - 1, delta, payload),
                2 => {
                    let lane = (mix(&mut state) % LANES as u64) as usize;
                    pair.schedule(lane, delta, payload);
                }
                _ => {
                    pair.pop();
                }
            }
            pair.check_observers();
        }
        pair.drain();
    }

    /// Keyed lanes merged with a keyed heap, as a fleet client shard pops
    /// them: every bounded pop, lane peek and count of inserts ahead agrees
    /// with the reference, in-order lanes and always-reordering ones alike.
    #[test]
    fn keyed_lanes_merged_with_the_heap_agree(
        seed in 0u64..u64::MAX,
        ops in 100usize..800,
        reorder_every in 1u64..40,
    ) {
        model::check_merged(seed, ops, reorder_every);
    }

    /// Clock sanity on the queue alone: pop times are monotone and the
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
