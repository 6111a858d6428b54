//! Conservative-lookahead epoch clock for sharded simulation.
//!
//! When a simulation is partitioned into shards that exchange messages only
//! at synchronization barriers, each shard may safely advance to the end of
//! the current *epoch* without seeing a message from its past, provided every
//! cross-shard message incurs at least one epoch of latency (the *lookahead
//! bound*): a message generated at time `t` inside epoch `k` arrives no
//! earlier than `t + Δ ≥ (k+1)·Δ`, i.e. strictly after the epoch boundary
//! every shard synchronizes on.
//!
//! [`EpochClock`] owns the arithmetic: mapping instants to epoch indices and
//! epoch indices to execution bounds clamped to the simulation horizon. It is
//! deliberately tiny — correctness of the sharded engine hinges on this
//! arithmetic being obviously right.

use crate::time::{SimDuration, SimTime};

/// Epoch arithmetic for conservative-lookahead execution.
///
/// `delta` is the lookahead bound: the minimum latency of any cross-shard
/// link. Shards run events strictly *before* the epoch bound returned by
/// [`EpochClock::bound_for`], then exchange messages at the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochClock {
    delta: SimDuration,
    horizon: SimTime,
}

impl EpochClock {
    /// Build a clock with lookahead `delta` over a run ending at `horizon`.
    ///
    /// `delta` must be non-zero: a zero lookahead admits same-instant
    /// cross-shard causality and the conservative bound degenerates. Callers
    /// with a zero minimum link latency must fall back to single-shard
    /// execution instead.
    pub fn new(delta: SimDuration, horizon: SimTime) -> EpochClock {
        assert!(
            delta > SimDuration::ZERO,
            "EpochClock requires a non-zero lookahead"
        );
        EpochClock { delta, horizon }
    }

    /// The lookahead bound Δ.
    pub fn delta(self) -> SimDuration {
        self.delta
    }

    /// The simulation horizon events must not outlive.
    pub fn horizon(self) -> SimTime {
        self.horizon
    }

    /// The epoch index containing instant `t` (epoch `k` spans
    /// `[k·Δ, (k+1)·Δ)`).
    fn epoch_of(self, t: SimTime) -> u64 {
        t.as_nanos() / self.delta.as_nanos()
    }

    /// The exclusive execution bound for the epoch containing `t`: shards
    /// process every event with `time < bound`. The bound is clamped to one
    /// nanosecond past the horizon so events *at* the horizon still run in
    /// the final epoch while the loop terminates immediately after.
    pub fn bound_for(self, t: SimTime) -> SimTime {
        let end = SimTime::ZERO + self.delta.saturating_mul(self.epoch_of(t) + 1);
        end.min(self.horizon + SimDuration::from_nanos(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_indexing() {
        let c = EpochClock::new(SimDuration::from_millis(1), SimTime::from_secs(1));
        assert_eq!(c.epoch_of(SimTime::ZERO), 0);
        assert_eq!(c.epoch_of(SimTime::from_nanos(999_999)), 0);
        assert_eq!(c.epoch_of(SimTime::from_millis(1)), 1);
        assert_eq!(
            c.epoch_of(SimTime::from_millis(7) + SimDuration::from_nanos(3)),
            7
        );
    }

    #[test]
    fn bounds_advance_by_delta() {
        let c = EpochClock::new(SimDuration::from_millis(1), SimTime::from_secs(1));
        assert_eq!(c.bound_for(SimTime::ZERO), SimTime::from_millis(1));
        assert_eq!(
            c.bound_for(SimTime::from_nanos(17)),
            SimTime::from_millis(1)
        );
        assert_eq!(
            c.bound_for(SimTime::from_millis(1)),
            SimTime::from_millis(2)
        );
    }

    #[test]
    fn bound_clamped_past_horizon() {
        let horizon = SimTime::from_millis(10) + SimDuration::from_nanos(500);
        let c = EpochClock::new(SimDuration::from_millis(3), horizon);
        // Epoch containing the horizon ends at 12 ms, but the bound clamps to
        // horizon + 1 ns so horizon-time events still run.
        assert_eq!(c.bound_for(horizon), horizon + SimDuration::from_nanos(1));
    }

    #[test]
    fn events_at_bound_belong_to_next_epoch() {
        let c = EpochClock::new(SimDuration::from_millis(2), SimTime::from_secs(1));
        let bound = c.bound_for(SimTime::ZERO);
        // An event exactly at the bound is epoch 1, not epoch 0.
        assert_eq!(c.epoch_of(bound), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero lookahead")]
    fn zero_delta_rejected() {
        let _ = EpochClock::new(SimDuration::ZERO, SimTime::from_secs(1));
    }

    #[test]
    fn message_latency_clears_barrier() {
        // The conservative-lookahead argument: any message sent at time t in
        // epoch k with latency >= delta arrives at >= (k+1) * delta = the
        // barrier every shard synchronizes on, so no shard sees its past.
        let delta = SimDuration::from_millis(1);
        let c = EpochClock::new(delta, SimTime::from_secs(1));
        for ns in [0u64, 1, 999_999, 1_000_000, 1_500_000, 123_456_789] {
            let t = SimTime::from_nanos(ns);
            let arrival = t + delta;
            let barrier = SimTime::ZERO + delta.saturating_mul(c.epoch_of(t) + 1);
            assert!(arrival >= barrier, "send at {ns} ns violates lookahead");
        }
    }
}
