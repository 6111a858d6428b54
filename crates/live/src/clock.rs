//! Where "now" comes from.
//!
//! The reactor is generic over its notion of time so the same loop runs
//! two ways:
//!
//! * **Wall** — `now` is monotonic nanoseconds since the reactor's epoch
//!   (`std::time::Instant`), mapped into [`SimTime`] so the protocol
//!   cores never learn which engine is driving them. Advancing the clock
//!   really sleeps, so the wall loop asks [`IdleBackoff`] how long it can
//!   afford to: a socket cannot announce its next arrival, and every
//!   microsecond slept past one is a microsecond added to an RTT sample.
//! * **Virtual** — `now` is a number the loop jumps to the next known
//!   deadline, exactly like the simulator. This is what makes the parity
//!   harness hermetic and deterministic: same script, same instants,
//!   same decisions.

use emptcp_sim::{SimDuration, SimTime};
use std::time::Instant;

/// Ceiling of the idle backoff and of any single wall-clock sleep: a
/// reactor that has seen nothing for a while still re-checks its sockets
/// this often, however far away the next protocol deadline is.
pub const MAX_WALL_SLEEP: SimDuration = SimDuration::from_millis(1);

/// Empty polls answered with a bare `yield_now` before the first nap. On
/// loopback the peer's next datagram is typically one scheduler hop away;
/// sleeping for it costs more than the wait itself.
const IDLE_YIELDS: u32 = 32;

/// The first nap after the yields run out; each later one doubles.
const FIRST_NAP: SimDuration = SimDuration::from_micros(50);

/// What an empty poll is answered with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IdleStep {
    /// Give up the time slice and poll again.
    Yield,
    /// Sleep this long (the reactor clamps it to its next known instant).
    Nap(SimDuration),
}

/// Reset-on-arrival idle backoff: a count of consecutive empty polls that
/// any arrival zeroes. Sockets can't announce their next arrival and the
/// [`Transport`](crate::Transport) trait has no blocking wait, so the
/// floor is a yield, not a block; a reactor that stays dry backs off
/// through naps of 50 µs · 2ⁿ up to [`MAX_WALL_SLEEP`]. A busy
/// transfer therefore never sleeps, and an idle one costs what the fixed
/// 1 ms cadence did.
#[derive(Debug, Default)]
pub struct IdleBackoff {
    empties: u32,
}

impl IdleBackoff {
    /// Record one poll; `None` when it made progress (the loop goes
    /// straight round again), otherwise how to wait.
    pub fn on_poll(&mut self, progressed: bool) -> Option<IdleStep> {
        if progressed {
            self.empties = 0;
            return None;
        }
        let nth = self.empties;
        self.empties = nth.saturating_add(1);
        if nth < IDLE_YIELDS {
            return Some(IdleStep::Yield);
        }
        // 50 µs · 2⁵ already exceeds the ceiling; capping the shift keeps
        // a long-idle reactor from overflowing it.
        let doublings = (nth - IDLE_YIELDS).min(5);
        let nap = SimDuration::from_nanos(FIRST_NAP.as_nanos() << doublings);
        Some(IdleStep::Nap(nap.min(MAX_WALL_SLEEP)))
    }
}

/// A source of monotonic [`SimTime`] the reactor advances through.
#[derive(Debug)]
pub enum ClockSource {
    /// Real time: nanoseconds since `epoch`.
    Wall { epoch: Instant },
    /// Scripted time: jumps wherever the loop steers it.
    Virtual { now: SimTime },
}

impl ClockSource {
    /// A wall clock whose epoch is this instant.
    pub fn wall() -> ClockSource {
        ClockSource::Wall {
            epoch: Instant::now(),
        }
    }

    /// A virtual clock starting at zero.
    pub fn scripted() -> ClockSource {
        ClockSource::Virtual { now: SimTime::ZERO }
    }

    /// True when driven by real time.
    pub fn is_wall(&self) -> bool {
        matches!(self, ClockSource::Wall { .. })
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        match self {
            ClockSource::Wall { epoch } => SimTime::from_nanos(epoch.elapsed().as_nanos() as u64),
            ClockSource::Virtual { now } => *now,
        }
    }

    /// Advance toward `target` and return the instant actually reached.
    ///
    /// The virtual clock jumps exactly to `target`. The wall clock sleeps
    /// at most [`MAX_WALL_SLEEP`] (or until `target`, whichever is
    /// sooner) and reports where it woke up — the reactor loops back to
    /// check readiness rather than sleeping blind through I/O.
    pub fn advance_to(&mut self, target: SimTime) -> SimTime {
        match self {
            ClockSource::Virtual { now } => {
                if target > *now {
                    *now = target;
                }
                *now
            }
            ClockSource::Wall { .. } => {
                let now = self.now();
                if target > now {
                    let gap = target.saturating_since(now).min(MAX_WALL_SLEEP);
                    std::thread::sleep(std::time::Duration::from_nanos(gap.as_nanos()));
                }
                self.now()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_jumps_and_never_rewinds() {
        let mut c = ClockSource::scripted();
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(
            c.advance_to(SimTime::from_millis(5)),
            SimTime::from_millis(5)
        );
        // A stale (earlier) target leaves the clock where it is.
        assert_eq!(
            c.advance_to(SimTime::from_millis(1)),
            SimTime::from_millis(5)
        );
    }

    #[test]
    fn wall_clock_moves_forward() {
        let mut c = ClockSource::wall();
        let a = c.now();
        let b = c.advance_to(a + SimDuration::from_micros(200));
        assert!(b >= a);
    }

    #[test]
    fn backoff_yields_then_doubles_to_the_ceiling() {
        let mut idle = IdleBackoff::default();
        for _ in 0..IDLE_YIELDS {
            assert_eq!(idle.on_poll(false), Some(IdleStep::Yield));
        }
        let naps: Vec<u64> = (0..8)
            .map(|_| match idle.on_poll(false) {
                Some(IdleStep::Nap(d)) => d.as_nanos() / 1_000,
                other => panic!("expected a nap, got {other:?}"),
            })
            .collect();
        assert_eq!(naps, [50, 100, 200, 400, 800, 1000, 1000, 1000]);
    }

    #[test]
    fn backoff_resets_on_arrival_and_never_exceeds_the_ceiling() {
        let mut idle = IdleBackoff::default();
        // Long past the point where an unclamped shift would overflow.
        for _ in 0..10_000 {
            if let Some(IdleStep::Nap(d)) = idle.on_poll(false) {
                assert!(d <= MAX_WALL_SLEEP && d >= FIRST_NAP);
            }
        }
        assert_eq!(idle.on_poll(false), Some(IdleStep::Nap(MAX_WALL_SLEEP)));
        assert_eq!(idle.on_poll(true), None);
        assert_eq!(idle.on_poll(false), Some(IdleStep::Yield));
        // An arrival in the middle of the naps starts the ladder over too.
        for _ in 0..IDLE_YIELDS + 2 {
            idle.on_poll(false);
        }
        assert_eq!(idle.on_poll(true), None);
        assert_eq!(idle.on_poll(false), Some(IdleStep::Yield));
    }
}
