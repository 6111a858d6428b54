//! The re-arm rule (`emptcp_mptcp::rearm`) against a driver that folds
//! every deadline at every instant. A driver holds one wake-up for a few
//! endpoints; each step an event reaches one endpoint and moves its
//! deadline (earlier, later or away), and every wake-up that comes due
//! before the event sweeps the endpoints that are due. Moving the wake-up
//! from the touched deadline alone must never leave a due deadline
//! unswept past its instant, and must only ever move it earlier between
//! fires.
//!
//! 256 cases by default; CI raises it through `PROPTEST_CASES`.

use emptcp_mptcp::rearm;
use emptcp_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const ENDPOINTS: usize = 4;

/// One event: `gap_ms` after the last one it reaches endpoint `ep`, whose
/// deadline becomes `deadline_ms` after it (or none). An endpoint swept
/// on its deadline gets a later one `after_ms` on (or none).
struct Step {
    gap_ms: u64,
    ep: usize,
    deadline_ms: Option<u64>,
    after_ms: Option<u64>,
}

/// splitmix64: the steps of one case, drawn from its seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn step(state: &mut u64) -> Step {
    let mut maybe = |hi: u64| (!mix(state).is_multiple_of(4)).then(|| mix(state) % hi);
    let (deadline_ms, after_ms) = (maybe(120), maybe(119).map(|a| a + 1));
    Step {
        gap_ms: mix(state) % 60,
        ep: (mix(state) % ENDPOINTS as u64) as usize,
        deadline_ms,
        after_ms,
    }
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// The earliest deadline: what the reference driver would arm.
fn fold(deadlines: &[Option<SimTime>]) -> Option<SimTime> {
    deadlines.iter().fold(None, |a, &b| SimTime::earliest(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(256)))]

    #[test]
    fn the_touched_deadline_alone_keeps_every_deadline_swept(
        seed in 0u64..u64::MAX,
        len in 1usize..200,
    ) {
        let mut state = seed;
        let mut deadlines = [None; ENDPOINTS];
        let mut armed: Option<SimTime> = None;
        let mut now = SimTime::ZERO;
        for s in (0..len).map(|_| step(&mut state)) {
            let at = now + ms(s.gap_ms);
            // Every wake-up due by the event fires first: sweep what is
            // due, then re-arm from the full fold as a sweep does.
            while let Some(t) = armed.filter(|&t| t <= at) {
                now = t;
                for d in deadlines.iter_mut().filter(|d| d.is_some_and(|d| d <= now)) {
                    *d = s.after_ms.map(|a| now + ms(a));
                }
                let all = fold(&deadlines);
                armed = rearm(now, None, all, || all);
            }
            now = at;
            let stale = deadlines.iter().flatten().find(|&&d| d < now);
            prop_assert!(stale.is_none(), "deadline {stale:?} passed unswept at {now:?}");
            // The event moves the deadline of the endpoint it reached alone.
            deadlines[s.ep] = s.deadline_ms.map(|d| now + ms(d));
            let all = fold(&deadlines);
            let moved = rearm(now, armed, deadlines[s.ep], || all);
            // The reference: the full fold, decided the same way.
            let want = all.map(|d| d.max(now)).filter(|&d| armed.is_none_or(|t| d < t));
            prop_assert_eq!(moved, want);
            if let Some(d) = moved {
                prop_assert!(armed.is_none_or(|t| d < t), "moved later: {armed:?} -> {d:?}");
                armed = Some(d);
            }
            // The wake-up is due no later than any deadline.
            if let Some(d) = all {
                prop_assert!(armed.is_some_and(|t| t <= d.max(now)), "{armed:?} after {d:?}");
            }
        }
    }
}

/// A driver that passes a deadline the event did not set trips the debug
/// check: here a second endpoint's deadline is earlier than the armed
/// wake-up, as if the event had moved it too.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "of an endpoint it did not reach")]
fn a_moved_untouched_deadline_is_caught() {
    let at = |n| SimTime::ZERO + ms(n);
    rearm(at(0), Some(at(50)), Some(at(80)), || Some(at(20)));
}
