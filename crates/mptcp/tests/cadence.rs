//! The driver-contract certificate for `MpConnection`: `poll_transmit`
//! and `on_deadline` may be called at any cadence. A poll that returns
//! `None` and a sweep with nothing due leave the connection
//! `Debug`-identical, a due deadline never survives its sweep, and a run
//! polled and swept at arbitrary extra instants sends the same segments,
//! at the same instants, under the same congestion windows, as its twin
//! driven only when an event lands — through idle gaps longer than an RTO
//! (RFC 2861 decay), loss, stalls and link flaps.
//!
//! 256 cases by default; CI raises it through `PROPTEST_CASES`.

#[path = "cadence/rig.rs"]
mod rig;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(256)))]

    #[test]
    fn extra_polls_are_invisible(
        seed in 0u64..u64::MAX,
        loss in 0.0f64..0.08,
        jitter_ms in 0u64..20,
    ) {
        let twin = rig::run(seed, loss, jitter_ms, false);
        prop_assert!(!twin.is_empty());
        prop_assert_eq!(rig::run(seed, loss, jitter_ms, true), twin);
    }
}
