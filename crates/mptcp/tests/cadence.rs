//! The lazy-time certificate for `MpConnection`: `poll_transmit` may be
//! called at any cadence. A call that returns `None` leaves the connection
//! `Debug`-identical, and a run polled at arbitrary extra instants sends
//! the same segments, at the same instants, under the same congestion
//! windows, as its twin polled only when an event lands — through idle
//! gaps longer than an RTO (RFC 2861 decay), loss, and link flaps.

#[path = "cadence/rig.rs"]
mod rig;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
