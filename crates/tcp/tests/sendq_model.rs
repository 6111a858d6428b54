//! The scoreboard against the trees it replaced: any interleaving of
//! sends, the handshake's ACK, cumulative ACKs (some landing inside a
//! queued segment), SACK marking, hole and head queueing, RTO sweeps and
//! retransmissions leaves the same segments with the same marks, the same
//! SACKed and lost totals, and the same next retransmission.

#[path = "sendq_model/model.rs"]
mod model;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_queue_answers_like_the_tree(seed in 0u64..u64::MAX) {
        let seen = model::check(seed, 600);
        prop_assert!(seen.acked > 0, "no segment was ever acknowledged: {seen:?}");
        prop_assert!(seen.straddled_queued > 0, "no ACK landed inside a queued segment: {seen:?}");
        prop_assert!(seen.rto_sweeps > 0 && seen.retransmits > 0, "{seen:?}");
        prop_assert!(seen.sacked_lost > 0, "no SACK took back lost bytes: {seen:?}");
    }
}
