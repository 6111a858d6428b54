//! The flat send queue against the `BTreeMap` it replaced: any
//! interleaving of sends, cumulative ACKs (some landing mid-segment), SACK
//! marking, RTO sweeps, handshake removal and out-of-order re-recording
//! pops the same segments in the same order and answers every lookup,
//! range and iteration alike.

#[path = "sendq_model/model.rs"]
mod model;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_queue_answers_like_the_tree(seed in 0u64..u64::MAX) {
        let (acked, straddled) = model::check(seed, 600);
        prop_assert!(acked > 0, "no segment was ever acknowledged");
        prop_assert!(straddled > 0, "no ACK ever landed mid-segment");
    }
}
