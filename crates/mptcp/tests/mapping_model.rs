//! The run-length mapping tables and the coalesced reorder set against
//! the per-entry tables they replaced: any sequence of pushes (sub-MSS and
//! window-limited ones included), cumulative-ACK advances, and duplicate,
//! reordered and late DSS options gets the same DSS for every outgoing
//! segment, the same reinjection chunks element for element, and the same
//! bytes out of every translation and every `receive`.

#[path = "mapping_model/model.rs"]
mod model;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tx_runs_answer_like_the_per_push_table(seed in 0u64..u64::MAX) {
        let (pushes, high_water) = model::check_tx(seed, 400);
        // Bursts really do collapse: far fewer runs than pushes.
        prop_assert!(high_water * 2 < pushes, "{high_water} runs for {pushes} pushes");
    }

    #[test]
    fn rx_runs_translate_like_the_per_segment_table(seed in 0u64..u64::MAX) {
        let (learned, high_water) = model::check_rx(seed, 400);
        prop_assert!(high_water * 2 < learned, "{high_water} runs for {learned} options");
    }

    #[test]
    fn the_reorder_set_delivers_like_a_byte_set(seed in 0u64..u64::MAX) {
        model::check_reassembly(seed, 300);
    }
}
