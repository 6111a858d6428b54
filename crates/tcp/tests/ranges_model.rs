//! The flat range set against the `BTreeMap` it replaced: any sequence of
//! overlapping, touching, covered, empty and out-of-order inserts,
//! interleaved with in-order drains and SACK-cursor walks, holds the same
//! ranges, counts the same ranges and bytes, and answers every drain and
//! every cursor alike.

#[path = "ranges_model/model.rs"]
mod model;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_flat_set_holds_what_the_tree_held(seed in 0u64..u64::MAX) {
        let (merges, pops) = model::check(seed, 600);
        prop_assert!(merges > 0, "no insert ever merged two held ranges");
        prop_assert!(pops > 0, "nothing was ever drained in order");
    }
}
