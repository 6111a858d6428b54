//! The committed scenario corpus, embedded at compile time.
//!
//! Every `scenarios/*.scenario` file at the repo root is compiled into the
//! binary with `include_str!`, so the corpus is available from any working
//! directory and a scenario file cannot drift from the code without a
//! rebuild noticing. The table below is the single registry: adding a file
//! means adding a row, and the `corpus_is_sorted_and_canonical` test pins
//! the name order and the canonical byte form of every entry.

use crate::spec::Scenario;

macro_rules! corpus_file {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!("../../../scenarios/", $name, ".scenario")),
        )
    };
}

/// `(name, canonical bytes)` for every committed scenario, sorted by name.
pub const FILES: &[(&str, &str)] = &[
    corpus_file!("ap-vanish"),
    corpus_file!("bandwidth-flips"),
    corpus_file!("burst-loss-storm"),
    corpus_file!("cafe-hotspot"),
    corpus_file!("commuter-train"),
    corpus_file!("congested_core"),
    corpus_file!("do-no-harm-cell"),
    corpus_file!("elevator-ride"),
    corpus_file!("flappy-wifi"),
    corpus_file!("fleet-contended"),
    corpus_file!("fleet-core-brownout"),
    corpus_file!("fleet-lossy-core"),
    corpus_file!("fleet-mptcp-heavy"),
    corpus_file!("fleet-rush-hour"),
    corpus_file!("fleet-small-office"),
    corpus_file!("fleet-uncoupled-pair"),
    corpus_file!("handover-walk"),
    corpus_file!("lte-tunnel"),
    corpus_file!("midnight-update"),
    corpus_file!("parking-garage"),
    corpus_file!("regression-early-finish-flap"),
    corpus_file!("regression-energy-monotone"),
    corpus_file!("regression-stuck-subflow"),
    corpus_file!("weak-ap-strong-lte"),
];

/// Sorted names of every corpus scenario.
pub fn names() -> Vec<&'static str> {
    FILES.iter().map(|(n, _)| *n).collect()
}

/// Raw canonical bytes of a corpus scenario.
pub fn raw(name: &str) -> Option<&'static str> {
    FILES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
}

/// Parse and validate one corpus scenario by name.
pub fn load(name: &str) -> Option<Scenario> {
    raw(name).map(|text| {
        crate::io::from_json_str(text)
            .unwrap_or_else(|e| panic!("corpus scenario `{name}` is invalid: {e}"))
    })
}

/// Parse and validate the whole corpus, in name order.
pub fn all() -> Vec<Scenario> {
    names()
        .into_iter()
        .map(|n| load(n).expect("listed name loads"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::to_canonical_json;

    #[test]
    fn corpus_is_sorted_and_canonical() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "corpus table must be sorted by name");
        assert!(names.len() >= 20, "corpus must stay at 20+ scenarios");

        for (name, text) in FILES {
            let sc = load(name).unwrap();
            assert_eq!(&sc.name, name, "file stem must equal the scenario name");
            assert_eq!(
                to_canonical_json(&sc),
                *text,
                "{name}.scenario is not in canonical form"
            );
        }
    }

    #[test]
    fn corpus_covers_both_worlds_and_fault_shapes() {
        let all = all();
        assert!(all.iter().any(|s| s.world_label() == "host"));
        assert!(all.iter().any(|s| s.world_label() == "fleet"));
        assert!(all.iter().any(|s| !s.faults.is_empty()));
        assert!(all.iter().any(|s| s.is_do_no_harm()));
    }
}
