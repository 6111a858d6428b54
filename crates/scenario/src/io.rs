//! `.scenario` files: parse, validate, canonical bytes.
//!
//! A scenario file is the pretty-printed JSON serialization of
//! [`Scenario`] plus a trailing newline — nothing else. That exact byte
//! form is *canonical*: the corpus tests re-serialize every committed file
//! and require identity, so a hand-edited file either round-trips cleanly
//! or fails CI, and two machines always agree on repro bytes.

use crate::spec::{Scenario, ScenarioError};
use std::path::Path;

/// Parse and validate a scenario from `.scenario` JSON text.
pub fn from_json_str(text: &str) -> Result<Scenario, ScenarioError> {
    let scenario: Scenario =
        serde_json::from_str(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
    scenario.validate()?;
    Ok(scenario)
}

/// The canonical byte form: pretty JSON plus a trailing newline.
pub fn to_canonical_json(scenario: &Scenario) -> String {
    let mut body = serde_json::to_string_pretty(scenario).expect("scenario serializes");
    body.push('\n');
    body
}

/// Load and validate a `.scenario` file.
pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Parse(format!("{}: {e}", path.display())))?;
    from_json_str(&text)
}

/// Write a scenario in canonical form.
pub fn save(path: &Path, scenario: &Scenario) -> std::io::Result<()> {
    std::fs::write(path, to_canonical_json(scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{DeviceKind, HostScenario, Workload};
    use crate::spec::{StrategyKind, World};
    use emptcp_faults::spec::FaultSpec;
    use emptcp_faults::FaultTarget;

    fn scenario() -> Scenario {
        Scenario {
            name: "roundtrip".to_string(),
            summary: "io round-trip fixture".to_string(),
            seed: 99,
            world: World::Host {
                strategy: StrategyKind::Mptcp,
                scenario: HostScenario {
                    device: DeviceKind::Nexus5,
                    ..HostScenario::static_bad_wifi().with(Workload::Download { size: 512 << 10 })
                },
                expect: Vec::new(),
            },
            faults: vec![FaultSpec::RttSpike {
                target: FaultTarget::Core,
                from_ms: 1_000,
                dur_ms: 1_500,
                extra_ms: 80,
            }],
        }
    }

    #[test]
    fn canonical_form_round_trips_byte_identically() {
        let s = scenario();
        let bytes = to_canonical_json(&s);
        let back = from_json_str(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(to_canonical_json(&back), bytes);
        assert!(bytes.ends_with('\n'));
    }

    #[test]
    fn invalid_json_is_a_parse_error() {
        assert!(matches!(
            from_json_str("{ not json"),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn valid_json_invalid_scenario_is_a_validation_error() {
        let mut s = scenario();
        if let World::Host { scenario, .. } = &mut s.world {
            scenario.workload = Workload::Download { size: 0 };
        }
        // Serialize without validating, then parse: the parse must apply
        // the validity rules.
        let bytes = to_canonical_json(&s);
        assert_eq!(from_json_str(&bytes), Err(ScenarioError::EmptyWorkload));
    }
}
