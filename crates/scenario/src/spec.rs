//! The [`Scenario`] type: one serializable description of an experiment.

use emptcp_energy::DeviceProfile;
use emptcp_faults::spec::{expand, FaultSpec};
use emptcp_faults::FaultPlan;
use emptcp_net::fleet::{FleetConfig, FleetConfigError};
use emptcp_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A complete, self-contained chaos scenario. Everything an experiment
/// needs — topology, client mix, device energy profile, workload and the
/// fault script — in one value that serializes to a `.scenario` JSON file
/// and back without loss.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Stable name: lowercase letters, digits, `-` and `_` only. Doubles
    /// as the CLI handle and the corpus file stem.
    pub name: String,
    /// One-line description for `--list` output.
    pub summary: String,
    /// Root seed for every random draw in the run. CLI `--seed` overrides.
    pub seed: u64,
    /// The world the scenario runs in.
    pub world: World,
    /// Declarative fault script, expanded to a [`FaultPlan`] at run time.
    pub faults: Vec<FaultSpec>,
}

/// Which simulation substrate a scenario drives.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum World {
    /// The single device/server host simulation (`expr::host`): radios,
    /// RRC, the energy meter — the substrate with energy accounting.
    Host(HostSpec),
    /// The many-client fleet over a shared bottleneck (`net::fleet`) —
    /// the substrate with fairness accounting.
    Fleet(FleetConfig),
}

/// The single-device world: good-path capacities, RTTs, one download, a
/// transport strategy and a device energy profile.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// WiFi AP goodput, bps.
    pub wifi_bps: u64,
    /// Cellular (LTE) downlink capacity, bps.
    pub cell_bps: u64,
    /// Base round-trip to the server over WiFi, ms.
    pub wifi_rtt_ms: u64,
    /// Base round-trip to the server over cellular, ms.
    pub cell_rtt_ms: u64,
    /// Download size, bytes. The exact-delivery oracle asserts this many
    /// bytes arrive despite every fault in the script.
    pub transfer_bytes: u64,
    /// The transport strategy under test.
    pub strategy: StrategyKind,
    /// The device whose measured power model the energy meter uses.
    pub device: DeviceKind,
}

/// Serializable handle for the transport strategies the harness knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Standard MPTCP, both subflows always on.
    Mptcp,
    /// eMPTCP with the paper's default controller configuration.
    Emptcp,
    /// Single-path TCP over WiFi.
    TcpWifi,
    /// Single-path TCP over cellular.
    TcpCellular,
    /// MPTCP with WiFi-First path management.
    WifiFirst,
    /// The MDP scheduler of Pluntke et al.
    MdpScheduler,
    /// MPTCP Single-Path mode.
    SinglePath,
}

impl StrategyKind {
    /// Stable lowercase label (matches the `simulate --strategy` names).
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Mptcp => "mptcp",
            StrategyKind::Emptcp => "emptcp",
            StrategyKind::TcpWifi => "tcp-wifi",
            StrategyKind::TcpCellular => "tcp-cellular",
            StrategyKind::WifiFirst => "wifi-first",
            StrategyKind::MdpScheduler => "mdp",
            StrategyKind::SinglePath => "single-path",
        }
    }
}

/// Serializable handle for the measured device energy profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Samsung Galaxy S3 (the paper's primary measurement device).
    GalaxyS3,
    /// LG Nexus 5.
    Nexus5,
}

impl DeviceKind {
    /// The measured power model for this device.
    pub fn profile(self) -> DeviceProfile {
        match self {
            DeviceKind::GalaxyS3 => DeviceProfile::galaxy_s3(),
            DeviceKind::Nexus5 => DeviceProfile::nexus_5(),
        }
    }

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::GalaxyS3 => "galaxy-s3",
            DeviceKind::Nexus5 => "nexus-5",
        }
    }
}

impl Scenario {
    /// Expand the declarative fault script into the injector's plan.
    pub fn fault_plan(&self) -> FaultPlan {
        expand(&self.faults)
    }

    /// Check every validity rule; a scenario that validates is safe to
    /// hand to the runners and entitled to the end-of-run oracles.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::EmptyName);
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
        {
            return Err(ScenarioError::BadName(self.name.clone()));
        }
        match &self.world {
            World::Host(host) => {
                if host.wifi_bps == 0 {
                    return Err(ScenarioError::ZeroCapacityLink("wifi"));
                }
                if host.cell_bps == 0 {
                    return Err(ScenarioError::ZeroCapacityLink("cellular"));
                }
                if host.transfer_bytes == 0 {
                    return Err(ScenarioError::EmptyWorkload);
                }
            }
            World::Fleet(cfg) => cfg.validate()?,
        }
        for fault in &self.faults {
            if !fault.is_well_formed() {
                return Err(ScenarioError::MalformedFault(fault.label()));
            }
        }
        let plan = self.fault_plan();
        if !plan.is_empty() {
            if !plan.restores_nominal() {
                return Err(ScenarioError::UnrecoverableFaults);
            }
            if let World::Fleet(cfg) = &self.world {
                let horizon = SimTime::ZERO + cfg.duration;
                if plan.end_time().is_some_and(|t| t >= horizon) {
                    return Err(ScenarioError::FaultsPastHorizon);
                }
            }
        }
        Ok(())
    }

    /// True when the fleet world is exactly the "do no harm" cell shape:
    /// four MPTCP clients against four TCP clients, LIA-coupled, no cross
    /// traffic, no faults, and access links that cannot themselves be the
    /// bottleneck (each carries at least twice a client's fair share of
    /// the core). Only scenarios of this shape are subject to the
    /// fairness-bounds oracle: with one client a side the split is a
    /// drop-tail phase lock between two flows, not a property of LIA.
    pub fn is_do_no_harm(&self) -> bool {
        let World::Fleet(cfg) = &self.world else {
            return false;
        };
        let fair_share = cfg.bottleneck.rate_bps / 8;
        cfg.clients == 8
            && cfg.mptcp_every == 2
            && cfg.coupled
            && cfg.cross_sources == 0
            && self.faults.is_empty()
            && cfg.access_a.rate_bps >= 2 * fair_share
            && cfg.access_b.rate_bps >= 2 * fair_share
    }

    /// Short world label for reports.
    pub fn world_label(&self) -> &'static str {
        match self.world {
            World::Host(_) => "host",
            World::Fleet(_) => "fleet",
        }
    }
}

/// Why a scenario cannot run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScenarioError {
    /// The name field is empty.
    EmptyName,
    /// The name contains characters outside `[a-z0-9-_]`.
    BadName(String),
    /// A host-world link has zero capacity (payload names it).
    ZeroCapacityLink(&'static str),
    /// The workload moves zero bytes.
    EmptyWorkload,
    /// A fleet-world config failed its own validation.
    Fleet(FleetConfigError),
    /// A fault primitive is structurally degenerate (payload is its label).
    MalformedFault(&'static str),
    /// The fault script leaves the network perturbed at the end — the
    /// recovery oracles would be vacuous, so the scenario is rejected.
    UnrecoverableFaults,
    /// A fleet fault fires at or past the horizon and could never be
    /// observed, let alone recovered from.
    FaultsPastHorizon,
    /// The `.scenario` file was not valid JSON for this schema.
    Parse(String),
}

impl From<FleetConfigError> for ScenarioError {
    fn from(e: FleetConfigError) -> Self {
        ScenarioError::Fleet(e)
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptyName => write!(f, "scenario name is empty"),
            ScenarioError::BadName(name) => {
                write!(
                    f,
                    "scenario name `{name}` has characters outside [a-z0-9-_]"
                )
            }
            ScenarioError::ZeroCapacityLink(which) => {
                write!(f, "host link `{which}` has zero capacity")
            }
            ScenarioError::EmptyWorkload => write!(f, "workload moves zero bytes"),
            ScenarioError::Fleet(e) => write!(f, "{e}"),
            ScenarioError::MalformedFault(label) => {
                write!(f, "fault primitive `{label}` is degenerate (zero extent)")
            }
            ScenarioError::UnrecoverableFaults => {
                write!(f, "fault script never restores the network to nominal")
            }
            ScenarioError::FaultsPastHorizon => {
                write!(f, "a fleet fault fires at or past the run horizon")
            }
            ScenarioError::Parse(detail) => write!(f, "scenario parse error: {detail}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_faults::FaultTarget;

    fn host_scenario() -> Scenario {
        Scenario {
            name: "test-host".to_string(),
            summary: "a test".to_string(),
            seed: 7,
            world: World::Host(HostSpec {
                wifi_bps: 10_000_000,
                cell_bps: 12_000_000,
                wifi_rtt_ms: 25,
                cell_rtt_ms: 60,
                transfer_bytes: 1 << 20,
                strategy: StrategyKind::Emptcp,
                device: DeviceKind::GalaxyS3,
            }),
            faults: vec![FaultSpec::Blackout {
                target: FaultTarget::Wifi,
                from_ms: 1_000,
                dur_ms: 2_000,
            }],
        }
    }

    #[test]
    fn valid_scenario_validates() {
        assert_eq!(host_scenario().validate(), Ok(()));
    }

    #[test]
    fn typed_errors_for_each_rule() {
        let mut s = host_scenario();
        s.name = String::new();
        assert_eq!(s.validate(), Err(ScenarioError::EmptyName));

        let mut s = host_scenario();
        s.name = "Bad Name".to_string();
        assert!(matches!(s.validate(), Err(ScenarioError::BadName(_))));

        let mut s = host_scenario();
        if let World::Host(h) = &mut s.world {
            h.transfer_bytes = 0;
        }
        assert_eq!(s.validate(), Err(ScenarioError::EmptyWorkload));

        let mut s = host_scenario();
        s.faults = vec![FaultSpec::RateStep {
            target: FaultTarget::Wifi,
            at_ms: 500,
            bps: Some(1_000_000),
        }];
        assert_eq!(s.validate(), Err(ScenarioError::UnrecoverableFaults));

        let mut s = host_scenario();
        s.world = World::Fleet(FleetConfig::contended(0, 1));
        assert_eq!(
            s.validate(),
            Err(ScenarioError::Fleet(FleetConfigError::NoClients))
        );
    }

    #[test]
    fn fleet_fault_past_horizon_is_rejected() {
        let mut s = host_scenario();
        let mut cfg = FleetConfig::contended(2, 1);
        cfg.duration = emptcp_sim::SimDuration::from_secs(4);
        s.world = World::Fleet(cfg);
        s.faults = vec![FaultSpec::RttSpike {
            target: FaultTarget::Core,
            from_ms: 3_000,
            dur_ms: 2_000,
            extra_ms: 50,
        }];
        assert_eq!(s.validate(), Err(ScenarioError::FaultsPastHorizon));
    }

    #[test]
    fn do_no_harm_shape_is_detected() {
        let mut s = host_scenario();
        assert!(!s.is_do_no_harm());
        let mut cfg = FleetConfig::do_no_harm_cell(1);
        s.world = World::Fleet(cfg.clone());
        s.faults.clear();
        assert!(s.is_do_no_harm());
        // One client a side is the old phase-locked pair, not the cell.
        cfg.clients = 2;
        s.world = World::Fleet(cfg);
        assert!(!s.is_do_no_harm());
    }
}
