//! The [`Scenario`] type: one serializable description of an experiment.

use crate::host::HostScenario;
use emptcp_faults::{plan, FaultSpec, FaultTarget};
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
    /// Declarative fault script, expanded to timestamped events at run
    /// time ([`emptcp_faults::plan::expand`]).
    pub faults: Vec<FaultSpec>,
}

/// Which simulation substrate a scenario drives.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum World {
    /// The single device/server host simulation (`expr::host`): radios,
    /// RRC, the energy meter — the substrate with energy accounting.
    Host {
        /// The transport strategy under test.
        strategy: StrategyKind,
        /// The experiment, exactly as `host::Simulation` runs it. The
        /// exact-delivery oracle asserts its workload's bytes arrive
        /// despite every fault in the script.
        scenario: HostScenario,
        /// The recovery the run must show, judged by the `expectation`
        /// oracle; empty for a file that asks only the common oracles.
        expect: Vec<Expect>,
    },
    /// The many-client fleet over a shared bottleneck (`net::fleet`) —
    /// the substrate with fairness accounting.
    Fleet(FleetConfig),
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
    /// Every strategy, in `simulate --list-strategies` order.
    pub const ALL: [StrategyKind; 7] = [
        StrategyKind::Mptcp,
        StrategyKind::Emptcp,
        StrategyKind::TcpWifi,
        StrategyKind::TcpCellular,
        StrategyKind::WifiFirst,
        StrategyKind::MdpScheduler,
        StrategyKind::SinglePath,
    ];

    /// Stable lowercase label: the `simulate --strategy` names.
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

/// A strict lower bound on one measure of a host run: the run passes when
/// the measured value exceeds `above`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Expect {
    /// What is measured.
    pub measure: Measure,
    /// The value it must exceed.
    pub above: f64,
}

/// The run measures an [`Expect`] can bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Measure {
    /// Fault events the injector applied.
    FaultsInjected,
    /// Link-down notifications the stack received (both ends).
    LinkDownEvents,
    /// Subflows declared dead by the consecutive-RTO detector.
    SubflowFailures,
    /// Dead subflows that came back.
    SubflowRevivals,
    /// Data-level bytes queued for reinjection on surviving subflows.
    BytesReinjected,
    /// Worst failure-to-progress latency, seconds.
    WorstRecoveryLatency,
    /// Faulted goodput as a fraction of the same seed's fault-free run;
    /// naming it makes the judge run that baseline too.
    GoodputRetained,
}

impl Measure {
    /// Stable snake-case name, as reports print it.
    pub fn label(self) -> &'static str {
        match self {
            Measure::FaultsInjected => "faults_injected",
            Measure::LinkDownEvents => "link_down_events",
            Measure::SubflowFailures => "subflow_failures",
            Measure::SubflowRevivals => "subflow_revivals",
            Measure::BytesReinjected => "bytes_reinjected",
            Measure::WorstRecoveryLatency => "worst_recovery_latency_s",
            Measure::GoodputRetained => "goodput_retained",
        }
    }
}

impl Scenario {
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
            World::Host {
                scenario, expect, ..
            } => {
                scenario.validate()?;
                if let Some(e) = expect.iter().find(|e| !e.above.is_finite()) {
                    return Err(ScenarioError::NonFiniteBound(e.measure.label()));
                }
            }
            World::Fleet(cfg) => cfg.validate()?,
        }
        for fault in &self.faults {
            if !fault.is_well_formed() {
                return Err(ScenarioError::MalformedFault(fault.label()));
            }
            if matches!(self.world, World::Fleet(_)) && fault.target() != FaultTarget::Core {
                return Err(ScenarioError::FleetFaultOffCore(fault.label()));
            }
        }
        if !plan::restores_nominal(&self.faults) {
            return Err(ScenarioError::UnrecoverableFaults);
        }
        if let World::Fleet(cfg) = &self.world {
            let horizon = SimTime::ZERO + cfg.duration;
            if plan::end_time(&self.faults).is_some_and(|t| t >= horizon) {
                return Err(ScenarioError::FaultsPastHorizon);
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
            World::Host { .. } => "host",
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
    /// A rate or holding time that is not a positive finite number
    /// (payload names the field).
    BadRate(&'static str),
    /// More interfering stations than [`crate::host::MAX_INTERFERERS`].
    TooManyInterferers(usize),
    /// A mobility route with no waypoint or non-increasing timestamps.
    BadRoute,
    /// A WiFi outage window that ends before it starts.
    ReversedOutage,
    /// The host world's cellular radio is declared as WiFi.
    WifiAsCellular,
    /// A host-world time that must be positive is zero (payload names the
    /// field: the `horizon`, a streaming `interval`).
    ZeroDuration(&'static str),
    /// An expectation's bound is not a finite number (payload names its
    /// measure).
    NonFiniteBound(&'static str),
    /// A fleet-world config failed its own validation.
    Fleet(FleetConfigError),
    /// A fault primitive is structurally degenerate (payload is its label).
    MalformedFault(&'static str),
    /// A fleet-world fault hits an access path — a `Wifi` or `Cellular`
    /// target, or a handover or RRC stall — where the fleet has only the
    /// core bottleneck to apply it to (payload is its label).
    FleetFaultOffCore(&'static str),
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
            ScenarioError::BadRate(field) => {
                write!(f, "`{field}` must be a positive finite number")
            }
            ScenarioError::TooManyInterferers(n) => write!(f, "{n} interfering stations"),
            ScenarioError::BadRoute => {
                write!(
                    f,
                    "mobility route needs waypoints at strictly increasing times"
                )
            }
            ScenarioError::ReversedOutage => write!(f, "wifi outage ends before it starts"),
            ScenarioError::WifiAsCellular => write!(f, "`cell_kind` must be a cellular radio"),
            ScenarioError::ZeroDuration(field) => write!(f, "`{field}` is zero"),
            ScenarioError::NonFiniteBound(measure) => {
                write!(f, "the bound on `{measure}` is not a finite number")
            }
            ScenarioError::Fleet(e) => write!(f, "{e}"),
            ScenarioError::MalformedFault(label) => {
                write!(f, "fault primitive `{label}` is degenerate (zero extent)")
            }
            ScenarioError::FleetFaultOffCore(label) => write!(
                f,
                "fault primitive `{label}` targets an access path; a fleet world applies faults to `Core` only"
            ),
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
    use crate::host::Workload;
    use emptcp_faults::FaultTarget;
    use emptcp_sim::SimDuration;

    fn host_scenario() -> Scenario {
        Scenario {
            name: "test-host".to_string(),
            summary: "a test".to_string(),
            seed: 7,
            world: World::Host {
                strategy: StrategyKind::Emptcp,
                scenario: HostScenario::static_good_wifi()
                    .with(Workload::Download { size: 1 << 20 }),
                expect: vec![Expect {
                    measure: Measure::FaultsInjected,
                    above: 0.0,
                }],
            },
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

    /// One case per host-world rule, each through the file format (what a
    /// parse validates). Nothing here may panic, whatever the text says.
    #[test]
    fn a_host_file_that_cannot_run_fails_with_its_typed_error() {
        use crate::host::WifiEnvironment::*;
        use ScenarioError::*;
        type Edit<'a> = &'a dyn Fn(&mut HostScenario);
        let parse = |edit: Edit| {
            let mut s = host_scenario();
            if let World::Host { scenario, .. } = &mut s.world {
                edit(scenario);
            }
            crate::io::from_json_str(&serde_json::to_string(&s).unwrap()).map(|_| ())
        };
        let stream = |chunk_bytes, interval| Workload::Streaming {
            chunk_bytes,
            interval,
            duration: SimDuration::from_secs(9),
        };
        let outage = |bps, from, to| StaticWithOutage {
            bps,
            outage_start: SimTime::from_secs(from),
            outage_end: SimTime::from_secs(to),
        };
        let (start_high, n) = (true, 2);
        #[rustfmt::skip]
        let cases: [(Edit, ScenarioError); 14] = [
            (&|h| h.wifi = Static { bps: 0 }, ZeroCapacityLink("wifi")),
            (&|h| h.wifi = Contended { bps: 0, n, lambda_off: 0.1 }, ZeroCapacityLink("wifi")),
            (&|h| h.wifi = Contended { bps: 9, n, lambda_off: -0.1 }, BadRate("lambda_off")),
            (&|h| h.wifi = Contended { bps: 9, n: 257, lambda_off: 0.1 }, TooManyInterferers(257)),
            (&|h| h.wifi = Modulated { mean_hold_s: 0.0, start_high }, BadRate("mean_hold_s")),
            (&|h| h.wifi = outage(0, 1, 2), ZeroCapacityLink("wifi")),
            (&|h| h.wifi = outage(9, 2, 1), ReversedOutage),
            (&|h| h.cell_bps = 0, ZeroCapacityLink("cellular")),
            (&|h| h.cell_kind = emptcp_phy::IfaceKind::Wifi, WifiAsCellular),
            (&|h| h.horizon = SimTime::ZERO, ZeroDuration("horizon")),
            (&|h| h.workload = Workload::Download { size: 0 }, EmptyWorkload),
            (&|h| h.workload = Workload::Upload { size: 0 }, EmptyWorkload),
            (&|h| h.workload = stream(0, SimDuration::from_secs(1)), EmptyWorkload),
            (&|h| h.workload = stream(1, SimDuration::ZERO), ZeroDuration("interval")),
        ];
        assert_eq!(parse(&|_| {}), Ok(()));
        for (edit, expected) in cases {
            assert_eq!(parse(edit), Err(expected));
        }
        // A route no constructor would build, and a bound too large for an
        // `f64`, exist only as text.
        let p = r#"{"x":1.0,"y":1.0}"#;
        assert_eq!(parse_walk(&format!("[0,{p}],[5,{p}]")), Ok(()));
        assert_eq!(parse_walk(&format!("[5,{p}],[5,{p}]")), Err(BadRoute));
        assert_eq!(parse_walk(""), Err(BadRoute));
        let infinite = r#""above":1e999"#;
        assert_eq!(
            parse_edited(r#""above":0.0"#, infinite),
            Err(NonFiniteBound("faults_injected"))
        );
    }

    /// The fixture file with its WiFi environment replaced by a walk over
    /// `waypoints` (JSON array elements), parsed back.
    fn parse_walk(waypoints: &str) -> Result<(), ScenarioError> {
        let model = format!(
            r#"{{"route":{{"waypoints":[{waypoints}]}},"ap":{{"x":0.0,"y":0.0}},"adaptation":{{"tiers":[],"mac_efficiency":0.5,"out_of_range_bps":1,"silence_distance_m":9.0}}}}"#
        );
        parse_edited(
            r#""wifi":{"Static":{"bps":11000000}}"#,
            &format!(r#""wifi":{{"Mobile":{{"model":{model}}}}}"#),
        )
    }

    /// The fixture file with the text `said` replaced by `edit`, parsed.
    fn parse_edited(said: &str, edit: &str) -> Result<(), ScenarioError> {
        let text = serde_json::to_string(&host_scenario()).unwrap();
        assert!(text.contains(said), "fixture no longer says {said}");
        crate::io::from_json_str(&text.replace(said, edit)).map(|_| ())
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

    /// A fleet has only the core bottleneck to hit: a fault on an access
    /// path, named or implied, is refused with the primitive's label.
    #[test]
    fn fleet_fault_off_core_is_rejected() {
        let mut s = host_scenario();
        s.world = World::Fleet(FleetConfig::contended(2, 1));
        let spike = |target| FaultSpec::RttSpike {
            target,
            from_ms: 1_000,
            dur_ms: 500,
            extra_ms: 50,
        };
        let handover = FaultSpec::Handover {
            at_ms: 1_000,
            gap_ms: 500,
        };
        let stall = FaultSpec::RrcStall {
            at_ms: 1_000,
            dur_ms: 500,
            extra_ms: 50,
        };
        for fault in [
            spike(FaultTarget::Wifi),
            spike(FaultTarget::Cellular),
            handover,
            stall,
        ] {
            let label = fault.label();
            s.faults = vec![spike(FaultTarget::Core), fault];
            assert_eq!(s.validate(), Err(ScenarioError::FleetFaultOffCore(label)));
        }
        s.faults = vec![spike(FaultTarget::Core)];
        assert_eq!(s.validate(), Ok(()));
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
