//! Chaos certification: run declarative scenarios through the simulators
//! and judge the outcome with end-of-run oracles.
//!
//! This module is the binding layer the `emptcp-scenario` crate
//! deliberately leaves out: it hands a [`Scenario`]'s world, as written, to
//! the host simulation (`host::Simulation`) or the fleet
//! (`net::ShardedFleetSim`), runs it with the telemetry invariant observer
//! attached, and then applies the *end-of-run oracles* — properties that
//! must hold for every valid scenario, not just hand-picked ones:
//!
//! * **exact delivery** — under a recoverable fault script the host
//!   workload still delivers every byte (and every fleet client makes
//!   progress);
//! * **no stuck subflows** — once the last fault clears, no subflow may
//!   still believe its link is down;
//! * **energy conservation** — accumulated energy never decreases and the
//!   radio sub-accounts never exceed the total;
//! * **capacity conservation** — fleet aggregate goodput cannot exceed the
//!   bottleneck;
//! * **fairness bounds** — on do-no-harm topologies the MPTCP/TCP split
//!   stays near fair;
//! * **expectation** — a host run shows the recovery its file says it
//!   must (every [`Expect`] bound exceeded);
//! * **invariant observer** — zero online violations during the run.
//!
//! On top of single runs sit [`fuzz`] (generate → run → oracle → greedy
//! [`emptcp_scenario::shrink`] to a minimal failing `.scenario` repro) and
//! [`replay_corpus`] (every committed scenario, deterministic reports).

use crate::host::{RunResult, Simulation};
use emptcp_faults::plan;
use emptcp_net::{FleetConfig, ShardedFleetSim};
use emptcp_scenario::gen::generate;
use emptcp_scenario::io::save;
use emptcp_scenario::shrink::shrink;
use emptcp_scenario::{
    corpus, Expect, HostScenario, Measure, Scenario, ScenarioError, StrategyKind, World,
};
use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::{InvariantObserver, Telemetry};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The oracle a `--sabotage-oracle` run deliberately breaks, to prove the
/// fuzz → shrink → repro pipeline catches real regressions.
pub const SABOTAGE_DELIVERY: &str = "delivery";

/// One failed end-of-run oracle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OracleViolation {
    /// Oracle name (`exact_delivery`, `no_stuck_subflows`, ...).
    pub oracle: String,
    /// Human-readable evidence.
    pub detail: String,
}

/// Everything a chaos run reports about one scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Scenario name.
    pub scenario: String,
    /// `host` or `fleet`.
    pub world: String,
    /// Seed the run used.
    pub seed: u64,
    /// Fault events the injector applied.
    pub faults_injected: u64,
    /// Host worlds: workload bytes delivered. Fleet worlds: 0.
    pub bytes_delivered: u64,
    /// Fleet worlds: aggregate goodput, Mbps. Host worlds: 0.
    pub aggregate_mbps: f64,
    /// Online invariant violations recorded during the run.
    pub invariant_violations: u64,
    /// Host worlds whose file expects goodput: the run against its
    /// fault-free baseline. Otherwise `None`.
    pub resilience: Option<Resilience>,
    /// Every end-of-run oracle that failed (empty = certified).
    pub violations: Vec<OracleViolation>,
}

/// A faulted host run beside the same seed's fault-free run, and how it
/// recovered.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Resilience {
    /// The faulted run finished before the horizon.
    pub completed: bool,
    /// Completion time under faults (s).
    pub faulted_time_s: f64,
    /// Fault-free completion time (s).
    pub baseline_time_s: f64,
    /// Faulted goodput as a fraction of fault-free goodput.
    pub goodput_retained: f64,
    /// Energy under faults, drain included (J).
    pub faulted_energy_j: f64,
    /// Fault-free energy (J).
    pub baseline_energy_j: f64,
    /// Extra energy the faults cost (J; negative when a fault ends a
    /// radio tail early).
    pub energy_overhead_j: f64,
    /// Link-down notifications the stack received (both ends).
    pub link_down_events: u64,
    /// Subflows declared dead by the consecutive-RTO detector.
    pub subflow_failures: u64,
    /// Backup subflows promoted into service.
    pub backup_promotions: u64,
    /// Dead subflows that came back.
    pub subflow_revivals: u64,
    /// Data-level bytes queued for reinjection on surviving subflows.
    pub bytes_reinjected: u64,
    /// Worst failure-to-progress latency (s; 0 when nothing failed).
    pub worst_recovery_latency_s: f64,
}

impl ChaosReport {
    /// True when every oracle passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run one scenario and judge it. The scenario's own seed drives every
/// random draw; callers override by editing the scenario first.
/// `sabotage` deliberately mis-wires the named oracle (see
/// [`SABOTAGE_DELIVERY`]) so the shrinking pipeline can be exercised
/// end-to-end against a known-bad judgement.
pub fn run_scenario(sc: &Scenario, sabotage: Option<&str>) -> Result<ChaosReport, ScenarioError> {
    run_traced(sc, sabotage, Telemetry::builder().invariants(true).build())
}

/// [`run_scenario`] reporting through `telemetry`, which must have the
/// invariant observer on: a trace sink attached to it records the judged
/// run (a fault-free baseline runs uninstrumented, before it).
pub fn run_traced(
    sc: &Scenario,
    sabotage: Option<&str>,
    telemetry: Telemetry,
) -> Result<ChaosReport, ScenarioError> {
    sc.validate()?;
    let sabotage_delivery = sabotage == Some(SABOTAGE_DELIVERY);
    match &sc.world {
        World::Host {
            strategy,
            scenario,
            expect,
        } => Ok(run_host(
            sc,
            *strategy,
            scenario,
            expect,
            sabotage_delivery,
            telemetry,
        )),
        World::Fleet(cfg) => run_fleet(sc, cfg, sabotage_delivery, telemetry),
    }
}

fn run_host(
    sc: &Scenario,
    strategy: StrategyKind,
    host: &HostScenario,
    expect: &[Expect],
    sabotage_delivery: bool,
    telemetry: Telemetry,
) -> ChaosReport {
    let baseline = expect
        .iter()
        .any(|e| e.measure == Measure::GoodputRetained)
        .then(|| {
            Simulation::new_with_telemetry(
                host.clone(),
                strategy.into(),
                sc.seed,
                Telemetry::disabled(),
            )
            .run()
        });
    let mut sim =
        Simulation::new_with_telemetry(host.clone(), strategy.into(), sc.seed, telemetry.clone());
    sim.attach_faults(&sc.faults);
    let r = sim.run();
    let invariant_violations = telemetry.violations().len() as u64;
    let resilience = baseline.map(|b| resilience(&r, &b));

    let at = SimTime::ZERO + SimDuration::from_secs_f64(r.download_time_s);
    let mut obs = InvariantObserver::new();

    // Exact delivery: every recoverable script still lands every byte the
    // workload owes (a clocked or paged workload owes completion only).
    // A sabotaged run pretends one extra byte was owed whenever faults
    // fired, emulating an oracle/recovery regression for the shrinker.
    if let Some(owed) = host.workload.owed_bytes() {
        let sabotaged = sabotage_delivery && r.faults_injected > 0;
        obs.check_exact_delivery(at, &sc.name, r.bytes_delivered, owed + u64::from(sabotaged));
    }
    obs.check(at, "exact_delivery", r.completed, || {
        format!("{}: transfer did not complete before the horizon", sc.name)
    });

    // No stuck subflows once the network is back to nominal. A host run
    // ends as soon as the workload completes with the radio idle, which
    // can be before a restore fires: the link is then legitimately down.
    let all_fired = r.faults_injected as usize == plan::expand(&sc.faults).len();
    if all_fired && plan::restores_nominal(&sc.faults) {
        obs.check_no_stuck_subflows(at, &sc.name, r.stuck_subflows);
    }

    // Energy accounting conserves.
    obs.check_energy_conservation(at, &sc.name, r.promo_energy_j + r.tail_energy_j, r.energy_j);
    obs.check(
        at,
        "energy_conservation",
        r.energy_at_completion_j <= r.energy_j + 1e-9,
        || {
            format!(
                "{}: energy at completion {} J exceeds final total {} J",
                sc.name, r.energy_at_completion_j, r.energy_j
            )
        },
    );
    let mut prev = 0.0_f64;
    for &(t, joules) in r.energy_trace.points() {
        obs.check_energy_monotone(t, prev, joules);
        if joules < prev - 1e-9 {
            break; // one violation is evidence enough
        }
        prev = joules;
    }

    // The recovery the file says the run must show.
    for e in expect {
        let value = match e.measure {
            Measure::FaultsInjected => r.faults_injected as f64,
            Measure::LinkDownEvents => r.link_down_events as f64,
            Measure::SubflowFailures => r.subflow_failures as f64,
            Measure::SubflowRevivals => r.subflow_revivals as f64,
            Measure::BytesReinjected => r.bytes_reinjected as f64,
            Measure::WorstRecoveryLatency => r.worst_recovery_latency_s,
            Measure::GoodputRetained => resilience.as_ref().map_or(0.0, |s| s.goodput_retained),
        };
        obs.check(at, "expectation", value > e.above, || {
            format!(
                "{}: {} must exceed {}, measured {value}",
                sc.name,
                e.measure.label(),
                e.above
            )
        });
    }

    ChaosReport {
        faults_injected: r.faults_injected,
        bytes_delivered: r.bytes_delivered,
        resilience,
        ..judged(sc, at, obs, invariant_violations)
    }
}

/// The faulted run `r` measured against its fault-free baseline `b`.
fn resilience(r: &RunResult, b: &RunResult) -> Resilience {
    let goodput = |bytes: u64, secs: f64| bytes as f64 / secs.max(1e-9);
    let base_goodput = goodput(b.bytes_delivered, b.download_time_s);
    let fault_goodput = goodput(r.bytes_delivered, r.download_time_s);
    Resilience {
        completed: r.completed,
        faulted_time_s: r.download_time_s,
        baseline_time_s: b.download_time_s,
        goodput_retained: if base_goodput > 0.0 {
            fault_goodput / base_goodput
        } else {
            0.0
        },
        faulted_energy_j: r.energy_j,
        baseline_energy_j: b.energy_j,
        energy_overhead_j: r.energy_j - b.energy_j,
        link_down_events: r.link_down_events,
        subflow_failures: r.subflow_failures,
        backup_promotions: r.backup_promotions,
        subflow_revivals: r.subflow_revivals,
        bytes_reinjected: r.bytes_reinjected,
        worst_recovery_latency_s: r.worst_recovery_latency_s,
    }
}

/// The last oracle — the online observer must have stayed silent through
/// the run — and the verdict on everything `obs` was shown; the caller
/// fills in what its world measured.
fn judged(
    sc: &Scenario,
    at: SimTime,
    mut obs: InvariantObserver,
    invariant_violations: u64,
) -> ChaosReport {
    obs.check(at, "invariant_observer", invariant_violations == 0, || {
        format!(
            "{}: {} online invariant violation(s) during the run",
            sc.name, invariant_violations
        )
    });
    ChaosReport {
        scenario: sc.name.clone(),
        world: sc.world_label().to_string(),
        seed: sc.seed,
        faults_injected: 0,
        bytes_delivered: 0,
        aggregate_mbps: 0.0,
        invariant_violations,
        resilience: None,
        violations: obs
            .take_violations()
            .into_iter()
            .map(|v| OracleViolation {
                oracle: v.name.to_string(),
                detail: v.detail,
            })
            .collect(),
    }
}

fn run_fleet(
    sc: &Scenario,
    cfg: &FleetConfig,
    sabotage_delivery: bool,
    telemetry: Telemetry,
) -> Result<ChaosReport, ScenarioError> {
    let mut cfg = cfg.clone();
    cfg.seed = sc.seed;
    let mut sim = ShardedFleetSim::try_new_with_telemetry(cfg.clone(), 1, telemetry.clone())?;
    sim.attach_faults(&sc.faults);
    let r = sim.run();
    let invariant_violations = telemetry.violations().len() as u64;

    let at = SimTime::ZERO + cfg.duration;
    let mut obs = InvariantObserver::new();

    // Every client makes progress — the fleet analogue of exact delivery.
    // Sabotage pretends one extra client was owed progress when faults
    // fired (see `run_host`).
    let progressed = r.per_client_mbps.iter().filter(|&&m| m > 0.0).count() as u64;
    let owed = if sabotage_delivery && r.faults_injected > 0 {
        cfg.clients as u64 + 1
    } else {
        cfg.clients as u64
    };
    obs.check_exact_delivery(at, &sc.name, progressed, owed);

    // Aggregate goodput cannot exceed the shared bottleneck.
    let cap_mbps = cfg.bottleneck.rate_bps as f64 / 1e6;
    obs.check(
        at,
        "capacity_conservation",
        r.aggregate_mbps <= cap_mbps * 1.05,
        || {
            format!(
                "{}: aggregate {:.2} Mbps exceeds the {:.2} Mbps bottleneck",
                sc.name, r.aggregate_mbps, cap_mbps
            )
        },
    );

    // The do-no-harm shape is entitled to the fairness oracle.
    if sc.is_do_no_harm() {
        obs.check_fairness_bounds(at, &sc.name, r.mptcp_tcp_ratio, 0.5, 1.6);
    }

    Ok(ChaosReport {
        faults_injected: r.faults_injected,
        aggregate_mbps: r.aggregate_mbps,
        ..judged(sc, at, obs, invariant_violations)
    })
}

/// One fuzz case that failed its oracles, with the shrunk minimal repro.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FuzzFailure {
    /// Case index within the fuzz run.
    pub case: u64,
    /// Name of the generated scenario that failed.
    pub scenario: String,
    /// The oracles it failed.
    pub violations: Vec<OracleViolation>,
    /// Fault primitives left after shrinking.
    pub shrunk_faults: usize,
    /// Clients left after shrinking (1 for host worlds).
    pub shrunk_clients: usize,
    /// Where the minimal `.scenario` repro was written (when a repro dir
    /// was given).
    pub repro_path: Option<String>,
}

/// Outcome of a whole fuzz run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FuzzOutcome {
    /// Root seed of the run.
    pub seed: u64,
    /// Cases generated and executed.
    pub cases: u64,
    /// Every case that failed an oracle (empty = certified).
    pub failures: Vec<FuzzFailure>,
}

/// Generate `cases` arbitrary-but-valid scenarios from `run_seed`, run
/// each through the oracles (one [`crate::runner::par_map`]), and shrink
/// every failure to a minimal `.scenario` repro in `repro_dir`.
pub fn fuzz(
    run_seed: u64,
    cases: u64,
    sabotage: Option<&str>,
    repro_dir: Option<&Path>,
) -> std::io::Result<FuzzOutcome> {
    let reports = crate::runner::par_map(cases as usize, |i| {
        let sc = generate(run_seed, i as u64);
        let report = run_scenario(&sc, sabotage).expect("generated scenarios validate");
        (sc, report)
    });

    let mut failures = Vec::new();
    for (case, (sc, report)) in reports.into_iter().enumerate() {
        if report.ok() {
            continue;
        }
        // Shrink while the failure reproduces.
        let mut min = shrink(sc.clone(), |cand| {
            run_scenario(cand, sabotage)
                .map(|r| !r.ok())
                .unwrap_or(false)
        });
        min.name = format!("{}-min", sc.name);
        min.summary = format!("shrunk repro of fuzz case {case} (seed {run_seed})");
        let repro_path = match repro_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("{}.scenario", min.name));
                save(&path, &min)?;
                Some(path.display().to_string())
            }
            None => None,
        };
        let shrunk_clients = match &min.world {
            World::Fleet(c) => c.clients,
            World::Host { .. } => 1,
        };
        failures.push(FuzzFailure {
            case: case as u64,
            scenario: sc.name.clone(),
            violations: report.violations.clone(),
            shrunk_faults: min.faults.len(),
            shrunk_clients,
            repro_path,
        });
    }
    Ok(FuzzOutcome {
        seed: run_seed,
        cases,
        failures,
    })
}

/// Replay the whole committed corpus (one [`crate::runner::par_map`])
/// and, when `out_dir` is given, write one deterministic
/// `<name>.report.json` per scenario. The reports are byte-identical for
/// any `--jobs` value: each depends only on its scenario.
pub fn replay_corpus(out_dir: Option<&Path>) -> std::io::Result<Vec<ChaosReport>> {
    let names = corpus::names();
    let reports = crate::runner::par_map(names.len(), |i| {
        let sc = corpus::load(names[i]).expect("corpus scenario loads");
        run_scenario(&sc, None).expect("corpus scenario runs")
    });
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
        for report in &reports {
            let path = dir.join(format!("{}.report.json", report.scenario));
            std::fs::write(path, report_json(report))?;
        }
    }
    Ok(reports)
}

/// Load a `.scenario` file, run it, and judge it — the `--file --check`
/// replay path for shrunk repros.
pub fn run_file(path: &Path, sabotage: Option<&str>) -> Result<ChaosReport, ScenarioError> {
    let sc = emptcp_scenario::io::load(path)?;
    run_scenario(&sc, sabotage)
}

/// Canonical JSON body (pretty + trailing newline) for CLI `--json`.
pub fn report_json(report: &ChaosReport) -> String {
    let mut body = serde_json::to_string_pretty(report).expect("chaos report serializes");
    body.push('\n');
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_host_scenario_certifies() {
        let sc = corpus::load("cafe-hotspot").unwrap();
        let report = run_scenario(&sc, None).unwrap();
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.faults_injected > 0);
        assert!(report.bytes_delivered > 0);
    }

    #[test]
    fn a_clean_fleet_scenario_certifies() {
        let sc = corpus::load("fleet-lossy-core").unwrap();
        let report = run_scenario(&sc, None).unwrap();
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.world, "fleet");
        assert!(report.aggregate_mbps > 0.0);
    }

    #[test]
    fn sabotaged_delivery_oracle_fails_faulted_runs_only() {
        let faulted = corpus::load("cafe-hotspot").unwrap();
        let report = run_scenario(&faulted, Some(SABOTAGE_DELIVERY)).unwrap();
        assert!(!report.ok(), "sabotage must trip on a faulted run");
        assert_eq!(report.violations[0].oracle, "exact_delivery");

        let calm = corpus::load("fleet-uncoupled-pair").unwrap();
        let report = run_scenario(&calm, Some(SABOTAGE_DELIVERY)).unwrap();
        assert!(report.ok(), "sabotage only bites when faults fired");
    }

    #[test]
    fn an_invalid_scenario_is_rejected_before_running() {
        let mut sc = corpus::load("cafe-hotspot").unwrap();
        sc.name = String::new();
        assert_eq!(
            run_scenario(&sc, None).unwrap_err(),
            ScenarioError::EmptyName
        );
    }
}
