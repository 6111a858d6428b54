//! Fault scenarios bound to the full host simulation.
//!
//! The committed corpus defines *what* goes wrong: each name in [`NAMES`]
//! is a `scenarios/<name>.scenario` file whose fault script expands to a
//! [`FaultPlan`] and whose host world names the strategy it exercises.
//! This module defines *how it is measured*: each named
//! scenario is run twice with the same seed — once fault-free as the
//! baseline, once with the plan attached — and the two runs are folded
//! into a [`ResilienceReport`]: goodput retained, recovery latency, bytes
//! reinjected, and the energy cost of surviving the fault. The online
//! invariant observer rides along on the faulted run, so a report also
//! certifies that the byte stream survived intact.
//!
//! [`FaultPlan`]: emptcp_faults::FaultPlan

use crate::host::Simulation;
use crate::strategy::Strategy;
use emptcp_scenario::{corpus, World};
use emptcp_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// Sorted names of the fault library: the corpus scenarios whose scripts
/// assume a transfer that starts at t = 0 and is still in flight through
/// the first ~20 s, which the 16 MiB download over good static WiFi and
/// LTE their files declare guarantees — large enough that every fault
/// window lands mid-transfer, small enough for CI, and quiet enough that
/// every slowdown and recovery in the report is the injected faults'.
/// Each file also names the strategy it exercises: cellular-side faults
/// and a congested core name plain MPTCP, which has a cellular subflow up
/// *before* the fault hits; WiFi-side faults name eMPTCP, whose controller
/// normally keeps cellular asleep and must wake it to recover.
pub const NAMES: [&str; 6] = [
    "ap-vanish",
    "burst-loss-storm",
    "congested_core",
    "flappy-wifi",
    "handover-walk",
    "lte-tunnel",
];

/// A library scenario as its committed corpus file declares it, or `None`
/// for a name outside the library.
pub fn load(name: &str) -> Option<emptcp_scenario::Scenario> {
    NAMES.contains(&name).then(|| corpus::load(name)).flatten()
}

/// Everything the `simulate faults` CLI prints about one scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Fault scenario name (one of [`NAMES`]).
    pub scenario: String,
    /// Strategy label the scenario ran under.
    pub strategy: String,
    /// Seed shared by the baseline and the faulted run.
    pub seed: u64,
    /// Bytes the workload was asked to move.
    pub size_bytes: u64,
    /// The faulted run finished before the horizon.
    pub completed: bool,
    /// Bytes actually delivered to the client under faults.
    pub bytes_delivered: u64,
    /// Fault-free completion time (s).
    pub baseline_time_s: f64,
    /// Completion time under faults (s).
    pub faulted_time_s: f64,
    /// Faulted goodput as a fraction of fault-free goodput.
    pub goodput_retained: f64,
    /// Fault-free energy to completion, drain included (J).
    pub baseline_energy_j: f64,
    /// Energy under faults (J).
    pub faulted_energy_j: f64,
    /// Extra energy the faults cost (J; can be negative when a fault
    /// ends a radio tail early).
    pub energy_overhead_j: f64,
    /// Fault events the injector applied.
    pub faults_injected: u64,
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
    /// Online invariant violations observed during the faulted run.
    pub invariant_violations: u64,
}

/// Run one named scenario with a fresh invariant-checking telemetry
/// pipeline. Returns `None` for an unknown scenario name.
pub fn run_scenario(name: &str, seed: u64) -> Option<ResilienceReport> {
    run_scenario_traced(name, seed, Telemetry::builder().invariants(true).build())
}

/// Run one named scenario with a caller-supplied telemetry pipeline on the
/// faulted run (the baseline runs uninstrumented so a trace sink sees only
/// the run the report describes). Invariant violations are read back from
/// the supplied pipeline.
pub fn run_scenario_traced(
    name: &str,
    seed: u64,
    telemetry: Telemetry,
) -> Option<ResilienceReport> {
    let sc = load(name)?;
    let plan = sc.fault_plan();
    let World::Host { strategy, scenario } = sc.world else {
        return None;
    };
    let strategy = Strategy::from(strategy);
    let size_bytes = scenario.workload.owed_bytes()?;
    let baseline = Simulation::new(scenario.clone(), strategy, seed).run();

    let mut sim = Simulation::new_with_telemetry(scenario, strategy, seed, telemetry.clone());
    sim.attach_faults(plan);
    let faulted = sim.run();
    let invariant_violations = telemetry.violations().len() as u64;

    let goodput = |bytes: u64, secs: f64| bytes as f64 / secs.max(1e-9);
    let base_goodput = goodput(baseline.bytes_delivered, baseline.download_time_s);
    let fault_goodput = goodput(faulted.bytes_delivered, faulted.download_time_s);
    Some(ResilienceReport {
        scenario: name.to_string(),
        strategy: strategy.label().to_string(),
        seed,
        size_bytes,
        completed: faulted.completed,
        bytes_delivered: faulted.bytes_delivered,
        baseline_time_s: baseline.download_time_s,
        faulted_time_s: faulted.download_time_s,
        goodput_retained: if base_goodput > 0.0 {
            fault_goodput / base_goodput
        } else {
            0.0
        },
        baseline_energy_j: baseline.energy_j,
        faulted_energy_j: faulted.energy_j,
        energy_overhead_j: faulted.energy_j - baseline.energy_j,
        faults_injected: faulted.faults_injected,
        link_down_events: faulted.link_down_events,
        subflow_failures: faulted.subflow_failures,
        backup_promotions: faulted.backup_promotions,
        subflow_revivals: faulted.subflow_revivals,
        bytes_reinjected: faulted.bytes_reinjected,
        worst_recovery_latency_s: faulted.worst_recovery_latency_s,
        invariant_violations,
    })
}

/// CI gate: everything a report must satisfy for `--check` to pass.
/// Returns the list of violated expectations (empty = pass). Thresholds
/// are deliberately loose — they assert *recovery happened*, not exact
/// performance numbers, so they hold across seeds.
pub fn check(report: &ResilienceReport) -> Vec<String> {
    let mut fails = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            fails.push(what.to_string());
        }
    };
    expect(report.completed, "transfer completed under faults");
    expect(
        report.bytes_delivered == report.size_bytes,
        "zero byte-stream gaps (delivered == requested)",
    );
    expect(
        report.invariant_violations == 0,
        "no invariant violations during the faulted run",
    );
    expect(report.faults_injected > 0, "the fault plan actually fired");
    expect(
        report.goodput_retained >= 0.25,
        "goodput retained at least 25% of fault-free",
    );
    match report.scenario.as_str() {
        "ap-vanish" | "flappy-wifi" | "handover-walk" => {
            expect(
                report.link_down_events >= 1,
                "link-down notification reached the stack",
            );
            expect(
                report.worst_recovery_latency_s > 0.0,
                "recovery latency was measured",
            );
        }
        "lte-tunnel" => {
            expect(
                report.link_down_events >= 1,
                "link-down notification reached the stack",
            );
            expect(
                report.bytes_reinjected > 0,
                "stranded cellular data was reinjected",
            );
        }
        "congested_core" => {
            // The collapse is a silent blackhole on every path: no
            // link-down notification exists, so recovery must come from
            // the consecutive-RTO failure detector and ack-progress
            // revival once the core ramps back.
            expect(
                report.subflow_failures >= 1,
                "RTO detector declared a subflow dead during the collapse",
            );
            expect(
                report.subflow_revivals >= 1,
                "a dead subflow revived after the core ramped back",
            );
            expect(
                report.worst_recovery_latency_s > 0.0,
                "recovery latency was measured",
            );
        }
        _ => {}
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimTime;

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_scenario("no-such-scenario", 1).is_none());
    }

    #[test]
    fn every_scenario_declares_a_host_download() {
        for name in NAMES {
            let World::Host { scenario, .. } = load(name).unwrap().world else {
                panic!("{name} is not a host world");
            };
            assert_eq!(scenario.workload.owed_bytes(), Some(16 << 20), "{name}");
        }
    }

    #[test]
    fn every_listed_scenario_has_a_plan() {
        for name in NAMES {
            let sc = load(name).unwrap_or_else(|| panic!("no corpus file for {name}"));
            let p = sc.fault_plan();
            assert!(!p.is_empty(), "{name} is empty");
            assert!(
                p.end_time().unwrap() <= SimTime::from_secs(30),
                "{name} runs past the guaranteed-in-flight window"
            );
            assert!(!sc.summary.is_empty());
        }
        assert!(load("no-such-scenario").is_none());
        // In the corpus, but not a script the library's transfer fits.
        assert!(load("cafe-hotspot").is_none());
    }

    #[test]
    fn library_is_sorted() {
        let mut sorted = NAMES;
        sorted.sort_unstable();
        assert_eq!(NAMES, sorted, "library must list in sorted order");
    }

    #[test]
    fn plans_are_deterministic() {
        for name in NAMES {
            let a = load(name).unwrap().fault_plan().into_events();
            let b = load(name).unwrap().fault_plan().into_events();
            assert_eq!(a, b, "{name} not deterministic");
        }
    }

    #[test]
    fn every_library_plan_restores_nominal() {
        for name in NAMES {
            assert!(
                load(name).unwrap().fault_plan().restores_nominal(),
                "{name} leaves the network perturbed"
            );
        }
    }
}
