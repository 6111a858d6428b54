//! End-to-end properties of fault injection through the full host.
//!
//! The acceptance bar for the fault library — the corpus files whose host
//! world expects goodput — is the one judge every `.scenario` file gets: a
//! scripted disaster may slow a transfer down but can never corrupt it
//! (zero byte-stream gaps, silent invariant observer), recovery must be
//! *visible* (the file's expectations, checked as the `expectation`
//! oracle), and the whole faulted run must stay a pure function of the
//! seed — byte-identical telemetry included.

use emptcp_expr::chaos::{self, ChaosReport, Resilience};
use emptcp_expr::host::Simulation;
use emptcp_faults::plan;
use emptcp_scenario::{corpus, Expect, Measure, Scenario, World};
use emptcp_sim::SimTime;
use emptcp_telemetry::{MemorySink, Telemetry};
use std::sync::{Arc, Mutex};

/// The corpus files that measure themselves against a fault-free run.
fn library() -> Vec<Scenario> {
    corpus::all()
        .into_iter()
        .filter(|sc| match &sc.world {
            World::Host { expect, .. } => {
                expect.iter().any(|e| e.measure == Measure::GoodputRetained)
            }
            World::Fleet(_) => false,
        })
        .collect()
}

fn judged(name: &str, seed: u64) -> (ChaosReport, Resilience) {
    let mut sc = corpus::load(name).expect("corpus file");
    sc.seed = seed;
    let report = chaos::run_scenario(&sc, None).expect("a valid scenario runs");
    let resilience = report.resilience.clone().expect("the file expects goodput");
    (report, resilience)
}

/// Judge one corpus file with a memory trace sink; return the report and
/// the faulted run's JSONL trace.
fn traced_run(name: &str, seed: u64) -> (ChaosReport, String) {
    let mut sc = corpus::load(name).expect("corpus file");
    sc.seed = seed;
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let telemetry = Telemetry::builder()
        .sink(Box::new(Arc::clone(&sink)))
        .invariants(true)
        .build();
    let report = chaos::run_traced(&sc, None, telemetry).expect("a valid scenario runs");
    let trace = sink.lock().unwrap().to_jsonl();
    (report, trace)
}

#[test]
fn the_library_is_six_mid_transfer_scripts_that_certify() {
    let library = library();
    let names: Vec<&str> = library.iter().map(|sc| sc.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "ap-vanish",
            "burst-loss-storm",
            "congested_core",
            "flappy-wifi",
            "handover-walk",
            "lte-tunnel"
        ]
    );
    for sc in &library {
        let (name, plan) = (&sc.name, &sc.faults[..]);
        let World::Host { scenario, .. } = &sc.world else {
            unreachable!("the library is host worlds");
        };
        // A 16 MiB download is still in flight through every fault window.
        assert_eq!(scenario.workload.owed_bytes(), Some(16 << 20), "{name}");
        assert!(!plan.is_empty() && plan::restores_nominal(plan), "{name}");
        assert!(
            plan::end_time(plan) <= Some(SimTime::from_secs(30)),
            "{name}"
        );
        let report = chaos::run_scenario(sc, None).expect("a valid scenario runs");
        assert!(report.ok(), "{name}: {:?}", report.violations);
        assert!(report.resilience.is_some(), "{name}");
    }
}

#[test]
fn ap_vanish_completes_with_zero_gaps() {
    let (report, r) = judged("ap-vanish", 42);
    assert!(report.ok(), "{report:?}");
    assert!(r.completed, "{report:?}");
    assert_eq!(
        report.bytes_delivered,
        16 << 20,
        "byte-stream gap: {report:?}"
    );
    assert_eq!(report.invariant_violations, 0, "{report:?}");
    // The blackout was noticed and recovery was measured.
    assert!(r.link_down_events >= 1, "{report:?}");
    assert!(r.worst_recovery_latency_s > 0.0, "{report:?}");
    assert!(report.faults_injected >= 2, "{report:?}");
}

#[test]
fn lte_tunnel_reinjects_stranded_data() {
    let (report, r) = judged("lte-tunnel", 42);
    assert!(r.completed, "{report:?}");
    assert_eq!(report.bytes_delivered, 16 << 20);
    assert!(
        r.bytes_reinjected > 0,
        "cellular blackout stranded nothing? {report:?}"
    );
    assert!(r.subflow_revivals >= 1, "{report:?}");
}

/// The file as committed certifies; asking it for recovery its run does
/// not show fails the `expectation` oracle, with the evidence.
#[test]
fn an_expectation_the_run_cannot_meet_fails_with_its_evidence() {
    let mut sc = corpus::load("lte-tunnel").expect("corpus file");
    assert!(chaos::run_scenario(&sc, None).unwrap().ok());
    let World::Host { expect, .. } = &mut sc.world else {
        panic!("lte-tunnel is a host world");
    };
    expect.push(Expect {
        measure: Measure::SubflowRevivals,
        above: 5.0,
    });
    let report = chaos::run_scenario(&sc, None).unwrap();
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let v = &report.violations[0];
    assert_eq!(v.oracle, "expectation");
    assert_eq!(
        v.detail,
        "lte-tunnel: subflow_revivals must exceed 5, measured 1"
    );
}

#[test]
fn fault_runs_produce_byte_identical_traces() {
    let (report_a, trace_a) = traced_run("ap-vanish", 7);
    let (report_b, trace_b) = traced_run("ap-vanish", 7);
    assert!(!trace_a.is_empty(), "instrumented run must emit events");
    assert!(
        trace_a.contains("FaultInjected"),
        "fault applications must appear in the trace"
    );
    assert_eq!(
        trace_a, trace_b,
        "fault run trace must be a pure function of the seed"
    );
    let (a, b) = (report_a.resilience.unwrap(), report_b.resilience.unwrap());
    assert_eq!(a.faulted_time_s, b.faulted_time_s);
    assert_eq!(a.faulted_energy_j, b.faulted_energy_j);
}

#[test]
fn attach_faults_with_empty_plan_changes_nothing() {
    let file = corpus::load("ap-vanish").expect("corpus file");
    let World::Host {
        strategy, scenario, ..
    } = file.world
    else {
        panic!("ap-vanish is a host world");
    };
    let plain = Simulation::new(scenario.clone(), strategy.into(), 5).run();
    let mut sim = Simulation::new(scenario, strategy.into(), 5);
    sim.attach_faults(&[]);
    let armed = sim.run();
    assert_eq!(plain.download_time_s, armed.download_time_s);
    assert_eq!(plain.energy_j, armed.energy_j);
    assert_eq!(armed.faults_injected, 0);
}
