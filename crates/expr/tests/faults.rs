//! End-to-end properties of fault injection through the full host.
//!
//! The acceptance bar for the fault subsystem: a scripted disaster may
//! slow a transfer down but can never corrupt it (zero byte-stream gaps,
//! silent invariant observer), recovery must be *visible* in the report
//! (link-down events, recovery latency), and the whole faulted run must
//! stay a pure function of the seed — byte-identical telemetry included.

use emptcp_expr::faults::{self, ResilienceReport};
use emptcp_expr::host::Simulation;
use emptcp_telemetry::{MemorySink, Telemetry};
use std::sync::{Arc, Mutex};

/// Run one named scenario with a memory trace sink; return the report and
/// the faulted run's JSONL trace.
fn traced_run(name: &str, seed: u64) -> (ResilienceReport, String) {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let telemetry = Telemetry::builder()
        .sink(Box::new(Arc::clone(&sink)))
        .invariants(true)
        .build();
    let report = faults::run_scenario_traced(name, seed, telemetry).expect("known scenario");
    let trace = sink.lock().unwrap().to_jsonl();
    (report, trace)
}

#[test]
fn ap_vanish_completes_with_zero_gaps() {
    let report = faults::run_scenario("ap-vanish", 42).expect("known scenario");
    assert!(report.completed, "{report:?}");
    assert_eq!(
        report.bytes_delivered, report.size_bytes,
        "byte-stream gap: {report:?}"
    );
    assert_eq!(report.invariant_violations, 0, "{report:?}");
    // The blackout was noticed and recovery was measured.
    assert!(report.link_down_events >= 1, "{report:?}");
    assert!(report.worst_recovery_latency_s > 0.0, "{report:?}");
    assert!(report.faults_injected >= 2, "{report:?}");
}

#[test]
fn lte_tunnel_reinjects_stranded_data() {
    let report = faults::run_scenario("lte-tunnel", 42).expect("known scenario");
    assert!(report.completed, "{report:?}");
    assert_eq!(report.bytes_delivered, report.size_bytes);
    assert!(
        report.bytes_reinjected > 0,
        "cellular blackout stranded nothing? {report:?}"
    );
    assert!(report.subflow_revivals >= 1, "{report:?}");
}

#[test]
fn every_scenario_passes_the_resilience_checks() {
    for name in faults::NAMES {
        let report = faults::run_scenario(name, 42).expect("listed scenario must run");
        let fails = faults::check(&report);
        assert!(fails.is_empty(), "{name} failed: {fails:?}\n{report:?}");
    }
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
    assert_eq!(report_a.faulted_time_s, report_b.faulted_time_s);
    assert_eq!(report_a.faulted_energy_j, report_b.faulted_energy_j);
}

#[test]
fn attach_faults_with_empty_plan_changes_nothing() {
    let file = faults::load("ap-vanish").expect("library scenario");
    let emptcp_scenario::World::Host { strategy, scenario } = file.world else {
        panic!("ap-vanish is a host world");
    };
    let plain = Simulation::new(scenario.clone(), strategy.into(), 5).run();
    let mut sim = Simulation::new(scenario, strategy.into(), 5);
    sim.attach_faults(emptcp_faults::FaultPlan::new());
    let armed = sim.run();
    assert_eq!(plain.download_time_s, armed.download_time_s);
    assert_eq!(plain.energy_j, armed.energy_j);
    assert_eq!(armed.faults_injected, 0);
}
