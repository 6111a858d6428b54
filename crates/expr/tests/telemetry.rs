//! End-to-end telemetry properties of the simulation host.
//!
//! The pipeline is only trustworthy if (a) it never perturbs the simulation
//! it observes, (b) the trace is a pure function of the seed, and (c) the
//! online invariant observer stays silent on healthy runs. Each property is
//! a test here.

use emptcp_expr::host::Simulation;
use emptcp_expr::scenario::{Scenario, Workload};
use emptcp_expr::Strategy;
use emptcp_sim::SimTime;
use emptcp_telemetry::{MemorySink, Telemetry};
use std::sync::{Arc, Mutex};

fn scenario() -> Scenario {
    // Bad WiFi forces eMPTCP to bring the cellular subflow up, exercising
    // the scheduler, the RRC machine, and the path-usage controller.
    Scenario::static_bad_wifi().with(Workload::Download { size: 2 << 20 })
}

/// Run one instrumented simulation; return (trace JSONL, metrics JSON,
/// violation count).
fn instrumented_run(seed: u64) -> (String, String, usize) {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let telemetry = Telemetry::builder()
        .sink(Box::new(Arc::clone(&sink)))
        .invariants(true)
        .build();
    let result = Simulation::new_with_telemetry(
        scenario(),
        Strategy::emptcp_default(),
        seed,
        telemetry.clone(),
    )
    .run();
    assert!(result.completed, "download should finish");
    let trace = sink.lock().unwrap().to_jsonl();
    let metrics = serde_json::to_string_pretty(
        &telemetry
            .metrics_snapshot(SimTime::from_secs(600))
            .expect("pipeline enabled"),
    )
    .unwrap();
    (trace, metrics, telemetry.violations().len())
}

#[test]
fn same_seed_produces_byte_identical_traces() {
    let (trace_a, metrics_a, _) = instrumented_run(42);
    let (trace_b, metrics_b, _) = instrumented_run(42);
    assert!(!trace_a.is_empty(), "instrumented run must emit events");
    assert_eq!(
        trace_a, trace_b,
        "trace must be a pure function of the seed"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "metrics snapshot must be deterministic"
    );
}

#[test]
fn different_seeds_diverge() {
    let (trace_a, _, _) = instrumented_run(1);
    let (trace_b, _, _) = instrumented_run(2);
    assert_ne!(trace_a, trace_b, "seeds must actually feed the simulation");
}

#[test]
fn no_invariant_violations_on_healthy_runs() {
    for (name, s) in [
        ("bad_wifi", scenario()),
        ("mobility", Scenario::mobility()),
        ("outage", Scenario::wifi_outage()),
    ] {
        let telemetry = Telemetry::builder().invariants(true).build();
        Simulation::new_with_telemetry(s, Strategy::emptcp_default(), 42, telemetry.clone()).run();
        let violations = telemetry.violations();
        assert!(
            violations.is_empty(),
            "{name}: unexpected invariant violations: {violations:?}"
        );
    }
}

#[test]
fn instrumentation_does_not_perturb_results() {
    let plain = Simulation::new(scenario(), Strategy::emptcp_default(), 42).run();
    let telemetry = Telemetry::builder().invariants(true).build();
    let traced =
        Simulation::new_with_telemetry(scenario(), Strategy::emptcp_default(), 42, telemetry).run();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "enabling telemetry must not change simulation outcomes"
    );
}
