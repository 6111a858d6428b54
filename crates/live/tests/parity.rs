//! Sim/live parity certification — the tier-1 contract of this crate.
//!
//! Each test scripts identical input into the reactor over both backends'
//! transports (the simulator's `ChaosNet`, i.e. the `MpChaosRig`, and the
//! duplex byte channel) and demands the transport-decision logs match
//! event-for-event. A parity failure prints the first divergence with
//! context, which in practice names the exact protocol decision that
//! went differently over one transport.

use emptcp_faults::{FaultSpec, FaultTarget};
use emptcp_live::{certify, run_script, Backend, ChaosPath, ParityScript};
use emptcp_sim::SimDuration;
use emptcp_telemetry::TraceEvent;

fn assert_parity(script: &ParityScript) -> emptcp_live::ParityReport {
    match certify(script) {
        Ok(report) => report,
        Err(diff) => panic!("parity broken:\n{diff}"),
    }
}

#[test]
fn clean_transfer_matches_event_for_event() {
    let report = assert_parity(&ParityScript::two_path(42, 512 * 1024));
    assert_eq!(report.delivered, 512 * 1024);
    assert!(report.events > 100, "decision log is non-trivial");
    assert!(report.delivered_wifi > 0, "wifi subflow carried data");
    assert!(
        report.delivered_cellular > 0,
        "cellular subflow carried data"
    );
}

#[test]
fn lossy_jittery_paths_match_event_for_event() {
    // Loss and jitter exercise the RNG-coupled shaping draws — both
    // transports take them from `ChaosPath::shape` — plus retransmission
    // and SACK paths in the stacks.
    let mut script = ParityScript::two_path(7, 256 * 1024);
    script.paths = vec![
        ChaosPath::new(0.02, SimDuration::from_millis(12), 3),
        ChaosPath::new(0.05, SimDuration::from_millis(35), 8),
    ];
    let report = assert_parity(&script);
    assert_eq!(report.delivered, 256 * 1024);
    assert!(report.delivered_wifi > 0 && report.delivered_cellular > 0);
}

#[test]
fn faulted_run_matches_event_for_event() {
    // A WiFi blackout mid-transfer plus a cellular blackhole window:
    // exercises the reactor's fault surface over both transports,
    // including link-down notification and silent rate-zero drops.
    let mut script = ParityScript::two_path(1234, 384 * 1024);
    let cell_rate = |at_ms, bps| FaultSpec::RateStep {
        target: FaultTarget::Cellular,
        at_ms,
        bps,
    };
    script.faults = vec![
        FaultSpec::Blackout {
            target: FaultTarget::Wifi,
            from_ms: 150,
            dur_ms: 400,
        },
        cell_rate(900, Some(0)),
        cell_rate(1_100, None),
    ];
    let report = assert_parity(&script);
    assert_eq!(report.delivered, 384 * 1024);
}

#[test]
fn unnotified_blackout_matches_via_rto_discovery() {
    // A silent outage (rate 0, no link notification): both runs must
    // discover the dead path the hard way (RTO backoff) on exactly the
    // same schedule.
    let mut script = ParityScript::two_path(99, 128 * 1024);
    let wifi_rate = |at_ms, bps| FaultSpec::RateStep {
        target: FaultTarget::Wifi,
        at_ms,
        bps,
    };
    script.faults = vec![wifi_rate(100, Some(0)), wifi_rate(700, None)];
    let report = assert_parity(&script);
    assert_eq!(report.delivered, 128 * 1024);
    let run = run_script(Backend::Sim, &script);
    let wifi_rto = |e: &TraceEvent| matches!(e, TraceEvent::RtoFired { subflow: 0, .. });
    assert!(
        run.decisions.iter().any(|(_, e)| wifi_rto(e)),
        "no WiFi RTO"
    );
}

#[test]
fn live_backend_alone_is_deterministic() {
    // Same script, two live runs: byte-identical decision logs. This is
    // weaker than parity but pins the duplex run itself (not just its
    // agreement with the rig).
    let script = ParityScript::two_path(5, 64 * 1024);
    let a = run_script(Backend::Live, &script);
    let b = run_script(Backend::Live, &script);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.delivered, b.delivered);
}
