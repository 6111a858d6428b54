//! Duplex-transport loopback suite: the live engine exercised end to end
//! in-process — connection setup, loss recovery, subflow failover — plus
//! a property test that scripted runs are exactly reproducible.

use emptcp_faults::{FaultPlan, FaultTarget};
use emptcp_live::{run_script, Backend, ChaosPath, ParityScript};
use emptcp_sim::{SimDuration, SimTime};
use proptest::prelude::*;

#[test]
fn connection_setup_over_duplex() {
    // A tiny transfer forces both subflow handshakes to complete.
    let script = ParityScript::two_path(11, 4 * 1428);
    let out = run_script(Backend::Live, &script);
    assert_eq!(out.delivered, 4 * 1428);
    assert!(out.stats.arrivals > 0 && out.stats.sends > 0);
}

#[test]
fn retransmits_recover_injected_loss() {
    // 8% loss on WiFi: completion is only possible if RTO/SACK recovery
    // actually replaces the shaped-away frames.
    let mut script = ParityScript::two_path(21, 128 * 1024);
    script.paths = vec![
        ChaosPath::new(0.08, SimDuration::from_millis(10), 2),
        ChaosPath::new(0.0, SimDuration::from_millis(30), 0),
    ];
    let out = run_script(Backend::Live, &script);
    assert_eq!(
        out.delivered,
        128 * 1024,
        "loss recovery completed the transfer"
    );
}

#[test]
fn failover_survives_a_dead_wifi_path() {
    // WiFi dies early and never comes back: the remaining bytes must ride
    // cellular alone.
    let mut script = ParityScript::two_path(31, 96 * 1024);
    script.faults = FaultPlan::new().at(
        SimTime::from_millis(80),
        FaultTarget::Wifi,
        emptcp_faults::FaultAction::IfaceDown,
    );
    let out = run_script(Backend::Live, &script);
    assert_eq!(out.delivered, 96 * 1024, "transfer survived the failover");
    assert!(
        out.delivered_cellular > out.delivered_wifi,
        "cellular carried the bulk after the wifi death \
         (wifi {} vs cellular {})",
        out.delivered_wifi,
        out.delivered_cellular
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any scripted duplex run is exactly reproducible: same timing
    /// script, same decision log — byte-for-byte, timestamp-for-
    /// timestamp. This is the determinism contract the live backend
    /// inherits from the simulator.
    #[test]
    fn scripted_runs_are_reproducible(
        seed in 0u64..1_000_000,
        loss_a in 0.0f64..0.1,
        loss_b in 0.0f64..0.1,
        delay_a_ms in 1u64..40,
        delay_b_ms in 1u64..80,
        jitter_ms in 0u64..6,
        kib in 8u64..128,
    ) {
        let mut script = ParityScript::two_path(seed, kib * 1024);
        script.paths = vec![
            ChaosPath::new(loss_a, SimDuration::from_millis(delay_a_ms), jitter_ms),
            ChaosPath::new(loss_b, SimDuration::from_millis(delay_b_ms), jitter_ms),
        ];
        let a = run_script(Backend::Live, &script);
        let b = run_script(Backend::Live, &script);
        prop_assert_eq!(a.delivered, b.delivered);
        prop_assert_eq!(a.decisions.len(), b.decisions.len());
        prop_assert!(a.decisions == b.decisions, "decision logs diverge");
    }
}
