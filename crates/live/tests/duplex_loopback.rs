//! Duplex-transport loopback suite: the live engine exercised end to end
//! in-process — connection setup, loss recovery, subflow failover — plus
//! a property test that scripted runs are exactly reproducible.

use emptcp_faults::{FaultSpec, FaultTarget};
use emptcp_live::{run_script, Backend, ChaosPath, ParityScript};
use emptcp_sim::SimDuration;
use emptcp_telemetry::Telemetry;
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
    // A blackout that outlasts the run.
    script.faults = vec![FaultSpec::Blackout {
        target: FaultTarget::Wifi,
        from_ms: 80,
        dur_ms: 900_000,
    }];
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

/// With megabyte windows, a path that goes silent mid-transfer leaves the
/// other running far ahead of the hole until the RTO rescues it. The
/// connection's reorder queue must then hold the holes, and the subflows'
/// mapping tables the scheduler's bursts — not one entry per segment.
#[test]
fn an_rto_stall_leaves_holes_not_segments_in_the_reorder_queue() {
    use emptcp_live::{ClockSource, DuplexTransport, Reactor};

    const TOTAL: u64 = 128 << 20;
    let paths = vec![
        ChaosPath::new(0.0, SimDuration::from_millis(3), 0),
        ChaosPath::new(0.0, SimDuration::from_millis(5), 0),
    ];
    let mut reactor = Reactor::pair(ClockSource::scripted(), DuplexTransport::new(41, paths));
    // Silent blackhole, no link-layer notification: only the RTO finds
    // out. By 113 ms both windows have reached the 4 MiB `rwnd`, and the
    // instant falls between a cellular ACK burst leaving the client and
    // the data it clocks out of the server, so a full window is lost.
    reactor.attach_faults(
        &[FaultSpec::RateStep {
            target: FaultTarget::Cellular,
            at_ms: 113,
            bps: Some(0),
        }],
        &Telemetry::disabled(),
    );
    reactor.server().write(TOTAL);
    reactor.run_until(|w| w[1].conn.subflows()[1].tcp.timeouts() > 0);

    // The moment the RTO fires: everything WiFi carried since the stall
    // sits beyond the hole.
    let client = reactor.client();
    let by_subflows: u64 = client
        .subflows()
        .iter()
        .map(|sf| sf.tcp.bytes_delivered_total())
        .sum();
    let waiting_segments = (by_subflows - client.bytes_delivered()) / 1428;
    assert!(
        waiting_segments > 10_000,
        "the stall was meant to strand a lot of data ({waiting_segments} segments)"
    );
    assert!(
        client.reorder_high_water() <= 4,
        "{} reorder entries for {waiting_segments} stranded segments",
        client.reorder_high_water()
    );

    // Reinjection fills the hole and the transfer completes.
    reactor.run_until(|w| w[0].conn.bytes_delivered() >= TOTAL);
    assert_eq!(reactor.client().bytes_delivered(), TOTAL);
    assert!(reactor.server().recovery_stats().bytes_reinjected > 0);
    for worker in &reactor.workers {
        for sf in worker.conn.subflows() {
            assert!(
                sf.mapping_high_water() <= 512,
                "{:?} {} held {} mapping runs",
                worker.conn.role(),
                sf.id,
                sf.mapping_high_water()
            );
        }
    }
}
