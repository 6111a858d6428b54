//! Chaos testing for MPTCP: two asymmetric lossy subflows must still
//! deliver the exact connection-level byte stream, with reinjection
//! rescuing data stranded on a dying path. The rig is the shared
//! `emptcp_live::MpChaosRig`: the reactor over a `ChaosNet`.

use emptcp_faults::testnet::ChaosPath;
use emptcp_faults::{FaultSpec, FaultTarget};
use emptcp_live::{MpChaosRig, Transport};
use emptcp_mptcp::SubflowId;
use emptcp_phy::IfaceKind;
use emptcp_scenario::corpus;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::Telemetry;
use proptest::prelude::*;

fn rig(seed: u64, loss0: f64, loss1: f64, jitter_ms: u64) -> MpChaosRig {
    MpChaosRig::over(
        seed,
        vec![
            ChaosPath::new(loss0, SimDuration::from_millis(12), jitter_ms),
            ChaosPath::new(loss1, SimDuration::from_millis(35), jitter_ms),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn asymmetric_lossy_subflows_deliver_everything(
        total_kb in 32u64..256,
        loss0 in 0.0f64..0.12,
        loss1 in 0.0f64..0.12,
        jitter_ms in 0u64..25,
        seed in 0u64..u64::MAX,
    ) {
        let total = total_kb << 10;
        let mut r = rig(seed, loss0, loss1, jitter_ms);
        let delivered = r.transfer(total);
        prop_assert_eq!(delivered, total);
    }
}

#[test]
fn one_dead_subflow_from_the_start() {
    // Subflow 1 loses everything: the connection must still complete over
    // subflow 0 (subflow 1 never even finishes its handshake).
    let mut r = rig(3, 0.01, 1.0, 5);
    assert_eq!(r.transfer(128 << 10), 128 << 10);
}

#[test]
fn heavily_asymmetric_loss() {
    let mut r = rig(5, 0.002, 0.35, 10);
    assert_eq!(r.transfer(256 << 10), 256 << 10);
}

#[test]
fn backup_subflow_with_loss() {
    let mut r = rig(9, 0.05, 0.05, 10);
    r.client().subflow_mut(SubflowId(1)).backup = true;
    r.server().subflow_mut(SubflowId(1)).backup = true;
    let total = 64 << 10;
    assert_eq!(r.transfer(total), total);
    // Backup never carried data (subflow 0 stayed alive throughout).
    assert_eq!(r.client().delivered_by_iface(IfaceKind::CellularLte), 0);
}

/// The shared-bottleneck library scenario: `congested_core` collapses
/// every path at once (a silent blackhole — no link-layer notification),
/// so both subflows must be declared dead by the consecutive-RTO detector
/// and revived by ack progress once the core ramps back. The byte stream
/// must still arrive exactly, with the recovery visible in the stats.
#[test]
fn congested_core_scenario_recovers_with_stats() {
    // Long-ish RTTs keep a large transfer in flight through the scenario's
    // 5 s collapse window (the rig is delay-based, so throughput is
    // window-limited rather than rate-limited).
    let mut r = MpChaosRig::over(
        41,
        vec![
            ChaosPath::new(0.0, SimDuration::from_millis(100), 2),
            ChaosPath::new(0.0, SimDuration::from_millis(130), 2),
        ],
    );
    // The collapse is silent (rate steps only); detection must come from
    // RTOs alone.
    r.server().set_failure_threshold(2);
    r.attach_faults(
        &corpus::load("congested_core")
            .expect("library scenario")
            .faults,
        &Telemetry::disabled(),
    );
    // Window-limited at these RTTs the rig moves ~100 KB/s, so 8 MB keeps
    // the transfer in flight through the whole collapse and still finishes
    // far inside the wall limit.
    let total = 8 << 20;
    assert_eq!(r.transfer(total), total);
    let stats = r.server().recovery_stats();
    assert!(stats.subflow_failures >= 1, "{stats:?}");
    assert!(stats.revivals >= 1, "{stats:?}");
    assert!(
        stats.worst_recovery_latency().is_some(),
        "recovery latency never measured: {stats:?}"
    );
}

/// Stall detection is a deadline the connection reports, not something a
/// sweep happens to notice. An app-limited stream loses path 0 to a silent
/// blackhole; the RTO reinjects first, and the stall reinjection then
/// lands exactly one threshold after the last ACK path 0 produced — at an
/// instant the loop visited only because `next_deadline()` named it.
#[test]
fn a_silent_blackhole_is_reinjected_at_the_last_ack_plus_the_threshold() {
    let ms = SimDuration::from_millis;
    let mut r = MpChaosRig::over(
        11,
        vec![
            ChaosPath::new(0.0, ms(12), 0),
            ChaosPath::new(0.0, ms(80), 0),
        ],
    );
    let blackhole = SimTime::from_millis(600);
    r.attach_faults(
        &[FaultSpec::RateStep {
            target: FaultTarget::Wifi,
            at_ms: 600,
            bps: Some(0),
        }],
        &Telemetry::disabled(),
    );

    let (mut una, mut last_ack, mut next_write) = (0, SimTime::ZERO, SimTime::ZERO);
    let mut stall_reinjections = Vec::new();
    while r.clock.now() < SimTime::from_secs(2) {
        if r.clock.now() >= next_write {
            r.server().write(512);
            next_write = r.clock.now() + ms(20);
        }
        let named = r.server().next_deadline();
        let arrival = r.transport.next_wakeup();
        let before = (
            r.server().recovery_stats().reinjection_events,
            r.server().subflow(SubflowId(0)).tcp.timeouts(),
        );
        // One iteration of the reactor loop.
        let mut stepped = false;
        r.run_until(|_| std::mem::replace(&mut stepped, true));
        let now = r.clock.now();
        let sf0 = r.server().subflow(SubflowId(0));
        let (rtos, srtt) = (sf0.tcp.timeouts(), sf0.tcp.rtt().srtt_or_zero());
        if sf0.tcp.snd_una() > una {
            (una, last_ack) = (sf0.tcp.snd_una(), now);
        }
        if r.server().recovery_stats().reinjection_events > before.0 && rtos == before.1 {
            stall_reinjections.push((now, named, arrival, (srtt * 2).max(ms(300))));
        }
    }
    let (at, named, arrival, threshold) = stall_reinjections[0];
    assert!(last_ack < blackhole + ms(24) && at > blackhole);
    assert_eq!(at, last_ack + threshold);
    assert_eq!(named, Some(at), "the connection named the instant itself");
    assert_ne!(arrival, Some(at), "no frame was due then");
    assert_eq!(stall_reinjections.len(), 1, "once per stall");
}
