//! End-to-end fault-plan properties.
//!
//! The core promise of the fault subsystem: *no generated fault plan can
//! make MPTCP corrupt the byte stream*. Faults may slow a transfer down,
//! kill subflows, and force reinjection — but the client must always end
//! with exactly the bytes the server wrote, and the online invariant
//! observer must stay silent.

use emptcp_faults::plan;
use emptcp_faults::testnet::ChaosPath;
use emptcp_faults::{FaultAction, FaultInjector, FaultSpec, FaultSurface, FaultTarget};
use emptcp_live::MpChaosRig;
use emptcp_mptcp::SubflowId;
use emptcp_phy::{GeParams, IfaceKind};
use emptcp_sim::{SimDuration, SimRng, SimTime};
use emptcp_telemetry::Telemetry;
use proptest::prelude::*;

fn two_paths() -> Vec<ChaosPath> {
    vec![
        ChaosPath::new(0.01, SimDuration::from_millis(12), 3),
        ChaosPath::new(0.02, SimDuration::from_millis(35), 3),
    ]
}

/// Draw a random-but-reproducible fault plan: 1–4 primitives with random
/// targets and timings, every one of which eventually restores the nominal
/// state (so a transfer can always finish after the storm passes).
fn gen_plan(rng: &mut SimRng) -> Vec<FaultSpec> {
    let mut plan = Vec::new();
    let n = 1 + rng.below(4);
    for _ in 0..n {
        let target = if rng.chance(0.5) {
            FaultTarget::Wifi
        } else {
            FaultTarget::Cellular
        };
        let from_ms = 500 + rng.below(10_000);
        match rng.below(5) {
            0 => plan.push(FaultSpec::Blackout {
                target,
                from_ms,
                dur_ms: 200 + rng.below(4_000),
            }),
            1 => plan.push(FaultSpec::FlapTrain {
                target,
                from_ms,
                flaps: 1 + rng.below(3) as u32,
                down_ms: 100 + rng.below(500),
                up_ms: 300 + rng.below(1_500),
            }),
            2 => plan.push(FaultSpec::BurstLoss {
                target,
                from_ms,
                dur_ms: 1_000 + rng.below(6_000),
                ge: GeParams {
                    p_good_to_bad: 0.02 + 0.08 * rng.below(100) as f64 / 100.0,
                    p_bad_to_good: 0.2,
                    loss_good: 0.0,
                    loss_bad: 0.5 + 0.4 * rng.below(100) as f64 / 100.0,
                },
            }),
            3 => plan.push(FaultSpec::RttSpike {
                target,
                from_ms,
                dur_ms: 500 + rng.below(3_000),
                extra_ms: 50 + rng.below(200),
            }),
            // A silent rate-zero blackhole: no link-layer notification, so
            // only RTO-based failure detection can see it.
            _ => {
                let until_ms = from_ms + 200 + rng.below(2_500);
                plan.push(rate_step(target, from_ms, Some(0)));
                plan.push(rate_step(target, until_ms, None));
            }
        }
    }
    plan
}

fn rate_step(target: FaultTarget, at_ms: u64, bps: Option<u64>) -> FaultSpec {
    FaultSpec::RateStep { target, at_ms, bps }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_fault_plans_preserve_exact_delivery(
        total_kb in 32u64..128,
        seed in 0u64..u64::MAX,
    ) {
        let total = total_kb << 10;
        let mut rig = MpChaosRig::over(seed, two_paths());
        let mut fault_rng = rig.transport.fork("faults");
        let telemetry = Telemetry::builder().invariants(true).build();
        rig.attach_faults(&gen_plan(&mut fault_rng), &telemetry);
        rig.client().set_telemetry(telemetry.scope(0));
        rig.server().set_telemetry(telemetry.scope(1));

        let delivered = rig.transfer(total);
        prop_assert_eq!(delivered, total, "byte stream gap under faults");
        let violations = telemetry.violations();
        prop_assert!(violations.is_empty(), "invariants violated: {violations:?}");
    }
}

/// The ISSUE's regression case: the only *active* subflow is blacked out
/// while a configured backup waits; the backup must be promoted and the
/// transfer must complete with recovery visible in the stats.
#[test]
fn blackout_of_only_active_subflow_with_backup_completes() {
    let mut rig = MpChaosRig::over(11, two_paths());
    rig.client().subflow_mut(SubflowId(1)).backup = true;
    rig.server().subflow_mut(SubflowId(1)).backup = true;
    rig.attach_faults(
        &[FaultSpec::Blackout {
            target: FaultTarget::Wifi,
            from_ms: 500,
            dur_ms: 5_000,
        }],
        &Telemetry::disabled(),
    );
    let total = 256 << 10;
    assert_eq!(rig.transfer(total), total);
    // The backup actually carried traffic during the blackout.
    assert!(
        rig.client().delivered_by_iface(IfaceKind::CellularLte) > 0,
        "backup never promoted into service"
    );
    let stats = rig.server().recovery_stats();
    assert!(stats.link_down_events >= 1, "{stats:?}");
    assert!(stats.backup_promotions >= 1, "{stats:?}");
    assert!(
        stats.worst_recovery_latency().is_some(),
        "recovery latency never measured: {stats:?}"
    );
}

/// A silent blackhole (no link-layer notification) must be caught by the
/// consecutive-RTO failure detector, and the subflow must be revived by
/// ack progress once the hole heals.
#[test]
fn silent_blackhole_detected_by_rto_threshold() {
    let mut rig = MpChaosRig::over(17, two_paths());
    rig.server().set_failure_threshold(2);
    rig.attach_faults(
        &[
            rate_step(FaultTarget::Wifi, 500, Some(0)),
            rate_step(FaultTarget::Wifi, 8_000, None),
        ],
        &Telemetry::disabled(),
    );
    let total = 512 << 10;
    assert_eq!(rig.transfer(total), total);
    let stats = rig.server().recovery_stats();
    assert!(stats.subflow_failures >= 1, "{stats:?}");
    assert!(stats.bytes_reinjected > 0, "{stats:?}");
}

/// Records every surface call so tests can compare the applied sequence
/// against the plan's pre-expanded event feed.
#[derive(Default)]
struct RecordingSurface {
    applied: Vec<(SimTime, FaultTarget, FaultAction)>,
}

impl FaultSurface for RecordingSurface {
    fn apply(&mut self, now: SimTime, target: FaultTarget, action: FaultAction) {
        self.applied.push((now, target, action));
    }
}

#[test]
fn the_injector_applies_due_events_in_order_at_the_poll() {
    let mut inj = FaultInjector::new(&[
        FaultSpec::Blackout {
            target: FaultTarget::Wifi,
            from_ms: 2_000,
            dur_ms: 3_000,
        },
        FaultSpec::RttSpike {
            target: FaultTarget::Cellular,
            from_ms: 1_000,
            dur_ms: 10_000,
            extra_ms: 200,
        },
    ]);
    let mut surface = RecordingSurface::default();

    assert_eq!(inj.next_deadline(), Some(SimTime::from_secs(1)));
    assert_eq!(inj.poll(SimTime::from_millis(500), &mut surface), 0);
    // Polling at 2 s applies both the 1 s spike and the 2 s down, and
    // both at the instant of the poll.
    let at = SimTime::from_secs(2);
    assert_eq!(inj.poll(at, &mut surface), 2);
    let spike = FaultAction::ExtraDelay(Some(SimDuration::from_millis(200)));
    assert_eq!(
        surface.applied,
        [
            (at, FaultTarget::Cellular, spike),
            (at, FaultTarget::Wifi, FaultAction::IfaceDown),
        ]
    );
    // Re-polling at the same instant is idempotent.
    assert_eq!(inj.poll(at, &mut surface), 0);
    assert!(!inj.finished());
    assert_eq!(inj.poll(SimTime::from_secs(60), &mut surface), 2);
    assert!(inj.finished());
    assert_eq!(inj.next_deadline(), None);
}

/// What a plan hits, in expanded order.
fn hits(specs: &[FaultSpec]) -> Vec<(FaultTarget, FaultAction)> {
    let events = plan::expand(specs);
    events.iter().map(|e| (e.target, e.action)).collect()
}

/// Drive an injector in fixed ticks and return what it applied.
fn drain(
    specs: &[FaultSpec],
    tick: SimDuration,
    until: SimTime,
) -> Vec<(FaultTarget, FaultAction)> {
    let mut inj = FaultInjector::new(specs);
    let mut surface = RecordingSurface::default();
    let mut now = SimTime::ZERO;
    while now <= until {
        inj.poll(now, &mut surface);
        now += tick;
    }
    assert!(inj.finished(), "events left unapplied at {until:?}");
    surface
        .applied
        .into_iter()
        .map(|(_, t, a)| (t, a))
        .collect()
}

/// A blackout window *inside* a flap train on the same interface: the
/// cursor must apply the interleaved down/up events in exact expanded
/// order — even when one poll drains several due events — and the
/// overlapping windows must still fold back to nominal, so the transfer
/// recovers to exact delivery.
#[test]
fn blackout_inside_flap_train_applies_in_cursor_order_and_recovers() {
    let ms = SimDuration::from_millis;
    let plan = [
        FaultSpec::FlapTrain {
            target: FaultTarget::Wifi,
            from_ms: 1_000,
            flaps: 4,
            down_ms: 400,
            up_ms: 600,
        },
        FaultSpec::Blackout {
            target: FaultTarget::Wifi,
            from_ms: 1_700,
            dur_ms: 1_500,
        },
    ];

    // The blackout's window (1.7 s – 3.2 s) straddles three flaps; the
    // expanded feed must be time-sorted and the injector must replay it
    // one-for-one, including polls where several events are due at once.
    let times: Vec<SimTime> = plan::expand(&plan).iter().map(|e| e.at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "feed not sorted");
    // Coarse 500 ms polling forces multi-event drains.
    assert_eq!(drain(&plan, ms(500), SimTime::from_secs(6)), hits(&plan));

    // Overlap still folds to nominal, so exact delivery is owed.
    assert!(plan::restores_nominal(&plan));
    let mut rig = MpChaosRig::over(29, two_paths());
    rig.attach_faults(&plan, &Telemetry::disabled());
    let total = 128 << 10;
    assert_eq!(
        rig.transfer(total),
        total,
        "byte stream gap after nested windows"
    );
}

/// A WiFi→cellular handover that lands in the middle of a cellular RRC
/// stall: both interfaces are degraded at once (WiFi gone, cellular
/// delay-inflated), which is the worst case for the scheduler. The events
/// interleave across targets in time order, and the stream must still
/// arrive exactly with the WiFi loss visible in the recovery stats.
#[test]
fn handover_during_rrc_stall_interleaves_targets_and_delivers() {
    let ms = SimDuration::from_millis;
    let plan = [
        FaultSpec::RrcStall {
            at_ms: 200,
            dur_ms: 3_000,
            extra_ms: 150,
        },
        FaultSpec::Handover {
            at_ms: 500,
            gap_ms: 800,
        },
    ];

    let (wifi, cellular) = (FaultTarget::Wifi, FaultTarget::Cellular);
    let applied = hits(&plan);
    assert_eq!(
        applied,
        [
            (cellular, FaultAction::ExtraDelay(Some(ms(150)))), // 0.2 s  stall begins
            (wifi, FaultAction::IfaceDown),                     // 0.5 s  handover inside the stall
            (wifi, FaultAction::IfaceUp), // 1.3 s  re-associated, stall ongoing
            (cellular, FaultAction::ExtraDelay(None)), // 3.2 s  stall ends
        ]
    );
    assert_eq!(drain(&plan, ms(100), SimTime::from_secs(4)), applied);

    let mut rig = MpChaosRig::over(31, two_paths());
    rig.attach_faults(&plan, &Telemetry::disabled());
    let total = 256 << 10;
    assert_eq!(
        rig.transfer(total),
        total,
        "byte stream gap across the handover"
    );
    let stats = rig.server().recovery_stats();
    assert!(stats.link_down_events >= 1, "{stats:?}");
}

/// Adjacent windows sharing an exact boundary: the first blackout's
/// restore and the second's down fire at the same instant. `plan::expand`
/// is a *stable* sort, so spec order breaks the tie — up before down —
/// and the interface nets out down across the seam rather than
/// flickering the other way. The pair still restores nominal.
#[test]
fn back_to_back_blackouts_keep_stable_order_at_the_shared_boundary() {
    let sec = SimTime::from_secs;
    let blackout = |from_ms| FaultSpec::Blackout {
        target: FaultTarget::Wifi,
        from_ms,
        dur_ms: 1_000,
    };
    let plan = [blackout(1_000), blackout(2_000)];

    let wifi = FaultTarget::Wifi;
    let (down, up) = (FaultAction::IfaceDown, FaultAction::IfaceUp);
    assert_eq!(
        hits(&plan),
        [
            (wifi, down), // 1 s
            (wifi, up),   // 2 s — first window's restore wins the tie...
            (wifi, down), // 2 s — ...then the second window re-downs
            (wifi, up),   // 3 s
        ]
    );
    // One poll at the seam drains both tied events in that stable order.
    let mut inj = FaultInjector::new(&plan);
    let mut surface = RecordingSurface::default();
    inj.poll(sec(1), &mut surface);
    assert_eq!(inj.next_deadline(), Some(sec(2)));
    assert_eq!(inj.poll(sec(2), &mut surface), 2, "seam must drain as one");
    assert_eq!(surface.applied[1], (sec(2), wifi, up));
    assert_eq!(surface.applied[2], (sec(2), wifi, down));

    assert!(plan::restores_nominal(&plan));
    let mut rig = MpChaosRig::over(37, two_paths());
    rig.attach_faults(&plan, &Telemetry::disabled());
    let total = 96 << 10;
    assert_eq!(
        rig.transfer(total),
        total,
        "byte stream gap across adjacent windows"
    );
}

/// Same seed + same plan ⇒ identical delivery trajectory and identical
/// recovery accounting.
#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        let mut rig = MpChaosRig::over(23, two_paths());
        let mut fault_rng = rig.transport.fork("faults");
        rig.attach_faults(&gen_plan(&mut fault_rng), &Telemetry::disabled());
        let delivered = rig.transfer(128 << 10);
        (
            delivered,
            *rig.client().recovery_stats(),
            *rig.server().recovery_stats(),
        )
    };
    assert_eq!(run(), run());
}
