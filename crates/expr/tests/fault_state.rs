//! The fault rule holds by construction on every surface.
//!
//! Every fault surface keeps what faults hold over a target in one
//! `FaultState`: each override lasts until its own restore, whatever
//! `IfaceUp`s come between, and a target that is down runs at rate zero
//! whatever rate a fault set. Here random `(target, action)` sequences
//! drive three surfaces at once — both directions of both host paths, the
//! fleet core's bottleneck port and a shaped `ChaosPath` — and after every
//! action each must run at the rate, loss and delay that a reference fold
//! of the rule gives. A host path and a shaped path given the same
//! sequence hold the same `FaultState`. A plan restores nominal exactly
//! when the same fold leaves every target holding nothing.

use emptcp_faults::FaultAction::{self, ExtraDelay, IfaceDown, IfaceUp, Loss, Rate};
use emptcp_faults::{plan, ChaosPath, FaultSpec, FaultState, FaultSurface, FaultTarget};
use emptcp_net::{CorePorts, FleetConfig};
use emptcp_phy::{LinkConfig, LossModel};
use emptcp_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

#[path = "fault_state/rig.rs"]
mod rig;
use rig::{held, running, wanted, Held, GE};

const TARGETS: [FaultTarget; 3] = [FaultTarget::Wifi, FaultTarget::Cellular, FaultTarget::Core];

fn action(rng: &mut SimRng) -> FaultAction {
    match rng.below(8) {
        0 => IfaceDown,
        1 => IfaceUp,
        2 => Rate(None),
        3 => Rate(Some(rng.below(3) * 4_000_000)),
        4 => Loss(None),
        5 => Loss(Some(if rng.chance(0.5) {
            LossModel::GilbertElliott(GE)
        } else {
            LossModel::Bernoulli(0.2)
        })),
        6 => ExtraDelay(None),
        _ => ExtraDelay(Some(SimDuration::from_millis(1 + rng.below(300)))),
    }
}

/// A plan of `len` primitives of every kind, at random instants on random
/// targets.
fn specs(rng: &mut SimRng, len: usize) -> Vec<FaultSpec> {
    (0..len)
        .map(|_| {
            let target = TARGETS[rng.below(3) as usize];
            let (from_ms, dur_ms) = (rng.below(5_000), 1 + rng.below(3_000));
            let extra_ms = 1 + rng.below(200);
            match rng.below(8) {
                0 => FaultSpec::Blackout {
                    target,
                    from_ms,
                    dur_ms,
                },
                1 => FaultSpec::FlapTrain {
                    target,
                    from_ms,
                    flaps: 1 + rng.below(3) as u32,
                    down_ms: dur_ms,
                    up_ms: 1 + rng.below(1_000),
                },
                2 => FaultSpec::BurstLoss {
                    target,
                    from_ms,
                    dur_ms,
                    ge: GE,
                },
                3 => FaultSpec::BandwidthCollapse {
                    target,
                    from_ms,
                    hold_ms: dur_ms,
                    collapsed_bps: rng.below(2) * 500_000,
                    ramp_bps: vec![2_000_000],
                    step_ms: 500,
                },
                4 => FaultSpec::RttSpike {
                    target,
                    from_ms,
                    dur_ms,
                    extra_ms,
                },
                5 => FaultSpec::Handover {
                    at_ms: from_ms,
                    gap_ms: dur_ms,
                },
                6 => FaultSpec::RrcStall {
                    at_ms: from_ms,
                    dur_ms,
                    extra_ms,
                },
                _ => FaultSpec::RateStep {
                    target,
                    at_ms: from_ms,
                    bps: rng.chance(0.5).then_some(1_000_000),
                },
            }
        })
        .collect()
}

/// Drive the three surfaces through `events`, checking each after every
/// action against the reference fold of what reached it.
fn every_surface_follows_the_rule(events: &[(FaultTarget, FaultAction)]) {
    let mut host = rig::host();
    let mut core = CorePorts::new(&FleetConfig::contended(8, 1));
    // The cellular path in the reactor's routing: path 1.
    let mut shaped = ChaosPath::new(0.01, SimDuration::from_millis(35), 0);
    let core_nominal = *core.bottleneck().link().config();
    let shaped_nominal = LinkConfig {
        rate_bps: u64::MAX,
        prop_delay: shaped.base_delay,
        queue_capacity: 0,
        loss_prob: 0.01,
    };
    let mut now = SimTime::ZERO;
    for (i, &(target, action)) in events.iter().enumerate() {
        now += SimDuration::from_millis(1);
        host.apply(now, target, action);
        core.apply(now, target, action);
        if target != FaultTarget::Wifi {
            shaped.apply(action);
        }
        let seen = &events[..=i];
        let reached = |hit: fn(FaultTarget) -> bool| {
            held(seen.iter().filter(move |e| hit(e.0)).map(|e| &e.1))
        };
        rig::host_paths_follow_the_rule(&host, seen);
        let cellular = reached(|t| t != FaultTarget::Wifi);
        let core_held = reached(|t| t == FaultTarget::Core);
        let core_link = core.bottleneck().link();
        prop_assert_eq!(
            running(core_link),
            wanted(&core_held, &core_nominal),
            "core"
        );
        // A shaped path has no serializer: it passes traffic or it does
        // not, and a copy that gets through carries the delay.
        let (rate, loss, delay) = wanted(&cellular, &shaped_nominal);
        prop_assert_eq!(shaped.loss_model(), loss, "shaped loss");
        let mut probe = shaped.clone();
        probe.apply(Loss(Some(LossModel::Bernoulli(0.0))));
        let copies: Vec<SimDuration> = probe.shape(&mut SimRng::new(7)).collect();
        let want: Vec<SimDuration> = (rate > 0).then_some(delay).into_iter().collect();
        prop_assert_eq!(copies, want, "shaped delay");
    }
}

proptest! {
    #[test]
    fn every_surface_runs_at_what_the_rule_gives(seed in 0u64..u64::MAX, len in 1usize..40) {
        let mut rng = SimRng::new(seed);
        let events: Vec<_> = (0..len)
            .map(|_| (TARGETS[rng.below(3) as usize], action(&mut rng)))
            .collect();
        every_surface_follows_the_rule(&events);
    }

    #[test]
    fn a_host_path_and_a_shaped_path_hold_one_fault_state(
        seed in 0u64..u64::MAX,
        len in 1usize..40,
    ) {
        let mut rng = SimRng::new(seed);
        let events: Vec<_> = (0..len)
            .map(|_| (TARGETS[rng.below(3) as usize], action(&mut rng)))
            .collect();
        rig::host_and_shaped_paths_agree(&events);
    }

    #[test]
    fn a_plan_restores_nominal_when_every_state_is_nominal(
        seed in 0u64..u64::MAX,
        len in 1usize..6,
    ) {
        let specs = specs(&mut SimRng::new(seed), len);
        let events: Vec<_> = plan::expand(&specs)
            .iter()
            .map(|e| (e.target, e.action))
            .collect();
        every_surface_follows_the_rule(&events);
        let mut states = [FaultState::default(); 3];
        for &(target, action) in &events {
            states[target as usize].apply(action);
        }
        let nominal = states.iter().all(FaultState::is_nominal);
        prop_assert_eq!(plan::restores_nominal(&specs), nominal);
        let fold_nominal = TARGETS.iter().all(|&t| {
            held(events.iter().filter(|e| e.0 == t).map(|e| &e.1)) == Held::default()
        });
        prop_assert_eq!(nominal, fold_nominal, "{specs:?}");
    }
}
