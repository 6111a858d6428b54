//! Shared between `fault_state` and the workspace smoke test: the fault
//! rule as a reference fold, and the check that a host interface and a
//! shaped path, driven by one `(target, action)` sequence, hold one
//! `FaultState` while each host link runs at what the rule gives over its
//! own nominal, in both directions.

use emptcp_expr::host::Simulation;
use emptcp_expr::scenario::{Scenario, Workload};
use emptcp_expr::Strategy;
use emptcp_faults::FaultAction::{self, ExtraDelay, IfaceDown, IfaceUp, Loss, Rate};
use emptcp_faults::{ChaosPath, FaultSurface, FaultTarget};
use emptcp_phy::{GeParams, IfaceKind, Link, LinkConfig, LossModel};
use emptcp_sim::{SimDuration, SimTime};

/// A burst-loss channel for the actions to install.
pub const GE: GeParams = GeParams {
    p_good_to_bad: 0.05,
    p_bad_to_good: 0.25,
    loss_good: 0.0,
    loss_bad: 0.7,
};

/// What the newest action of each kind left over one target: the rule,
/// folded newest first rather than through `FaultState`.
#[derive(Debug, Default, PartialEq)]
pub struct Held {
    down: bool,
    rate: Option<u64>,
    loss: Option<LossModel>,
    extra: Option<SimDuration>,
}

pub fn held<'a>(actions: impl DoubleEndedIterator<Item = &'a FaultAction> + Clone) -> Held {
    let newest = actions.rev();
    Held {
        down: newest.clone().find_map(|a| match a {
            IfaceDown => Some(true),
            IfaceUp => Some(false),
            _ => None,
        }) == Some(true),
        rate: newest
            .clone()
            .find_map(|a| match *a {
                Rate(rate) => Some(rate),
                _ => None,
            })
            .flatten(),
        loss: newest
            .clone()
            .find_map(|a| match *a {
                Loss(loss) => Some(loss),
                _ => None,
            })
            .flatten(),
        extra: newest
            .clone()
            .find_map(|a| match *a {
                ExtraDelay(extra) => Some(extra),
                _ => None,
            })
            .flatten(),
    }
}

/// What a link built with `nominal` runs at while `h` holds.
pub fn wanted(h: &Held, nominal: &LinkConfig) -> (u64, LossModel, SimDuration) {
    let rate = if h.down {
        0
    } else {
        h.rate.unwrap_or(nominal.rate_bps)
    };
    let loss = h.loss.unwrap_or(LossModel::Bernoulli(nominal.loss_prob));
    (rate, loss, nominal.prop_delay + h.extra.unwrap_or_default())
}

pub fn running(link: &Link) -> (u64, LossModel, SimDuration) {
    (link.rate_bps(), link.loss_model(), link.prop_delay())
}

/// The host's interfaces, in [`FaultTarget::path_index`] order.
const IFACES: [IfaceKind; 2] = [IfaceKind::Wifi, IfaceKind::CellularLte];

/// Whether an action on `target` reaches path `idx`: its own path, or
/// every path for the shared core.
pub fn reaches(target: FaultTarget, idx: usize) -> bool {
    target.path_index().is_none_or(|i| i == idx)
}

/// A host that has not run: its WiFi downlink's nominal is still the
/// link's config.
pub fn host() -> Simulation {
    let scenario = Scenario::static_good_wifi().with(Workload::Download { size: 1 << 20 });
    Simulation::new(scenario, Strategy::Mptcp, 1)
}

/// Every link of both host paths runs at what the rule gives, folded over
/// the actions in `seen` that reached its path, over the link's config.
pub fn host_paths_follow_the_rule(host: &Simulation, seen: &[(FaultTarget, FaultAction)]) {
    for (idx, iface) in IFACES.into_iter().enumerate() {
        let h = held(seen.iter().filter(|e| reaches(e.0, idx)).map(|e| &e.1));
        let path = host.path(iface);
        for (dir, link) in [("down", path.down()), ("up", path.up())] {
            let want = wanted(&h, link.config());
            assert_eq!(running(link), want, "{iface} {dir}link after {seen:?}");
        }
    }
}

/// Drive a host and one shaped path per host path through `events`: after
/// every action each host path holds the shaped path's `FaultState`, and
/// both host paths follow the rule in both directions.
pub fn host_and_shaped_paths_agree(events: &[(FaultTarget, FaultAction)]) {
    let mut host = host();
    let mut shaped = [12, 35].map(|ms| ChaosPath::new(0.0, SimDuration::from_millis(ms), 0));
    let mut now = SimTime::ZERO;
    for (i, &(target, action)) in events.iter().enumerate() {
        now += SimDuration::from_millis(1);
        host.apply(now, target, action);
        for (idx, path) in shaped.iter_mut().enumerate() {
            if reaches(target, idx) {
                path.apply(action);
            }
        }
        let seen = &events[..=i];
        for (idx, iface) in IFACES.into_iter().enumerate() {
            let state = host.path(iface).fault();
            assert_eq!(state, shaped[idx].fault(), "{iface} after {seen:?}");
        }
        host_paths_follow_the_rule(&host, seen);
    }
}
