//! The MDP path scheduler of Pluntke et al., reproduced for §4.6.
//!
//! Pluntke et al. (MobiArch'11) schedule MPTCP paths with a Markov decision
//! process solved *offline* (in their system, in the cloud — the paper
//! notes the computation is too expensive for the kernel) and applied at
//! one-second epochs. The paper reproduces their scheduler against its own
//! energy model and observes: "the generated MDP schedulers choose
//! WiFi-only for all scenarios, resulting in same energy performance (and
//! limitations) as TCP over WiFi", because unlike Pluntke's 3G model, LTE
//! power per second never drops below WiFi's.
//!
//! This module is that reproduction: states are (WiFi-throughput bin,
//! LTE-throughput bin, cellular-radio-on), actions are the three path
//! usages, per-epoch cost is **additive** interface power (Pluntke's model
//! has no simultaneous-use discount) plus promotion/tail switching costs
//! plus a penalty for throughput shortfall against a streaming demand.
//! Value iteration with a discount factor solves it exactly.

use emptcp_energy::{EnergyModel, PathUsage};
use serde::{Deserialize, Serialize};

/// Throughput bin width (Mbps).
const BIN_MBPS: f64 = 1.0;
/// Number of throughput bins per interface (0..25 Mbps).
const BINS: usize = 26;
/// Value-iteration discount.
const DISCOUNT: f64 = 0.95;
/// Iterations (plenty for convergence at this size).
const SWEEPS: usize = 300;

/// A solved policy: the usage to apply in each state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MdpPolicy {
    /// `policy[radio_on][wifi_bin][cell_bin]`.
    policy: Vec<PathUsage>,
    demand_mbps: f64,
}

fn sidx(radio_on: usize, w: usize, c: usize) -> usize {
    (radio_on * BINS + w) * BINS + c
}

impl MdpPolicy {
    /// The §4.6 configuration: a 4 Mbps streaming demand with a mild
    /// shortfall penalty — Pluntke's setting transplanted onto the paper's
    /// energy model.
    pub fn pluntke(model: &EnergyModel) -> MdpPolicy {
        MdpPolicy::solve(model, 4.0, 0.4)
    }

    /// Solve the MDP for a demand (Mbps) and a shortfall penalty
    /// (J per Mbps-second of unmet demand).
    fn solve(model: &EnergyModel, demand_mbps: f64, shortfall_penalty: f64) -> MdpPolicy {
        let wifi_power: Vec<f64> = (0..BINS)
            .map(|b| model.profile().wifi_curve.power_w(Self::bin_mid(b)))
            .collect();
        let cell_power: Vec<f64> = (0..BINS)
            .map(|b| model.cellular().curve.power_w(Self::bin_mid(b)))
            .collect();
        let promo_j = model.cellular().promo_w * model.cellular().rrc.promotion_delay.as_secs_f64();
        let tail_j = model.cellular().tail_w * model.cellular().rrc.tail_duration.as_secs_f64();

        // Per-epoch (1 s) cost of an action in a state.
        let cost = |radio_on: usize, w: usize, c: usize, a: PathUsage| -> f64 {
            let (power, rate, needs_radio) = match a {
                PathUsage::WifiOnly => (wifi_power[w], Self::bin_mid(w), false),
                PathUsage::CellularOnly => (cell_power[c], Self::bin_mid(c), true),
                // Pluntke's model: powers are strictly additive.
                PathUsage::Both => (
                    wifi_power[w] + cell_power[c],
                    Self::bin_mid(w) + Self::bin_mid(c),
                    true,
                ),
            };
            let mut j = power; // watts over a one-second epoch
            j += shortfall_penalty * (demand_mbps - rate).max(0.0);
            if needs_radio && radio_on == 0 {
                j += promo_j;
            }
            if !needs_radio && radio_on == 1 {
                j += tail_j;
            }
            j
        };

        // Throughput bins random-walk: stay 0.5, +/-1 with 0.25 each.
        let neighbors = |b: usize| -> [(usize, f64); 3] {
            let down = b.saturating_sub(1);
            let up = (b + 1).min(BINS - 1);
            [(down, 0.25), (b, 0.5), (up, 0.25)]
        };

        let nstates = 2 * BINS * BINS;
        let mut value = vec![0.0f64; nstates];
        let mut policy = vec![PathUsage::WifiOnly; nstates];
        for _ in 0..SWEEPS {
            let mut next = vec![0.0f64; nstates];
            for radio_on in 0..2 {
                for w in 0..BINS {
                    for c in 0..BINS {
                        let mut best = f64::INFINITY;
                        let mut best_a = PathUsage::WifiOnly;
                        for &a in &PathUsage::ALL {
                            let radio_next = a.uses_cellular() as usize;
                            let mut future = 0.0;
                            for (wn, pw) in neighbors(w) {
                                for (cn, pc) in neighbors(c) {
                                    future += pw * pc * value[sidx(radio_next, wn, cn)];
                                }
                            }
                            let q = cost(radio_on, w, c, a) + DISCOUNT * future;
                            if q < best {
                                best = q;
                                best_a = a;
                            }
                        }
                        next[sidx(radio_on, w, c)] = best;
                        policy[sidx(radio_on, w, c)] = best_a;
                    }
                }
            }
            value = next;
        }
        MdpPolicy {
            policy,
            demand_mbps,
        }
    }

    fn bin_mid(b: usize) -> f64 {
        b as f64 * BIN_MBPS
    }

    fn bin_of(mbps: f64) -> usize {
        (mbps / BIN_MBPS).round().clamp(0.0, (BINS - 1) as f64) as usize
    }

    /// The action for observed throughputs (cellular radio assumed off —
    /// the conservative slice; with the paper's model the policy never
    /// turns it on in the first place).
    pub fn action(&self, wifi_mbps: f64, cell_mbps: f64) -> PathUsage {
        self.policy[sidx(0, Self::bin_of(wifi_mbps), Self::bin_of(cell_mbps))]
    }

    /// Fraction of (radio-off) states whose action is WiFi-only — the
    /// §4.6 observation quantified.
    pub fn wifi_only_fraction(&self) -> f64 {
        let total = BINS * BINS;
        let wifi_only = (0..BINS)
            .flat_map(|w| (0..BINS).map(move |c| (w, c)))
            .filter(|&(w, c)| self.policy[sidx(0, w, c)] == PathUsage::WifiOnly)
            .count();
        wifi_only as f64 / total as f64
    }

    /// The streaming demand the policy was solved for.
    pub fn demand_mbps(&self) -> f64 {
        self.demand_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_is_wifi_only_everywhere() {
        // §4.6: with the paper's energy model (LTE per-second power never
        // below WiFi's), the Pluntke MDP degenerates to WiFi-only.
        let policy = MdpPolicy::pluntke(&EnergyModel::galaxy_s3_lte());
        assert!(
            policy.wifi_only_fraction() > 0.99,
            "wifi-only fraction {}",
            policy.wifi_only_fraction()
        );
        for (w, c) in [(0.5, 10.0), (2.0, 20.0), (10.0, 10.0), (0.0, 5.0)] {
            assert_eq!(policy.action(w, c), PathUsage::WifiOnly, "at ({w},{c})");
        }
    }

    #[test]
    fn mdp_scheduled_run_never_wakes_cellular() {
        // §4.6's observable consequence: the MDP scheduler behaves like
        // TCP over WiFi — the cellular radio is never activated.
        let sc = crate::scenario::Scenario::static_good_wifi()
            .with(crate::scenario::Workload::Download { size: 2 << 20 });
        let r = crate::host::run(sc, crate::strategy::Strategy::MdpScheduler, 3);
        assert!(r.completed);
        assert_eq!(r.cell_bytes, 0);
        assert_eq!(r.promotions, 0);
    }

    #[test]
    fn huge_penalty_would_change_the_policy() {
        // Sanity check that the solver actually trades off: with an extreme
        // shortfall penalty, slow WiFi must recruit the cellular path.
        let policy = MdpPolicy::solve(&EnergyModel::galaxy_s3_lte(), 8.0, 100.0);
        let a = policy.action(1.0, 20.0);
        assert_ne!(a, PathUsage::WifiOnly, "penalty ignored");
    }

    #[test]
    fn demand_recorded() {
        let policy = MdpPolicy::pluntke(&EnergyModel::galaxy_s3_lte());
        assert_eq!(policy.demand_mbps(), 4.0);
    }
}
