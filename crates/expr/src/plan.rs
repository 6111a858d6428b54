//! Host runs as values, and the merge of the runs several exhibits plan.
//!
//! A host simulation is a pure function of its whole input, compared by
//! value: every field of the [`Scenario`], the [`Strategy`] with its
//! `EmptcpConfig`, and the seed — never the scenario's *name*, which
//! `devices`, `sweep_kappa` and `sweep_hold` reuse with different
//! contents. So exhibits that plan equal runs share one simulation:
//! Fig 12's walks are Fig 13's first-seed runs, Figs 14 and 16 read one
//! wild study.

use crate::host::{RunResult, Simulation};
use crate::scenario::Scenario;
use crate::strategy::Strategy;
use emptcp_sim::trace::TimeSeries;
use emptcp_telemetry::Telemetry;

/// One host simulation an exhibit asks for.
#[derive(Clone, Debug)]
pub struct Run {
    /// The environment and workload.
    pub scenario: Scenario,
    /// The transport strategy.
    pub strategy: Strategy,
    /// The seed of every random process.
    pub seed: u64,
    /// Whether the result keeps its four time series. They are most of a
    /// result's bytes, and only the single-run figures plot them.
    pub series: bool,
}

impl Run {
    /// A run whose time series nobody plots.
    pub fn new(scenario: Scenario, strategy: Strategy, seed: u64) -> Run {
        Run {
            scenario,
            strategy,
            seed,
            series: false,
        }
    }

    /// True when both runs simulate the same input: all but `series`,
    /// the seed first so most mismatches cost one comparison.
    pub fn same_input(&self, other: &Run) -> bool {
        self.seed == other.seed
            && self.strategy == other.strategy
            && self.scenario == other.scenario
    }

    /// Simulate into `telemetry`, dropping the time series unless
    /// `series` asks for them.
    pub fn simulate(&self, telemetry: Telemetry) -> RunResult {
        let (scenario, strategy) = (self.scenario.clone(), self.strategy);
        let mut result =
            Simulation::new_with_telemetry(scenario, strategy, self.seed, telemetry).run();
        if !self.series {
            for series in [
                &mut result.energy_trace,
                &mut result.wifi_thpt_trace,
                &mut result.cell_thpt_trace,
                &mut result.wifi_capacity_trace,
            ] {
                *series = TimeSeries::new(std::mem::take(&mut series.name));
            }
        }
        result
    }
}

/// A list of plans with every run that appears more than once merged.
pub(crate) struct RunSet {
    /// The distinct runs, in order of first appearance. A run keeps its
    /// series if any entry asks.
    pub runs: Vec<Run>,
    /// The plan that first names each distinct run.
    pub owner: Vec<usize>,
    /// For each plan, the index into `runs` of each of its entries.
    pub entries: Vec<Vec<usize>>,
}

impl RunSet {
    /// Merge `plans`: a linear scan, since the keys hold `f64`s (no
    /// `Hash`, no `Ord`) and a few hundred entries take microseconds.
    pub fn of(plans: &[Vec<Run>]) -> RunSet {
        let (mut runs, mut owner) = (Vec::<Run>::new(), Vec::new());
        let mut entries = Vec::with_capacity(plans.len());
        for (p, plan) in plans.iter().enumerate() {
            let mut indices = Vec::with_capacity(plan.len());
            for run in plan {
                let i = match runs.iter().position(|r| r.same_input(run)) {
                    Some(i) => i,
                    None => {
                        runs.push(run.clone());
                        owner.push(p);
                        runs.len() - 1
                    }
                };
                runs[i].series |= run.series;
                indices.push(i);
            }
            entries.push(indices);
        }
        RunSet {
            runs,
            owner,
            entries,
        }
    }

    /// `(requested, distinct)`: entries over all plans, and how many
    /// different inputs they name.
    pub fn counts(&self) -> (usize, usize) {
        let requested = self.entries.iter().map(Vec::len).sum();
        (requested, self.runs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DeviceKind, WifiEnvironment};
    use emptcp::EmptcpConfig;
    use emptcp_phy::IfaceKind;

    #[test]
    fn keys_compare_the_whole_input_not_the_name() {
        let run = |scenario, strategy| Run::new(scenario, strategy, 1);
        let (bad, mptcp) = (Scenario::static_bad_wifi, Strategy::Mptcp);
        // `devices` reuses "static-bad-wifi" across profiles and radios.
        let (mut nexus, mut threeg) = (bad(), bad());
        nexus.device = DeviceKind::Nexus5;
        threeg.cell_kind = IfaceKind::Cellular3g;
        // `sweep_hold` reuses "bandwidth-changes" across holding times.
        let mut slow = Scenario::bandwidth_changes();
        slow.wifi = WifiEnvironment::Modulated {
            mean_hold_s: 80.0,
            start_high: false,
        };
        // `sweep_kappa` and `ablations` vary one field of the config.
        let mut kappa = EmptcpConfig::default();
        kappa.delay.kappa_bytes = 64 << 10;
        let distinct = vec![
            run(bad(), mptcp),
            run(nexus, mptcp),
            run(threeg, mptcp),
            run(Scenario::bandwidth_changes(), mptcp),
            run(slow, mptcp),
            run(bad(), Strategy::emptcp_default()),
            run(bad(), Strategy::Emptcp(kappa)),
            Run::new(bad(), mptcp, 2),
        ];
        let n = distinct.len();
        assert_eq!(RunSet::of(std::slice::from_ref(&distinct)).counts(), (n, n));
        // Identical inputs are one run, however often they are planned.
        let set = RunSet::of(&[distinct.clone(), Vec::new(), distinct]);
        assert_eq!(set.counts(), (2 * n, n));
        assert_eq!(set.entries[0], (0..n).collect::<Vec<_>>());
        assert_eq!(
            (&set.entries[2], &set.owner),
            (&set.entries[0], &vec![0; n])
        );
    }
}
