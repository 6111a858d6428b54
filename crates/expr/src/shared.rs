//! Shared runs: within one [`crate::repro::run_exhibits`] call, each
//! `(scenario, strategy, seed)` is simulated once.
//!
//! In the paper Fig 12 is one run of the walk Fig 13 averages, Fig 7 one
//! run of Fig 8, Fig 9 one run of Fig 10; a host simulation is a pure
//! function of its inputs, so the exhibits can share it. [`run`] is the one
//! entry point every exhibit's host simulation goes through. It consults
//! the `RunMemo` of the enclosing `run_exhibits` call — installed as a
//! thread-current handle and handed to pool workers by
//! [`crate::runner::Scope::spawn`], exactly like the telemetry pipeline —
//! and outside such a call it is plain [`host::run`].
//!
//! * **Key.** The full input, compared by value: every field of the
//!   [`Scenario`] (device profile, radio, rates, WiFi environment,
//!   workload…), the [`Strategy`] with its `EmptcpConfig`, and the seed.
//!   Never the scenario *name*: `devices`, `sweep_kappa` and `sweep_hold`
//!   reuse names with different contents.
//! * **Replay.** A run reports into a registry and invariant observer of
//!   its own; whoever asks for it — the job that simulated it or one that
//!   found it done — folds those into its own pipeline
//!   ([`Telemetry::absorb`]). Every job's counters and violations are
//!   therefore what they would be had it simulated everything itself.
//! * **Waiting.** A key another worker is simulating is waited for, not
//!   simulated twice. The wait cannot deadlock the pool's helping scopes:
//!   a host run is a leaf that spawns no pool work, so the thread being
//!   waited on never needs the waiter.
//! * **Trace bypass.** When the asking job records a trace the run goes
//!   straight into that job's sink, as if there were no memo: its events
//!   belong in that job's file, in place.
//! * **Series.** A result's four time series are most of its bytes, and
//!   only the single-run figures read them. `run_exhibits` names those
//!   figures' runs up front ([`crate::figures::series_runs`], the list the
//!   figures themselves simulate from); a memoized result keeps its series
//!   only if its key is among them, for every asker alike.

use crate::host::{self, RunResult, Simulation};
use crate::scenario::Scenario;
use crate::strategy::Strategy;
use emptcp_sim::trace::TimeSeries;
use emptcp_telemetry::{MetricsRegistry, Telemetry, Violation};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything a host run is a function of. `seed` comes first so most
/// mismatches cost one integer comparison.
#[derive(Clone, PartialEq)]
struct RunKey {
    seed: u64,
    strategy: Strategy,
    scenario: Scenario,
}

/// What a finished run hands every job that asked for it.
struct SharedRun {
    result: RunResult,
    metrics: MetricsRegistry,
    violations: Vec<Violation>,
}

type Slot = Arc<OnceLock<SharedRun>>;

/// The runs one `run_exhibits` call has asked for so far.
#[derive(Default)]
pub(crate) struct RunMemo {
    /// Runs whose results keep their time series.
    series: Vec<RunKey>,
    /// A few hundred entries whose keys hold `f64`s (no `Hash`, no `Ord`):
    /// a linear scan, microseconds against the simulation it saves.
    slots: Mutex<Vec<(RunKey, Slot)>>,
    requested: AtomicUsize,
}

impl RunMemo {
    /// A memo for one call, keeping time series for `series` only.
    pub(crate) fn keeping_series(
        series: impl IntoIterator<Item = (Scenario, Strategy, u64)>,
    ) -> RunMemo {
        RunMemo {
            series: series
                .into_iter()
                .map(|(scenario, strategy, seed)| RunKey {
                    seed,
                    strategy,
                    scenario,
                })
                .collect(),
            ..RunMemo::default()
        }
    }

    /// `(requested, distinct)`: host runs asked for, and how many different
    /// inputs they named. Both depend on the request alone, never on
    /// scheduling.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let distinct = self.slots.lock().expect("run memo poisoned").len();
        (self.requested.load(Ordering::Relaxed), distinct)
    }

    /// The slot for `key`, created empty if this is the first request.
    fn slot(&self, key: RunKey) -> Slot {
        self.requested.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.lock().expect("run memo poisoned");
        if let Some((_, slot)) = slots.iter().find(|(k, _)| *k == key) {
            return slot.clone();
        }
        let slot = Slot::default();
        slots.push((key, slot.clone()));
        slot
    }
}

thread_local! {
    /// The memo of the `run_exhibits` call this thread is working for.
    static CURRENT: RefCell<Option<Arc<RunMemo>>> = const { RefCell::new(None) };
}

/// This thread's memo, for [`crate::runner::Scope::spawn`] to carry across
/// to whichever thread runs the spawned job.
pub(crate) fn current_memo() -> Option<Arc<RunMemo>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Run `f` with `memo` as this thread's memo, restoring the previous one
/// afterwards (also on panic).
pub(crate) fn with_memo<R>(memo: Option<Arc<RunMemo>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<RunMemo>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(memo)));
    f()
}

/// Simulate into a pipeline of the run's own, with every check an exhibit
/// job runs under.
fn simulate(scenario: Scenario, strategy: Strategy, seed: u64, keep_series: bool) -> SharedRun {
    let own = Telemetry::builder().invariants(true).build();
    let mut result = Simulation::new_with_telemetry(scenario, strategy, seed, own.clone()).run();
    if !keep_series {
        for series in [
            &mut result.energy_trace,
            &mut result.wifi_thpt_trace,
            &mut result.cell_thpt_trace,
            &mut result.wifi_capacity_trace,
        ] {
            *series = TimeSeries::new(std::mem::take(&mut series.name));
        }
    }
    SharedRun {
        result,
        metrics: own.metrics().unwrap_or_default(),
        violations: own.violations(),
    }
}

/// One strategy through one scenario, for an exhibit: shared with every
/// other exhibit of the enclosing `run_exhibits` call that asks for the
/// same inputs, and reported into the calling thread's telemetry pipeline
/// either way. Inside such a call the result carries its time series only
/// if a single-run figure of the call plots this run.
pub fn run(scenario: Scenario, strategy: Strategy, seed: u64) -> RunResult {
    let Some(memo) = current_memo() else {
        return host::run(scenario, strategy, seed);
    };
    let key = RunKey {
        seed,
        strategy,
        scenario: scenario.clone(),
    };
    let keep_series = memo.series.contains(&key);
    let slot = memo.slot(key);
    let job = emptcp_telemetry::current();
    if job.tracing_active() {
        return host::run(scenario, strategy, seed);
    }
    // `get_or_init` blocks while another thread initialises the slot; if
    // that thread panics the slot stays empty and the next caller runs.
    let shared = slot.get_or_init(|| simulate(scenario, strategy, seed, keep_series));
    job.absorb(&shared.metrics, &shared.violations);
    shared.result.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DeviceKind, WifiEnvironment, Workload};
    use emptcp::EmptcpConfig;
    use emptcp_phy::IfaceKind;

    fn key(scenario: Scenario, strategy: Strategy) -> RunKey {
        RunKey {
            seed: 1,
            strategy,
            scenario,
        }
    }

    #[test]
    fn keys_compare_the_whole_input_not_the_name() {
        let memo = RunMemo::default();
        let mptcp = Strategy::Mptcp;

        // `devices` reuses "static-bad-wifi" across profiles and radios.
        let bad = Scenario::static_bad_wifi;
        let mut nexus = bad();
        nexus.device = DeviceKind::Nexus5;
        let mut threeg = bad();
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

        let distinct = [
            key(bad(), mptcp),
            key(nexus, mptcp),
            key(threeg, mptcp),
            key(Scenario::bandwidth_changes(), mptcp),
            key(slow, mptcp),
            key(bad(), Strategy::emptcp_default()),
            key(bad(), Strategy::Emptcp(kappa)),
            RunKey {
                seed: 2,
                ..key(bad(), mptcp)
            },
        ];
        let slots: Vec<Slot> = distinct.iter().map(|k| memo.slot(k.clone())).collect();
        assert_eq!(memo.counts(), (distinct.len(), distinct.len()));
        for (i, a) in slots.iter().enumerate() {
            for b in &slots[i + 1..] {
                assert!(!Arc::ptr_eq(a, b), "two inputs share a slot");
            }
        }
        // Identical inputs are one key, however often they are asked for.
        for (k, slot) in distinct.iter().zip(&slots) {
            assert!(Arc::ptr_eq(&memo.slot(k.clone()), slot));
        }
        assert_eq!(memo.counts(), (2 * distinct.len(), distinct.len()));
    }

    #[test]
    fn a_reused_run_replays_its_counters_and_result() {
        let scenario = || Scenario::static_good_wifi().with(Workload::Download { size: 256 << 10 });
        let job = || Telemetry::builder().invariants(true).build();
        let ask = |telemetry: &Telemetry| {
            emptcp_telemetry::with_current(telemetry.clone(), || {
                run(scenario(), Strategy::Mptcp, 5)
            })
        };
        // The reference: no memo, the job simulates for itself.
        let alone = job();
        let expected = ask(&alone);
        let json = |r: &RunResult| serde_json::to_string(r).unwrap();
        let counters = |t: &Telemetry| {
            let m = t.metrics().unwrap();
            m.counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect::<Vec<_>>()
        };

        // A run some figure of the call plots: whole, for both askers.
        let memo = Arc::new(RunMemo::keeping_series([(scenario(), Strategy::Mptcp, 5)]));
        let (first, second) = (job(), job());
        let (a, b) = with_memo(Some(memo.clone()), || (ask(&first), ask(&second)));
        assert_eq!(memo.counts(), (2, 1));
        for (result, telemetry) in [(&a, &first), (&b, &second)] {
            assert_eq!(json(result), json(&expected));
            assert_eq!(counters(telemetry), counters(&alone));
            assert!(telemetry.violations().is_empty());
        }

        // A run nobody plots: the same but for its series, dropped for the
        // first asker as for the second.
        let memo = Arc::new(RunMemo::default());
        let (first, second) = (job(), job());
        let (a, b) = with_memo(Some(memo), || (ask(&first), ask(&second)));
        assert_eq!(json(&a), json(&b));
        assert!(!expected.energy_trace.is_empty() && a.energy_trace.is_empty());
        assert_eq!(a.energy_trace.name, expected.energy_trace.name);
        let whole = RunResult {
            energy_trace: expected.energy_trace.clone(),
            wifi_thpt_trace: expected.wifi_thpt_trace.clone(),
            cell_thpt_trace: expected.cell_thpt_trace.clone(),
            wifi_capacity_trace: expected.wifi_capacity_trace.clone(),
            ..a
        };
        assert_eq!(json(&whole), json(&expected));
        assert_eq!(counters(&second), counters(&alone));
        assert!(current_memo().is_none(), "the memo outlived its call");
    }
}
