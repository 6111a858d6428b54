//! Greedy minimal-repro shrinking.
//!
//! The vendored proptest stub has no value trees and therefore no
//! shrinking, so the chaos fuzzer brings its own: classic greedy delta
//! debugging over the [`Scenario`] structure. Given a failing scenario and
//! a predicate that re-runs it (returning `true` while the failure still
//! reproduces), [`shrink`] repeatedly tries structure-reducing candidate
//! edits — drop a fault, halve the client count, shrink the transfer —
//! keeping each edit only if the candidate still validates *and* still
//! fails. The loop runs to a fixpoint, so the result is 1-minimal with
//! respect to the edit set: no single remaining edit can be applied
//! without losing the failure.
//!
//! Every candidate is validated before the predicate runs, so shrinking
//! can never escape the valid-scenario space (e.g. by dropping the restore
//! half of a rate-step pair).

use crate::host::Workload;
use crate::spec::{Scenario, World};
use emptcp_faults::spec::FaultSpec;
use emptcp_net::fleet::FleetConfig;
use emptcp_sim::SimDuration;

/// Maximum predicate evaluations per [`shrink`] call — a safety valve so a
/// flaky predicate cannot spin forever. Generously above what the greedy
/// pass needs on generator-sized scenarios.
pub const MAX_PREDICATE_RUNS: usize = 400;

/// Shrink `scenario` while `failing` keeps returning `true`. The input is
/// assumed to be failing; the result is the smallest failing scenario the
/// greedy edit set can reach.
pub fn shrink(scenario: Scenario, mut failing: impl FnMut(&Scenario) -> bool) -> Scenario {
    let mut best = scenario;
    let mut budget = MAX_PREDICATE_RUNS;
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if budget == 0 {
                return best;
            }
            if candidate.validate().is_err() {
                continue;
            }
            budget -= 1;
            if failing(&candidate) {
                best = candidate;
                improved = true;
                break; // restart candidate generation from the new best
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Candidate edits, most aggressive first: structural deletions, then
/// halvings of the remaining quantities.
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();

    // Drop each fault primitive.
    for i in 0..sc.faults.len() {
        let mut cand = sc.clone();
        cand.faults.remove(i);
        out.push(cand);
    }

    // Simplify remaining primitives (fewer flaps, shorter ramps).
    for i in 0..sc.faults.len() {
        if let Some(simpler) = simplify_fault(&sc.faults[i]) {
            let mut cand = sc.clone();
            cand.faults[i] = simpler;
            out.push(cand);
        }
    }

    match &sc.world {
        World::Fleet(cfg) => {
            let mut edit = |change: &dyn Fn(&mut FleetConfig)| {
                let mut cand = sc.clone();
                if let World::Fleet(c) = &mut cand.world {
                    change(c);
                }
                out.push(cand);
            };
            if cfg.clients > 1 {
                edit(&|c| c.clients = (c.clients / 2).max(1));
                edit(&|c| c.clients -= 1);
            }
            if cfg.cross_sources > 0 {
                edit(&|c| c.cross_sources = 0);
            }
            let dur_ms = cfg.duration.as_millis_f64() as u64;
            if dur_ms > 1_000 {
                edit(&|c| c.duration = SimDuration::from_millis((dur_ms / 2).max(1_000)));
            }
        }
        World::Host { scenario, .. } => {
            if let Workload::Download { size } = scenario.workload {
                if size > 64 << 10 {
                    let mut cand = sc.clone();
                    if let World::Host { scenario, .. } = &mut cand.world {
                        scenario.workload = Workload::Download {
                            size: (size / 2).max(64 << 10),
                        };
                    }
                    out.push(cand);
                }
            }
        }
    }

    out
}

fn simplify_fault(fault: &FaultSpec) -> Option<FaultSpec> {
    let mut simpler = fault.clone();
    match &mut simpler {
        FaultSpec::FlapTrain { flaps, .. } if *flaps > 1 => *flaps /= 2,
        FaultSpec::BandwidthCollapse { ramp_bps, .. } if !ramp_bps.is_empty() => {
            ramp_bps.pop();
        }
        _ => return None,
    }
    Some(simpler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::World;

    fn download_size(sc: &Scenario) -> Option<u64> {
        match &sc.world {
            World::Host { scenario, .. } => scenario.workload.owed_bytes(),
            World::Fleet(_) => None,
        }
    }

    #[test]
    fn shrinks_fault_count_to_the_failing_core() {
        // Find a generated fleet scenario with several faults and clients.
        let sc = (0..400)
            .map(|c| generate(3, c))
            .find(|s| {
                matches!(&s.world, World::Fleet(cfg) if cfg.clients >= 6) && s.faults.len() >= 2
            })
            .expect("generator produces a busy fleet scenario");
        // Failure predicate: "fails whenever at least one fault exists".
        let min = shrink(sc.clone(), |s| !s.faults.is_empty());
        assert_eq!(min.faults.len(), 1, "one fault must remain");
        if let World::Fleet(cfg) = &min.world {
            assert_eq!(cfg.clients, 1, "clients shrink to the floor");
            assert_eq!(cfg.cross_sources, 0);
        }
        assert_eq!(min.validate(), Ok(()));
    }

    #[test]
    fn shrinking_a_host_scenario_reduces_the_transfer() {
        let sc = (0..200)
            .map(|c| generate(5, c))
            .find(|s| download_size(s).is_some_and(|size| size > 256 << 10))
            .expect("generator produces a large host transfer");
        let min = shrink(sc, |s| matches!(&s.world, World::Host { .. }));
        assert_eq!(download_size(&min), Some(64 << 10));
        assert!(min.faults.is_empty());
    }

    #[test]
    fn non_shrinkable_failure_returns_the_input() {
        let sc = generate(9, 0);
        // Predicate that only the exact input satisfies.
        let frozen = sc.clone();
        let min = shrink(sc.clone(), move |s| *s == frozen);
        assert_eq!(min, sc);
    }
}
