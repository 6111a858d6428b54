//! `benchmark compare A.json B.json`: hold B to the bounds against A.
//!
//! For every workload and end-to-end metric the verdict is one of
//!
//! * `regression` — B's median is worse than A's by more than the bound;
//! * `unresolved` — it is not, but the pass-to-pass spread of either side
//!   is wider than the bound, or a side made a single pass and has no
//!   spread to show, so "unchanged" would claim more than the runs do.
//!   Every B pass beating every A pass resolves it;
//! * `improved` — better by more than the bound, or every B pass better
//!   than every A pass;
//! * `unchanged` — none of the above.
//!
//! Every ratio is printed with its base. The comparison fails on a
//! regression, on a higher fail ratio, and on a workload or metric that
//! B lost.

use crate::measure::{median, quartiles};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use serde_json::Value;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Unresolved,
    Improved,
    Unchanged,
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Distance between the quartiles as a share of the median. A metric
/// read once per run (memory) has no passes and no spread; a timing with
/// one pass has a spread nobody measured, which counts as too wide.
fn spread(values: &[f64]) -> f64 {
    match values.len() {
        0 => 0.0,
        1 => f64::INFINITY,
        _ => {
            let (q1, q3) = quartiles(values);
            (q3 - q1) / median(values)
        }
    }
}

fn every_b_beats_every_a(better: Better, a: &[f64], b: &[f64]) -> bool {
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, start: f64| v.iter().copied().fold(start, f);
    match better {
        Better::Lower => fold(b, f64::max, f64::MIN) < fold(a, f64::min, f64::MAX),
        Better::Higher => fold(b, f64::min, f64::MAX) > fold(a, f64::max, f64::MIN),
    }
}

/// The rule, on one metric of one workload. `a` and `b` are the reported
/// medians, `a_passes` and `b_passes` the per-pass values behind them
/// (empty when the metric is read once per run).
pub fn verdict(m: &EndToEnd, a: f64, b: f64, a_passes: &[f64], b_passes: &[f64]) -> Verdict {
    let worse_by = worsening(m.better, a, b);
    let absolute = (b - a).abs();
    if worse_by > m.bound && absolute > m.floor {
        return Verdict::Regression;
    }
    let separated = a_passes.len() >= 2
        && b_passes.len() >= 2
        && every_b_beats_every_a(m.better, a_passes, b_passes);
    if spread(a_passes).max(spread(b_passes)) > m.bound {
        return if separated {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if separated || (worse_by < -m.bound && absolute > m.floor) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub struct Report {
    pub text: String,
    pub failed: bool,
}

fn floats(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_array)
        .map(|items| items.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn fail_ratio(detail: &Value) -> f64 {
    let n = |key: &str| detail.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    n("failed") / n("attempted").max(1.0)
}

/// Compare two `results.json` documents.
pub fn compare(a: &Value, b: &Value) -> Report {
    let mut text = String::new();
    let mut failed = false;
    let empty = serde_json::Map::new();
    let workloads = |doc: &Value| doc.get("workloads").and_then(Value::as_object).cloned();
    let a_workloads = workloads(a).unwrap_or_else(|| empty.clone());
    let b_workloads = workloads(b).unwrap_or_else(|| empty.clone());
    for (name, a_detail) in a_workloads.iter() {
        let _ = writeln!(text, "== {name}");
        let Some(b_detail) = b_workloads.get(name) else {
            let _ = writeln!(text, "  missing from B");
            failed = true;
            continue;
        };
        for m in END_TO_END.iter().filter(|m| m.on.holds(name)) {
            let read = |detail: &Value| {
                detail
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (read(a_detail), read(b_detail)) else {
                let _ = writeln!(text, "  {:<22} missing on one side", m.name);
                failed = true;
                continue;
            };
            let passes =
                |detail: &Value| floats(detail.get("per_pass").and_then(|p| p.get(m.name)));
            let (pa, pb) = (passes(a_detail), passes(b_detail));
            let v = verdict(m, va, vb, &pa, &pb);
            failed |= v == Verdict::Regression;
            let _ = writeln!(
                text,
                "  {:<22} {:<10} B/A {:.4} (A {va} {unit}, B {vb} {unit}; bound {:.0}%, spread A {:.1}% B {:.1}%)",
                m.name,
                format!("{v:?}").to_lowercase(),
                vb / va,
                m.bound * 100.0,
                spread(&pa) * 100.0,
                spread(&pb) * 100.0,
                unit = m.unit,
            );
        }
        let (fa, fb) = (fail_ratio(a_detail), fail_ratio(b_detail));
        let worse = fb > fa;
        failed |= worse;
        let _ = writeln!(
            text,
            "  {:<22} {:<10} A {fa} B {fb}",
            "fail_ratio",
            if worse { "regression" } else { "unchanged" }
        );
        let digest = |d: &Value| d.get("digest").and_then(Value::as_str).map(str::to_string);
        let same = digest(a_detail) == digest(b_detail);
        let _ = writeln!(
            text,
            "  {:<22} {}",
            "digest",
            if same { "identical" } else { "differs" }
        );
    }
    for (name, _) in b_workloads.iter() {
        if a_workloads.get(name).is_none() {
            let _ = writeln!(text, "== {name}\n  new in B");
        }
    }
    let _ = writeln!(text, "{}", if failed { "FAIL" } else { "ok" });
    Report { text, failed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::On;

    // The rule is tested on metrics of its own, so that a bound retuned
    // in the table does not move these cases.
    fn metric(better: Better, bound: f64, floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
            floor,
            on: On::All,
            listed: false,
        }
    }

    fn wall() -> EndToEnd {
        metric(Better::Lower, 0.10, 0.0)
    }

    fn rate() -> EndToEnd {
        metric(Better::Higher, 0.10, 0.0)
    }

    #[test]
    fn worse_than_the_bound_is_a_regression_in_either_direction() {
        let tight = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(&wall(), 10.0, 11.5, &tight, &[11.5, 11.4, 11.6]),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&rate(), 100.0, 85.0, &[100.0, 101.0], &[85.0, 86.0]),
            Verdict::Regression
        );
        // Within the bound, tight spread: unchanged.
        assert_eq!(
            verdict(&wall(), 10.0, 10.5, &tight, &[10.5, 10.4, 10.6]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&rate(), 100.0, 95.0, &[100.0, 101.0], &[95.0, 96.0]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        // Medians agree, but A's passes are spread 40% wide.
        let noisy = [8.0, 10.0, 12.0];
        assert_eq!(
            verdict(&wall(), 10.0, 10.2, &noisy, &[10.2, 10.1, 10.3]),
            Verdict::Unresolved
        );
        // ...unless every B pass beats every A pass.
        assert_eq!(
            verdict(&wall(), 10.0, 7.0, &noisy, &[7.0, 6.9, 7.1]),
            Verdict::Improved
        );
        // A regression stays a regression however noisy the runs.
        assert_eq!(
            verdict(&wall(), 10.0, 14.0, &noisy, &[14.0, 13.0, 15.0]),
            Verdict::Regression
        );
    }

    #[test]
    fn a_single_pass_cannot_claim_unchanged() {
        assert_eq!(
            verdict(&wall(), 10.0, 10.2, &[10.0], &[10.2]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&wall(), 10.0, 12.0, &[10.0], &[12.0]),
            Verdict::Regression
        );
    }

    #[test]
    fn better_than_the_bound_is_an_improvement() {
        assert_eq!(
            verdict(&rate(), 100.0, 120.0, &[100.0, 101.0], &[120.0, 119.0]),
            Verdict::Improved
        );
        // A metric read once per run has no spread to hide behind.
        let rss = metric(Better::Lower, 0.05, 0.0);
        assert_eq!(verdict(&rss, 100.0, 104.0, &[], &[]), Verdict::Unchanged);
        assert_eq!(verdict(&rss, 100.0, 106.0, &[], &[]), Verdict::Regression);
    }

    #[test]
    fn set_up_has_an_absolute_floor() {
        let setup = metric(Better::Lower, 0.25, 0.05);
        // 40% worse, but only 20 ms: under the 50 ms floor.
        assert_eq!(verdict(&setup, 0.05, 0.07, &[], &[]), Verdict::Unchanged);
        assert_eq!(verdict(&setup, 0.5, 0.7, &[], &[]), Verdict::Regression);
    }

    /// A `results.json` with one workload, `name`, that took `wall`
    /// seconds a pass and reports the metrics defined everywhere.
    fn doc(name: &str, wall: f64, failed: u64, digest: &str) -> Value {
        let text = format!(
            r#"{{"workloads":{{"{name}":{{"attempted":4,"failed":{failed},"digest":"{digest}",
            "per_pass":{{"wall_s":[{wall},{wall},{wall}]}},
            "metrics":{{
              "setup_s":{{"value":1.0,"unit":"s"}},"wall_s":{{"value":{wall},"unit":"s"}},
              "cpu_s":{{"value":1.0,"unit":"s"}},
              "peak_rss_bytes":{{"value":1.0,"unit":"B"}}}}}}}}}}"#
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn documents_compare_end_to_end() {
        let base = doc("exhibits_quick", 10.0, 0, "aa");
        let same = compare(&base, &doc("exhibits_quick", 10.2, 0, "aa"));
        assert!(!same.failed, "{}", same.text);
        assert!(same.text.contains("digest                 identical"));
        // A metric is looked for only where it is defined.
        assert!(!same.text.contains("pkts_per_s"), "{}", same.text);
        let slower = compare(&base, &doc("exhibits_quick", 14.0, 0, "aa"));
        assert!(slower.failed && slower.text.contains("regression"));
        let broken = compare(&base, &doc("exhibits_quick", 10.0, 1, "bb"));
        assert!(broken.failed && broken.text.contains("differs"));
        let lost = compare(&base, &serde_json::from_str(r#"{"workloads":{}}"#).unwrap());
        assert!(lost.failed);
        // A fleet that reports no packet rate has lost a metric.
        let fleet = doc("fleet_packets", 10.0, 0, "aa");
        let report = compare(&fleet, &fleet);
        assert!(
            report.failed && report.text.contains("pkts_per_s             missing"),
            "{}",
            report.text
        );
    }
}
