//! A miniature §5 in-the-wild study: sample environments across servers and
//! venues, run the three strategies per draw, and bin results by the
//! paper's Good/Bad 8 Mbps categorization.
//!
//! ```text
//! cargo run --release --example wild_study [iterations]
//! ```

use emptcp_repro::expr::runner::{par_map, Runner};
use emptcp_repro::expr::wild::{self, Category};
use emptcp_repro::expr::{host, RunResult};
use emptcp_repro::sim::stats::WhiskerSummary;

fn main() {
    let iterations: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    println!("Sampling {iterations} iterations x 3 servers x 3 venues, 2 MB downloads...\n");
    // The study is a plan of host runs and a reduction over their results.
    let plan = wild::plan(2 << 20, iterations, 2026);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results: Vec<RunResult> = Runner::new(jobs).install(|| {
        par_map(plan.len(), |i| {
            let run = &plan[i];
            host::run(run.scenario.clone(), run.strategy, run.seed)
        })
    });
    let traces = wild::traces(&plan, &results.iter().collect::<Vec<_>>());

    for cat in Category::ALL {
        let in_cat: Vec<_> = traces.iter().filter(|t| t.category == cat).collect();
        println!("{} ({} traces)", cat.label(), in_cat.len());
        if in_cat.is_empty() {
            continue;
        }
        for (label, pick) in [("MPTCP", 0usize), ("eMPTCP", 1), ("TCP over WiFi", 2)] {
            let energies: Vec<f64> = in_cat
                .iter()
                .map(|t| match pick {
                    0 => t.mptcp.energy_j,
                    1 => t.emptcp.energy_j,
                    _ => t.tcp_wifi.energy_j,
                })
                .collect();
            if let Some(w) = WhiskerSummary::of(&energies) {
                println!(
                    "  {:<16} energy median {:>7.2} J  (IQR {:>6.2}..{:<6.2}, {} outliers)",
                    label,
                    w.median,
                    w.q1,
                    w.q3,
                    w.outliers.len()
                );
            }
        }
    }

    println!(
        "\nThe paper's §5 headline falls out of the categories: wherever WiFi is\n\
         good, eMPTCP matches TCP-over-WiFi and undercuts MPTCP by the LTE fixed\n\
         costs; where WiFi is bad, it recruits LTE and matches MPTCP instead."
    );
}
