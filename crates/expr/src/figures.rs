//! One runner per table and figure of the paper.
//!
//! Each function regenerates the data behind one exhibit and returns a
//! [`FigureOutput`] (printable tables + raw JSON). The [`Config`] scales
//! the experiments: [`Config::full`] uses the paper's sizes and run counts
//! (what EXPERIMENTS.md records), [`Config::quick`] shrinks transfers for
//! benches and smoke tests while exercising identical code paths.

use crate::host::RunResult;
use crate::mdp::MdpPolicy;
use crate::report::{f, pm, FigureOutput, Table};
use crate::runner;
use crate::scenario::{Scenario, Workload};
use crate::shared::run;
use crate::strategy::Strategy;
use crate::wild::{self, Category, WildTrace};
use emptcp::delay::min_tau;
use emptcp_energy::eib::efficiency_heatmap;
use emptcp_energy::region::{mptcp_region, region_area};
use emptcp_energy::{DeviceProfile, Eib, EnergyModel};
use emptcp_sim::stats::{MeanSem, WhiskerSummary};
use emptcp_sim::SimDuration;
use emptcp_workload::download::{KB, MB};
use serde::Serialize;

/// Experiment scale.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Runs per (scenario, strategy) cell.
    pub runs: usize,
    /// The §4 bulk transfer size.
    pub bulk_size: u64,
    /// The §5 "large" transfer size.
    pub large_size: u64,
    /// Wild-study iterations per (server, venue).
    pub wild_iterations: u32,
    /// Client stacks in the fleet exhibit's shared-bottleneck run.
    pub fleet_clients: usize,
    /// Shard count for the fleet exhibit's sharded engine; `None` picks a
    /// deterministic default from `fleet_clients`. The report is
    /// byte-identical for every value, so this is purely a wall-clock
    /// knob (`repro --shards N`).
    pub fleet_shards: Option<usize>,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// Paper-scale settings.
    pub fn full() -> Config {
        Config {
            runs: 5,
            bulk_size: 256 * MB,
            large_size: 16 * MB,
            wild_iterations: 10,
            fleet_clients: 100,
            fleet_shards: None,
            seed: 0xE0_07C9,
        }
    }

    /// Shrunk settings for benches and smoke tests.
    pub fn quick() -> Config {
        Config {
            runs: 2,
            bulk_size: 8 * MB,
            large_size: 2 * MB,
            wild_iterations: 1,
            fleet_clients: 32,
            fleet_shards: None,
            seed: 0xE0_07C9,
        }
    }

    /// The shard count the fleet exhibit runs with: the explicit
    /// `fleet_shards` override, else a deterministic function of the
    /// population (8 shards once the fleet is large enough for the
    /// partition to pay for its barriers, 1 below that). Never depends on
    /// the worker pool, so `--jobs` cannot change the output.
    pub fn fleet_shard_count(&self) -> usize {
        self.fleet_shards
            .unwrap_or(if self.fleet_clients >= 1024 { 8 } else { 1 })
    }

    /// The §4 bulk download at this scale.
    fn bulk(&self) -> Workload {
        Workload::Download {
            size: self.bulk_size,
        }
    }
}

/// Run `runs` seeded repetitions of a strategy through a scenario on the
/// current [`runner`] pool. Run `i` always simulates with seed
/// `seed0 + i·7919` and lands in slot `i`, so the result vector is
/// byte-identical for every pool size. When the current telemetry
/// pipeline writes a real trace, the repetitions run serially on the
/// calling thread instead, keeping trace JSONL ordering reproducible.
pub fn repeat_runs<F>(make: F, strategy: Strategy, runs: usize, seed0: u64) -> Vec<RunResult>
where
    F: Fn() -> Scenario + Sync,
{
    let seed_of = |i: usize| seed0.wrapping_add(i as u64 * 7919);
    runner::run_points(runs, |i| run(make(), strategy, seed_of(i)))
}

/// The runs behind the single-run figures. Figs 7, 9 and 12 each plot one
/// run per strategy — and export its time series — of the scenario Figs 8,
/// 10 and 13 average. This is the one list of those runs: the figures
/// simulate exactly these ([`run_series`]), and [`crate::repro`] tells the
/// shared-run memo to keep their series, which it drops from every other
/// run it holds. Empty for every other exhibit.
pub(crate) fn series_runs(id: &str, cfg: &Config) -> Vec<(Scenario, Strategy, u64)> {
    let bulk = cfg.bulk();
    let lab = lab_strategies();
    let (scenario, strategies) = match id {
        "fig7" => (Scenario::bandwidth_changes().with(bulk), &lab[..]),
        "fig9" => (Scenario::background_traffic(2, 0.025).with(bulk), &lab[..2]),
        "fig12" => (Scenario::mobility(), &lab[..]),
        _ => return Vec::new(),
    };
    strategies
        .iter()
        .map(|&strategy| (scenario.clone(), strategy, cfg.seed))
        .collect()
}

/// Simulate a single-run figure's runs, one sweep point each.
fn run_series(id: &str, cfg: &Config) -> Vec<RunResult> {
    let runs = series_runs(id, cfg);
    runner::run_points(runs.len(), |i| {
        let (scenario, strategy, seed) = runs[i].clone();
        run(scenario, strategy, seed)
    })
}

#[derive(Serialize)]
struct StrategySummary {
    strategy: String,
    energy: MeanSem,
    time: MeanSem,
    wifi_bytes: f64,
    cell_bytes: f64,
    completed: usize,
    runs: usize,
}

/// The mean of one quantity over the runs, summed in run order.
fn mean_of(results: &[RunResult], x: impl Fn(&RunResult) -> f64) -> f64 {
    results.iter().map(x).sum::<f64>() / results.len() as f64
}

fn summarize(results: &[RunResult]) -> StrategySummary {
    StrategySummary {
        strategy: results[0].strategy.clone(),
        energy: MeanSem::over(results, |r| r.energy_j),
        time: MeanSem::over(results, |r| r.download_time_s),
        wifi_bytes: mean_of(results, |r| r.wifi_bytes as f64),
        cell_bytes: mean_of(results, |r| r.cell_bytes as f64),
        completed: results.iter().filter(|r| r.completed).count(),
        runs: results.len(),
    }
}

fn energy_time_table(title: &str, summaries: &[StrategySummary]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "strategy",
            "energy (J)",
            "time (s)",
            "wifi MB",
            "cell MB",
            "done",
        ],
    );
    for s in summaries {
        t.row(vec![
            s.strategy.clone(),
            pm(s.energy.mean, s.energy.sem),
            pm(s.time.mean, s.time.sem),
            f(s.wifi_bytes / MB as f64),
            f(s.cell_bytes / MB as f64),
            format!("{}/{}", s.completed, s.runs),
        ]);
    }
    t
}

// ----------------------------------------------------------------------
// Model-only exhibits (no simulation needed)
// ----------------------------------------------------------------------

/// Table 1: device specifications.
pub fn table1() -> FigureOutput {
    let mut t = Table::new(
        "Table 1: Mobile devices",
        &["property", "Samsung Galaxy S3", "LG Nexus 5"],
    );
    for (k, a, b) in [
        ("Release date", "May 2012", "Nov 2013"),
        ("App. processor", "Qualcomm MSM8960", "Qualcomm 8974-AA"),
        ("Semiconductor", "28nm LP", "28nm HPM"),
        ("Android version", "4.1.2 (Jelly Bean)", "4.4.4 (KitKat)"),
        ("Kernel version", "3.0.48", "3.4.0"),
        ("WiFi chipset", "Broadcom BCM4334", "Broadcom BCM4339"),
    ] {
        t.row(vec![k.into(), a.into(), b.into()]);
    }
    FigureOutput::new("table1", vec![t], ())
}

/// Fig 1: fixed energy overheads of WiFi / 3G / LTE on both devices.
pub fn fig1() -> FigureOutput {
    let mut t = Table::new(
        "Fig 1: Fixed energy cost (J): promotion + tail per activation",
        &["device", "WiFi", "3G", "LTE"],
    );
    let mut payload = Vec::new();
    for profile in [DeviceProfile::galaxy_s3(), DeviceProfile::nexus_5()] {
        let (wifi, threeg, lte) = profile.fixed_overheads_j();
        t.row(vec![profile.name.clone(), f(wifi), f(threeg), f(lte)]);
        payload.push((profile.name.clone(), wifi, threeg, lte));
    }
    FigureOutput::new("fig1", vec![t], payload)
}

/// Table 2: the Energy Information Base thresholds.
pub fn table2() -> FigureOutput {
    let model = EnergyModel::galaxy_s3_lte();
    let eib = Eib::generate_default(&model);
    let mut t = Table::new(
        "Table 2: EIB (Galaxy S3, LTE): WiFi-throughput transition points",
        &[
            "LTE thpt (Mbps)",
            "LTE-only below",
            "WiFi-only at/above",
            "paper LTE-only",
            "paper WiFi-only",
        ],
    );
    let paper = [
        (0.5, 0.043, 0.234),
        (1.0, 0.134, 0.502),
        (1.5, 0.209, 0.803),
        (2.0, 0.304, 1.070),
    ];
    let mut payload = Vec::new();
    for (cell, p1, p2) in paper {
        let (t1, t2) = eib.thresholds(cell);
        t.row(vec![f(cell), f(t1), f(t2), f(p1), f(p2)]);
        payload.push((cell, t1, t2, p1, p2));
    }
    FigureOutput::new("table2", vec![t], payload)
}

/// Fig 3: the per-byte efficiency heat map with its V-region. The paper
/// plots the Galaxy S3; the JSON payload carries the Nexus 5's map too.
pub fn fig3() -> FigureOutput {
    let model = EnergyModel::galaxy_s3_lte();
    let grid: Vec<f64> = (1..=40).map(|i| i as f64 * 0.25).collect();
    let map = efficiency_heatmap(&model, &grid, &grid);
    let n5 = EnergyModel::new(DeviceProfile::nexus_5(), emptcp_phy::IfaceKind::CellularLte);
    let map_n5 = efficiency_heatmap(&n5, &grid, &grid);
    // ASCII rendition: rows = LTE (top = fast), cols = WiFi.
    let mut t = Table::new(
        "Fig 3: both-vs-best-single per-byte energy ratio ('#' < 0.95, '+' < 1.0, '.' >= 1.0)",
        &["LTE Mbps", "WiFi 0.25 -> 10 Mbps"],
    );
    for (i, row) in map.iter().enumerate().rev().step_by(2) {
        let line: String = row
            .iter()
            .step_by(1)
            .map(|&v| {
                if v < 0.95 {
                    '#'
                } else if v < 1.0 {
                    '+'
                } else {
                    '.'
                }
            })
            .collect();
        t.row(vec![f(grid[i]), line]);
    }
    FigureOutput::new(
        "fig3",
        vec![t],
        serde_json::json!({ "galaxy_s3": map, "nexus_5": map_n5, "grid_mbps": grid }),
    )
}

/// Fig 4: operating regions where MPTCP is most efficient for entire
/// transfers of 1/4/16 MB.
pub fn fig4() -> FigureOutput {
    let model = EnergyModel::galaxy_s3_lte();
    let cell_grid: Vec<f64> = (1..=24).map(|i| i as f64 * 0.5).collect();
    let mut t = Table::new(
        "Fig 4: WiFi interval (Mbps) where 'both' wins the whole transfer",
        &["LTE Mbps", "1 MB", "4 MB", "16 MB"],
    );
    let r1 = mptcp_region(&model, MB, &cell_grid, 6.0, 0.05);
    let r4 = mptcp_region(&model, 4 * MB, &cell_grid, 6.0, 0.05);
    let r16 = mptcp_region(&model, 16 * MB, &cell_grid, 6.0, 0.05);
    let fmt_range = |r: &Option<(f64, f64)>| match r {
        Some((lo, hi)) => format!("[{}..{}]", f(*lo), f(*hi)),
        None => "-".to_string(),
    };
    for i in 0..cell_grid.len() {
        t.row(vec![
            f(cell_grid[i]),
            fmt_range(&r1[i].wifi_range),
            fmt_range(&r4[i].wifi_range),
            fmt_range(&r16[i].wifi_range),
        ]);
    }
    let areas = (
        region_area(&r1, 0.5, 0.05),
        region_area(&r4, 0.5, 0.05),
        region_area(&r16, 0.5, 0.05),
    );
    let mut summary = Table::new("Fig 4 region areas (Mbps^2)", &["size", "area"]);
    summary.row(vec!["1 MB".into(), f(areas.0)]);
    summary.row(vec!["4 MB".into(), f(areas.1)]);
    summary.row(vec!["16 MB".into(), f(areas.2)]);
    FigureOutput::new("fig4", vec![t, summary], (r1, r4, r16))
}

/// Eq 1: the τ lower bound across WiFi conditions.
pub fn eq1() -> FigureOutput {
    let mut t = Table::new(
        "Eq 1: minimum tau (s) to collect phi=10 samples",
        &["WiFi Mbps", "RTT (ms)", "min tau (s)"],
    );
    let mut payload = Vec::new();
    for &(bw, rtt_ms) in &[
        (1.0, 25u64),
        (10.0, 25),
        (10.0, 100),
        (10.0, 190),
        (25.0, 50),
    ] {
        let tau = min_tau(bw, SimDuration::from_millis(rtt_ms), 14_280, 10);
        t.row(vec![f(bw), format!("{rtt_ms}"), f(tau.as_secs_f64())]);
        payload.push((bw, rtt_ms, tau.as_secs_f64()));
    }
    FigureOutput::new("eq1", vec![t], payload)
}

// ----------------------------------------------------------------------
// §4 controlled-lab experiments
// ----------------------------------------------------------------------

fn lab_strategies() -> [Strategy; 3] {
    [
        Strategy::Mptcp,
        Strategy::emptcp_default(),
        Strategy::TcpWifi,
    ]
}

/// `runs` seeded repetitions under each lab strategy, one sweep point per
/// strategy, summarized.
fn run_lab(make: impl Fn() -> Scenario + Sync, runs: usize, cfg: &Config) -> Vec<StrategySummary> {
    let strategies = lab_strategies();
    runner::run_points(strategies.len(), |i| {
        summarize(&repeat_runs(&make, strategies[i], runs, cfg.seed))
    })
}

/// Fig 5: static good WiFi.
pub fn fig5(cfg: &Config) -> FigureOutput {
    let make = || Scenario::static_good_wifi().with(cfg.bulk());
    let summaries = run_lab(make, cfg.runs, cfg);
    let t = energy_time_table("Fig 5: static good WiFi (>10 Mbps)", &summaries);
    FigureOutput::new("fig5", vec![t], summaries)
}

/// Fig 6: static bad WiFi.
pub fn fig6(cfg: &Config) -> FigureOutput {
    let make = || Scenario::static_bad_wifi().with(cfg.bulk());
    let summaries = run_lab(make, cfg.runs, cfg);
    let t = energy_time_table("Fig 6: static bad WiFi (<1 Mbps)", &summaries);
    FigureOutput::new("fig6", vec![t], summaries)
}

/// Fig 7: accumulated-energy time series under random bandwidth changes
/// (single run per strategy, traces exported).
pub fn fig7(cfg: &Config) -> FigureOutput {
    let runs = run_series("fig7", cfg);
    let mut t = Table::new(
        "Fig 7: random WiFi bandwidth changes, single-run traces",
        &["strategy", "energy (J)", "time (s)", "trace points"],
    );
    for r in &runs {
        t.row(vec![
            r.strategy.clone(),
            f(r.energy_j),
            f(r.download_time_s),
            format!("{}", r.energy_trace.len()),
        ]);
    }
    let mut out = FigureOutput::new("fig7", vec![t], &runs);
    for r in &runs {
        let tag = r.strategy.to_lowercase().replace(' ', "_");
        out = out
            .with_csv(&format!("energy_{tag}"), r.energy_trace.to_csv())
            .with_csv(
                &format!("wifi_capacity_{tag}"),
                r.wifi_capacity_trace.to_csv(),
            );
    }
    out
}

/// Fig 8: random bandwidth changes, mean ± SEM over many runs.
pub fn fig8(cfg: &Config) -> FigureOutput {
    let make = || Scenario::bandwidth_changes().with(cfg.bulk());
    let runs = (cfg.runs * 2).max(2); // the paper uses 10 here
    let summaries = run_lab(make, runs, cfg);
    let t = energy_time_table("Fig 8: random WiFi bandwidth changes", &summaries);
    FigureOutput::new("fig8", vec![t], summaries)
}

/// Fig 9: throughput traces with background traffic (n=2, λoff=0.025).
pub fn fig9(cfg: &Config) -> FigureOutput {
    let runs = run_series("fig9", cfg);
    let mut t = Table::new(
        "Fig 9: background traffic traces (n=2, lambda_off=0.025)",
        &["strategy", "wifi MB", "cell MB", "time (s)"],
    );
    for r in &runs {
        t.row(vec![
            r.strategy.clone(),
            f(r.wifi_bytes as f64 / MB as f64),
            f(r.cell_bytes as f64 / MB as f64),
            f(r.download_time_s),
        ]);
    }
    let mut out = FigureOutput::new("fig9", vec![t], &runs);
    for r in &runs {
        let tag = r.strategy.to_lowercase().replace(' ', "_");
        out = out
            .with_csv(&format!("wifi_{tag}"), r.wifi_thpt_trace.to_csv())
            .with_csv(&format!("lte_{tag}"), r.cell_thpt_trace.to_csv());
    }
    out
}

/// Fig 10: background-traffic sweep, energy and time relative to MPTCP.
pub fn fig10(cfg: &Config) -> FigureOutput {
    let combos = [(2usize, 0.025f64), (3, 0.025), (3, 0.05)];
    let mut t = Table::new(
        "Fig 10: relative to MPTCP (100%), background traffic",
        &["setting", "strategy", "energy %", "time %"],
    );
    let mut payload = Vec::new();
    // One sweep point per (n, λoff) combination; each point needs its
    // MPTCP baseline before the relative numbers, so the three strategies
    // stay nested inside the point.
    let cells = runner::run_points(combos.len(), |ci| {
        let (n, loff) = combos[ci];
        let make = || Scenario::background_traffic(n, loff).with(cfg.bulk());
        let base = summarize(&repeat_runs(make, Strategy::Mptcp, cfg.runs, cfg.seed));
        [Strategy::emptcp_default(), Strategy::TcpWifi]
            .into_iter()
            .map(|st| {
                let s = summarize(&repeat_runs(make, st, cfg.runs, cfg.seed));
                let e_pct = 100.0 * s.energy.mean / base.energy.mean;
                let t_pct = 100.0 * s.time.mean / base.time.mean;
                (n, loff, s.strategy.clone(), e_pct, t_pct)
            })
            .collect::<Vec<_>>()
    });
    for (n, loff, strategy, e_pct, t_pct) in cells.into_iter().flatten() {
        t.row(vec![
            format!("n={n}, loff={loff}"),
            strategy.clone(),
            f(e_pct),
            f(t_pct),
        ]);
        payload.push((n, loff, strategy, e_pct, t_pct));
    }
    FigureOutput::new("fig10", vec![t], payload)
}

/// Fig 12: mobility accumulated-energy traces (single run per strategy).
pub fn fig12(cfg: &Config) -> FigureOutput {
    let runs = run_series("fig12", cfg);
    let mut t = Table::new(
        "Fig 12: mobility walk, single-run summary",
        &["strategy", "energy (J)", "downloaded MB", "J/MB"],
    );
    for r in &runs {
        t.row(vec![
            r.strategy.clone(),
            f(r.energy_j),
            f(r.bytes_delivered as f64 / MB as f64),
            f(r.energy_j / (r.bytes_delivered as f64 / MB as f64)),
        ]);
    }
    let mut out = FigureOutput::new("fig12", vec![t], &runs);
    for r in &runs {
        let tag = r.strategy.to_lowercase().replace(' ', "_");
        out = out.with_csv(&format!("energy_{tag}"), r.energy_trace.to_csv());
    }
    out
}

/// Fig 13: mobility, per-byte energy and download amount (mean ± SEM).
pub fn fig13(cfg: &Config) -> FigureOutput {
    let mut t = Table::new(
        "Fig 13: mobility walk over 250 s",
        &["strategy", "uJ/byte", "downloaded (MB)"],
    );
    let mut payload = Vec::new();
    let strategies = lab_strategies();
    let per_strategy = runner::run_points(strategies.len(), |i| {
        repeat_runs(Scenario::mobility, strategies[i], cfg.runs, cfg.seed)
    });
    for (&st, results) in strategies.iter().zip(&per_strategy) {
        let jpb = MeanSem::over(results, |r| r.joules_per_byte * 1e6);
        let amount = MeanSem::over(results, |r| r.bytes_delivered as f64 / MB as f64);
        t.row(vec![
            st.label().to_string(),
            pm(jpb.mean, jpb.sem),
            pm(amount.mean, amount.sem),
        ]);
        payload.push((st.label().to_string(), jpb, amount));
    }
    FigureOutput::new("fig13", vec![t], payload)
}

/// §4.6: WiFi-First and the MDP scheduler against eMPTCP.
pub fn sec46(cfg: &Config) -> FigureOutput {
    let policy = MdpPolicy::pluntke(&EnergyModel::galaxy_s3_lte());
    let mut policy_table = Table::new(
        "Sec 4.6: Pluntke MDP policy structure",
        &["metric", "value"],
    );
    policy_table.row(vec![
        "WiFi-only fraction of states".into(),
        f(policy.wifi_only_fraction()),
    ]);
    policy_table.row(vec!["demand (Mbps)".into(), f(policy.demand_mbps())]);

    // Compare on the mobility scenario (where WiFi-First's weakness shows:
    // the WiFi association never breaks, so it degenerates to TCP/WiFi).
    let strategies = [
        Strategy::emptcp_default(),
        Strategy::WifiFirst,
        Strategy::MdpScheduler,
        Strategy::TcpWifi,
    ];
    let mut t = Table::new(
        "Sec 4.6: existing approaches on the mobility walk",
        &["strategy", "energy (J)", "downloaded MB", "cell MB"],
    );
    let mut payload = Vec::new();
    let per_strategy = runner::run_points(strategies.len(), |i| {
        repeat_runs(Scenario::mobility, strategies[i], cfg.runs, cfg.seed)
    });
    for (&st, results) in strategies.iter().zip(&per_strategy) {
        let e = MeanSem::over(results, |r| r.energy_j);
        let dl = MeanSem::over(results, |r| r.bytes_delivered as f64 / MB as f64);
        let cell = mean_of(results, |r| r.cell_bytes as f64) / MB as f64;
        t.row(vec![
            st.label().to_string(),
            pm(e.mean, e.sem),
            pm(dl.mean, dl.sem),
            f(cell),
        ]);
        payload.push((st.label().to_string(), e, dl, cell));
    }
    FigureOutput::new("sec46", vec![policy_table, t], payload)
}

/// Extension: the handover scenario (WiFi association lost for 30 s
/// mid-download) across every strategy — the §4.6 comparison on the case
/// Single-Path mode and WiFi-First were actually built for.
pub fn handover(cfg: &Config) -> FigureOutput {
    let strategies = [
        Strategy::Mptcp,
        Strategy::emptcp_default(),
        Strategy::TcpWifi,
        Strategy::WifiFirst,
        Strategy::SinglePath,
    ];
    let mut t = Table::new(
        "Extension: 64 MB download across a 30 s WiFi association outage",
        &[
            "strategy",
            "energy (J)",
            "time (s)",
            "cell MB",
            "promotions",
        ],
    );
    let mut payload = Vec::new();
    let per_strategy = runner::run_points(strategies.len(), |i| {
        repeat_runs(Scenario::wifi_outage, strategies[i], cfg.runs, cfg.seed)
    });
    for (&st, results) in strategies.iter().zip(&per_strategy) {
        let e = MeanSem::over(results, |r| r.energy_j);
        let time = MeanSem::over(results, |r| r.download_time_s);
        let cell = mean_of(results, |r| r.cell_bytes as f64) / MB as f64;
        let promos = mean_of(results, |r| r.promotions as f64);
        t.row(vec![
            st.label().to_string(),
            pm(e.mean, e.sem),
            pm(time.mean, time.sem),
            f(cell),
            f(promos),
        ]);
        payload.push((st.label().to_string(), e, time, cell, promos));
    }
    FigureOutput::new("handover", vec![t], payload)
}

// ----------------------------------------------------------------------
// §5 in-the-wild
// ----------------------------------------------------------------------

fn whisker_tables(title: &str, traces: &[WildTrace]) -> (Vec<Table>, serde_json::Value) {
    let mut tables = Vec::new();
    let mut payload = serde_json::Map::new();
    for cat in Category::ALL {
        let in_cat: Vec<&WildTrace> = traces.iter().filter(|t| t.category == cat).collect();
        let mut t = Table::new(
            format!("{title} — {} (n={})", cat.label(), in_cat.len()),
            &[
                "strategy",
                "median E (J)",
                "Q1..Q3 E",
                "median T (s)",
                "Q1..Q3 T",
            ],
        );
        let mut cat_payload = serde_json::Map::new();
        for (label, extract) in [("MPTCP", 0usize), ("eMPTCP", 1), ("TCP over WiFi", 2)] {
            fn pick(tr: &WildTrace, which: usize) -> &RunResult {
                match which {
                    0 => &tr.mptcp,
                    1 => &tr.emptcp,
                    _ => &tr.tcp_wifi,
                }
            }
            let energies: Vec<f64> = in_cat.iter().map(|tr| pick(tr, extract).energy_j).collect();
            let times: Vec<f64> = in_cat
                .iter()
                .map(|tr| pick(tr, extract).download_time_s)
                .collect();
            match (WhiskerSummary::of(&energies), WhiskerSummary::of(&times)) {
                (Some(we), Some(wt)) => {
                    t.row(vec![
                        label.to_string(),
                        f(we.median),
                        format!("{}..{}", f(we.q1), f(we.q3)),
                        f(wt.median),
                        format!("{}..{}", f(wt.q1), f(wt.q3)),
                    ]);
                    cat_payload.insert(
                        label.to_string(),
                        serde_json::json!({ "energy": we, "time": wt }),
                    );
                }
                _ => t.row(vec![
                    label.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
        tables.push(t);
        payload.insert(
            cat.label().to_string(),
            serde_json::Value::Object(cat_payload),
        );
    }
    (tables, serde_json::Value::Object(payload))
}

/// The §5 study of large transfers that Figs 14 and 16 both read; within
/// one `run_exhibits` call the second to ask replays the first's runs.
fn large_study(cfg: &Config) -> Vec<WildTrace> {
    wild::run_study(cfg.large_size, cfg.wild_iterations, cfg.seed ^ 0xAA)
}

/// Fig 14: the wild-trace scatter and categorization (16 MB downloads).
pub fn fig14(cfg: &Config) -> FigureOutput {
    let traces = large_study(cfg);
    let mut t = Table::new(
        "Fig 14: trace categories (16 MB downloads)",
        &["category", "traces", "share %"],
    );
    let total = traces.len().max(1);
    for cat in Category::ALL {
        let n = traces.iter().filter(|tr| tr.category == cat).count();
        t.row(vec![
            cat.label().to_string(),
            format!("{n}"),
            f(100.0 * n as f64 / total as f64),
        ]);
    }
    let scatter: Vec<(f64, f64, String)> = traces
        .iter()
        .map(|tr| {
            (
                tr.mptcp.avg_wifi_mbps,
                tr.mptcp.avg_cell_mbps,
                format!("{:?}", tr.category),
            )
        })
        .collect();
    FigureOutput::new("fig14", vec![t], scatter)
}

/// Fig 15: small (256 KB) transfers in the wild.
pub fn fig15(cfg: &Config) -> FigureOutput {
    let traces = wild::run_study(256 * KB, cfg.wild_iterations, cfg.seed ^ 0x55);
    let (tables, payload) = whisker_tables("Fig 15: 256 KB downloads", &traces);
    FigureOutput::new("fig15", tables, payload)
}

/// Fig 16: large transfers in the wild.
pub fn fig16(cfg: &Config) -> FigureOutput {
    let (tables, payload) = whisker_tables("Fig 16: 16 MB downloads", &large_study(cfg));
    FigureOutput::new("fig16", tables, payload)
}

/// Fig 17: the web-browsing case study.
pub fn fig17(cfg: &Config) -> FigureOutput {
    let summaries = run_lab(Scenario::web_browsing, cfg.runs.max(3), cfg);
    let mut t = Table::new(
        "Fig 17: web browsing (107 objects, 6 connections)",
        &["strategy", "energy (J)", "latency (s)", "cell MB"],
    );
    for s in &summaries {
        t.row(vec![
            s.strategy.clone(),
            pm(s.energy.mean, s.energy.sem),
            pm(s.time.mean, s.time.sem),
            f(s.cell_bytes / MB as f64),
        ]);
    }
    FigureOutput::new("fig17", vec![t], summaries)
}

/// Extension: both Table 1 devices and both cellular radios through the
/// same 16 MB bad-WiFi download — the device dimension the paper carries
/// through Figs 1/3 but only evaluates on the Galaxy S3.
pub fn devices(cfg: &Config) -> FigureOutput {
    use crate::scenario::DeviceKind;
    use emptcp_phy::IfaceKind;
    let mut t = Table::new(
        "Extension: device/radio grid, 16 MB download on bad WiFi",
        &["device", "radio", "strategy", "energy (J)", "time (s)"],
    );
    let mut payload = Vec::new();
    let grid = [
        ("Galaxy S3", DeviceKind::GalaxyS3, IfaceKind::CellularLte),
        ("Galaxy S3", DeviceKind::GalaxyS3, IfaceKind::Cellular3g),
        ("Nexus 5", DeviceKind::Nexus5, IfaceKind::CellularLte),
        ("Nexus 5", DeviceKind::Nexus5, IfaceKind::Cellular3g),
    ];
    // One sweep point per (device, radio) cell.
    let cells = runner::run_points(grid.len(), |gi| {
        let (dev_name, device, kind) = &grid[gi];
        let make = || {
            let mut s = Scenario::static_bad_wifi().with(Workload::Download { size: 16 * MB });
            s.device = *device;
            s.cell_kind = *kind;
            // 3G tops out far lower than LTE.
            if *kind == IfaceKind::Cellular3g {
                s.cell_bps = 3_000_000;
            }
            s
        };
        [Strategy::Mptcp, Strategy::emptcp_default()]
            .into_iter()
            .map(|st| {
                let results = repeat_runs(make, st, cfg.runs.min(3), cfg.seed);
                let e = MeanSem::over(&results, |r| r.energy_j);
                let time = MeanSem::over(&results, |r| r.download_time_s);
                (*dev_name, kind.label(), st.label().to_string(), e, time)
            })
            .collect::<Vec<_>>()
    });
    for (dev_name, kind_label, st_label, e, time) in cells.into_iter().flatten() {
        t.row(vec![
            dev_name.to_string(),
            kind_label.to_string(),
            st_label.clone(),
            pm(e.mean, e.sem),
            pm(time.mean, time.sem),
        ]);
        payload.push((dev_name, kind_label, st_label, e, time));
    }
    FigureOutput::new("devices", vec![t], payload)
}

/// Extension: ablations of eMPTCP's design choices, quantifying what each
/// mechanism buys (DESIGN.md §5/§8 call these out).
pub fn ablations(cfg: &Config) -> FigureOutput {
    use emptcp::EmptcpConfig;
    use emptcp_sim::SimDuration;

    let make = || Scenario::bandwidth_changes().with(cfg.bulk());
    // Each variant is one edit of the default configuration. The forecaster
    // ablations (§3.2 argues for Holt-Winters): last-sample is Holt-Winters
    // with alpha=1/beta=0, EWMA is beta=0.
    type Edit = fn(&mut EmptcpConfig);
    let variants: [(&str, Edit); 9] = [
        ("default", |_| {}),
        ("no hysteresis", |c| c.controller.safety_factor = 0.0),
        ("no dwell", |c| c.controller.min_dwell = SimDuration::ZERO),
        ("no hysteresis, no dwell", |c| {
            c.controller.safety_factor = 0.0;
            c.controller.min_dwell = SimDuration::ZERO;
        }),
        ("adaptive tau", |c| c.delay.adaptive_tau = true),
        ("cellular-only allowed", |c| {
            c.controller.allow_cellular_only = true
        }),
        ("kappa = 64 kB", |c| c.delay.kappa_bytes = 64 << 10),
        ("last-sample predictor", |c| {
            c.predictor_alpha = 1.0;
            c.predictor_beta = 0.0;
        }),
        ("ewma predictor (no trend)", |c| c.predictor_beta = 0.0),
    ];
    let config = |edit: Edit| {
        let mut c = EmptcpConfig::default();
        edit(&mut c);
        c
    };
    let mut t = Table::new(
        "Extension: eMPTCP ablations on random WiFi bandwidth changes",
        &[
            "variant",
            "energy (J)",
            "time (s)",
            "switches",
            "promotions",
        ],
    );
    let mut payload = Vec::new();
    // One sweep point per ablation variant.
    let per_variant = runner::run_points(variants.len(), |vi| {
        let strategy = Strategy::Emptcp(config(variants[vi].1));
        repeat_runs(make, strategy, cfg.runs, cfg.seed)
    });
    for ((name, _), results) in variants.iter().zip(&per_variant) {
        let e = MeanSem::over(results, |r| r.energy_j);
        let time = MeanSem::over(results, |r| r.download_time_s);
        let switches = mean_of(results, |r| r.usage_switches as f64);
        let promos = mean_of(results, |r| r.promotions as f64);
        t.row(vec![
            name.to_string(),
            pm(e.mean, e.sem),
            pm(time.mean, time.sem),
            f(switches),
            f(promos),
        ]);
        payload.push((name.to_string(), e, time, switches, promos));
    }
    FigureOutput::new("ablations", vec![t], payload)
}

/// Extension (paper §7 future work): a 64 MB upload from the device.
pub fn upload(cfg: &Config) -> FigureOutput {
    let size = cfg.bulk_size.min(64 * MB);
    let make = || Scenario::upload().with(Workload::Upload { size });
    let summaries = run_lab(make, cfg.runs, cfg);
    let t = energy_time_table("Extension: upload over good WiFi", &summaries);
    FigureOutput::new("upload", vec![t], summaries)
}

/// Extension (paper §7 future work): chunked video streaming over a
/// bandwidth-modulated AP; the metric that matters is rebuffer events.
pub fn streaming(cfg: &Config) -> FigureOutput {
    let mut t = Table::new(
        "Extension: 1 MB / 4 s video streaming over modulated WiFi (200 s)",
        &[
            "strategy",
            "energy (J)",
            "rebuffers",
            "delivered MB",
            "cell MB",
        ],
    );
    let mut payload = Vec::new();
    let strategies = [
        Strategy::Mptcp,
        Strategy::emptcp_default(),
        Strategy::TcpWifi,
        Strategy::WifiFirst,
    ];
    let per_strategy = runner::run_points(strategies.len(), |i| {
        repeat_runs(Scenario::streaming, strategies[i], cfg.runs, cfg.seed)
    });
    for (&st, results) in strategies.iter().zip(&per_strategy) {
        let e = MeanSem::over(results, |r| r.energy_j);
        let rebuffers = MeanSem::over(results, |r| r.rebuffer_events as f64);
        let delivered = mean_of(results, |r| r.bytes_delivered as f64) / MB as f64;
        let cell = mean_of(results, |r| r.cell_bytes as f64) / MB as f64;
        t.row(vec![
            st.label().to_string(),
            pm(e.mean, e.sem),
            pm(rebuffers.mean, rebuffers.sem),
            f(delivered),
            f(cell),
        ]);
        payload.push((st.label().to_string(), e, rebuffers, delivered, cell));
    }
    FigureOutput::new("streaming", vec![t], payload)
}

/// Extension: where MPTCP's extra joules go — per-RRC-state cellular
/// energy for a 16 MB good-WiFi download (the fixed-overhead story of
/// §2.3/Fig 1, read off the meter instead of the model).
pub fn breakdown(cfg: &Config) -> FigureOutput {
    let make = || Scenario::static_good_wifi().with(Workload::Download { size: 16 * MB });
    let mut t = Table::new(
        "Extension: cellular energy by RRC state, 16 MB on good WiFi",
        &[
            "strategy",
            "total (J)",
            "promotion (J)",
            "tail (J)",
            "tail share %",
        ],
    );
    let mut payload = Vec::new();
    let strategies = [
        Strategy::Mptcp,
        Strategy::emptcp_default(),
        Strategy::TcpCellular,
        Strategy::WifiFirst,
    ];
    let per_strategy = runner::run_points(strategies.len(), |i| {
        repeat_runs(make, strategies[i], cfg.runs.min(3), cfg.seed)
    });
    for (&st, results) in strategies.iter().zip(&per_strategy) {
        let total = mean_of(results, |r| r.energy_j);
        let promo = mean_of(results, |r| r.promo_energy_j);
        let tail = mean_of(results, |r| r.tail_energy_j);
        t.row(vec![
            st.label().to_string(),
            f(total),
            f(promo),
            f(tail),
            f(100.0 * tail / total.max(1e-9)),
        ]);
        payload.push((st.label().to_string(), total, promo, tail));
    }
    FigureOutput::new("breakdown", vec![t], payload)
}

/// Extension: how fast may the environment change before eMPTCP's
/// switching overhead eats its savings? §4.3 predicts the erosion; this
/// sweeps the modulation holding time.
pub fn sweep_hold(cfg: &Config) -> FigureOutput {
    let mut t = Table::new(
        "Extension: eMPTCP vs MPTCP as WiFi modulation speeds up",
        &[
            "mean hold (s)",
            "eMPTCP energy %",
            "eMPTCP time %",
            "switches",
            "promotions",
        ],
    );
    let mut payload = Vec::new();
    let holds = [10.0f64, 20.0, 40.0, 80.0];
    // One sweep point per holding time.
    let cells = runner::run_points(holds.len(), |hi| {
        let hold = holds[hi];
        let make = || {
            let mut s = Scenario::bandwidth_changes().with(cfg.bulk());
            s.wifi = crate::scenario::WifiEnvironment::Modulated {
                mean_hold_s: hold,
                start_high: false,
            };
            s
        };
        let base = summarize(&repeat_runs(make, Strategy::Mptcp, cfg.runs, cfg.seed));
        let results = repeat_runs(make, Strategy::emptcp_default(), cfg.runs, cfg.seed);
        let me = summarize(&results);
        let switches = mean_of(&results, |r| r.usage_switches as f64);
        let promos = mean_of(&results, |r| r.promotions as f64);
        let e_pct = 100.0 * me.energy.mean / base.energy.mean;
        let t_pct = 100.0 * me.time.mean / base.time.mean;
        (hold, e_pct, t_pct, switches, promos)
    });
    for (hold, e_pct, t_pct, switches, promos) in cells {
        t.row(vec![f(hold), f(e_pct), f(t_pct), f(switches), f(promos)]);
        payload.push((hold, e_pct, t_pct, switches, promos));
    }
    FigureOutput::new("sweep_hold", vec![t], payload)
}

/// Extension: the kappa design space — delayed-establishment threshold
/// versus transfer size (§4.1 leaves tuning kappa as future work).
pub fn sweep_kappa(cfg: &Config) -> FigureOutput {
    use emptcp::EmptcpConfig;
    let mut t = Table::new(
        "Extension: energy (J) by kappa x transfer size, bad WiFi",
        &["kappa", "256 kB", "1 MB", "16 MB"],
    );
    let mut payload = Vec::new();
    let kappas = [64u64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let sizes = [256u64 << 10, 1 << 20, 16 << 20];
    // Every (kappa, size) cell is an independent sweep point.
    let cells = runner::run_points(kappas.len() * sizes.len(), |i| {
        let kappa = kappas[i / sizes.len()];
        let size = sizes[i % sizes.len()];
        let make = || Scenario::static_bad_wifi().with(Workload::Download { size });
        let mut c = EmptcpConfig::default();
        c.delay.kappa_bytes = kappa;
        let results = repeat_runs(make, Strategy::Emptcp(c), cfg.runs.min(3), cfg.seed);
        mean_of(&results, |r| r.energy_j)
    });
    for (ki, &kappa) in kappas.iter().enumerate() {
        let mut row = vec![format!("{} kB", kappa >> 10)];
        let mut row_data = Vec::new();
        for (si, &size) in sizes.iter().enumerate() {
            let e = cells[ki * sizes.len() + si];
            row.push(f(e));
            row_data.push((size, e));
        }
        t.row(row);
        payload.push((kappa, row_data));
    }
    FigureOutput::new("sweep_kappa", vec![t], payload)
}

// ----------------------------------------------------------------------
// Fleet extensions: many clients behind one bottleneck (emptcp-net)
// ----------------------------------------------------------------------

/// Extension: a `cfg.fleet_clients`-strong fleet (half MPTCP, half TCP)
/// behind one 100 Mbps core bottleneck with bursty cross-traffic, LIA
/// coupling versus uncoupled per-subflow Reno. The LIA row is the "do no
/// harm" story at population scale; the uncoupled row is the ablation
/// showing what coupling buys the single-path clients.
pub fn fleet(cfg: &Config) -> FigureOutput {
    use emptcp_net::ShardedFleetSim;
    let variants = [("MPTCP (LIA)", true), ("MPTCP uncoupled", false)];
    let shards = cfg.fleet_shard_count();
    // Variants run sequentially; parallelism lives *inside* each run,
    // where the sharded engine fans every epoch's shards out across the
    // worker pool. The report is byte-identical for every (jobs, shards).
    let reports: Vec<_> = variants
        .iter()
        .map(|&(_, coupled)| {
            let fc = fleet_config(cfg, coupled);
            ShardedFleetSim::new_with_telemetry(fc, shards, emptcp_telemetry::current())
                .run_with(&RunnerShardExecutor)
        })
        .collect();
    // The shard count must NOT appear in the table or payload: exports
    // are diffed across `--shards` values to certify the partition is
    // invisible.
    let mut t = Table::new(
        format!(
            "Extension: {} clients share a 100 Mbps core (fleet harness)",
            cfg.fleet_clients
        ),
        &[
            "variant",
            "aggregate (Mbps)",
            "MPTCP mean",
            "TCP mean",
            "MPTCP/TCP",
            "Jain",
            "drops",
            "ECN marks",
            "peak queue kB",
            "pkts forwarded",
        ],
    );
    let mut payload = Vec::new();
    for ((label, _), r) in variants.iter().zip(&reports) {
        t.row(vec![
            label.to_string(),
            f(r.aggregate_mbps),
            f(r.mptcp_mean_mbps),
            f(r.tcp_mean_mbps),
            f(r.mptcp_tcp_ratio),
            f(r.jain_index),
            r.bottleneck_drops.to_string(),
            r.bottleneck_ecn_marks.to_string(),
            (r.bottleneck_peak_queue_bytes >> 10).to_string(),
            r.packets_forwarded.to_string(),
        ]);
        payload.push((label.to_string(), r.clone()));
    }
    FigureOutput::new("fleet", vec![t], payload)
}

/// The `fleet` exhibit's population under `cfg`, LIA-coupled or not.
pub fn fleet_config(cfg: &Config, coupled: bool) -> emptcp_net::FleetConfig {
    let mut fc = emptcp_net::FleetConfig::contended(cfg.fleet_clients, cfg.seed);
    fc.duration = SimDuration::from_secs(5);
    fc.coupled = coupled;
    fc
}

/// Bridge from the experiment runner's worker pool to the sharded fleet
/// engine: each epoch's shard closures fan out as indexed points on the
/// [`runner::current`] pool (and, like every other exhibit, fall back to
/// the calling thread while a trace is being recorded).
struct RunnerShardExecutor;

impl emptcp_net::ShardExecutor for RunnerShardExecutor {
    fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        runner::run_points(n, f);
    }
}

/// Extension: the "do no harm" cell — four MPTCP clients (two subflows
/// each) against four TCP clients on a tight shared bottleneck, LIA
/// versus uncoupled. With LIA the mean MPTCP aggregate stays near the
/// mean TCP flow's share; uncoupled it takes markedly more.
pub fn fairness(cfg: &Config) -> FigureOutput {
    use emptcp_net::ShardedFleetSim;
    let variants = [("MPTCP (LIA)", true), ("MPTCP uncoupled", false)];
    let reports = runner::run_points(variants.len(), |i| {
        let mut fc = emptcp_net::FleetConfig::do_no_harm_cell(cfg.seed);
        fc.coupled = variants[i].1;
        ShardedFleetSim::new_with_telemetry(fc, 1, emptcp_telemetry::current()).run()
    });
    let mut t = Table::new(
        "Extension: do-no-harm at a shared bottleneck (4 MPTCP vs 4 TCP)",
        &["variant", "MPTCP (Mbps)", "TCP (Mbps)", "MPTCP/TCP", "Jain"],
    );
    let mut payload = Vec::new();
    for ((label, _), r) in variants.iter().zip(&reports) {
        t.row(vec![
            label.to_string(),
            f(r.mptcp_mean_mbps),
            f(r.tcp_mean_mbps),
            f(r.mptcp_tcp_ratio),
            f(r.jain_index),
        ]);
        payload.push((label.to_string(), r.clone()));
    }
    FigureOutput::new("fairness", vec![t], payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_only_figures_render() {
        for out in [table1(), fig1(), table2(), fig3(), fig4(), eq1()] {
            let text = out.render();
            assert!(text.contains("=="), "{}", out.id);
            assert!(!out.tables.is_empty());
        }
    }

    #[test]
    fn fig5_quick_shape() {
        let cfg = Config::quick();
        let out = fig5(&cfg);
        let text = out.render();
        assert!(text.contains("MPTCP"));
        assert!(text.contains("eMPTCP"));
        assert!(text.contains("TCP over WiFi"));
        // The headline claim at small scale: eMPTCP beats MPTCP on energy
        // with good WiFi.
        let payload = out.json.as_array().expect("summaries");
        let energy = |name: &str| -> f64 {
            payload
                .iter()
                .find(|v| v["strategy"] == name)
                .map(|v| v["energy"]["mean"].as_f64().unwrap())
                .expect("strategy present")
        };
        assert!(energy("eMPTCP") < energy("MPTCP"));
    }

    #[test]
    fn fig17_web_quick() {
        let mut cfg = Config::quick();
        cfg.runs = 1;
        let out = fig17(&cfg);
        assert!(out.render().contains("web browsing"));
    }

    #[test]
    fn extension_runners_produce_tables() {
        let mut cfg = Config::quick();
        cfg.runs = 1;
        cfg.bulk_size = 2 << 20;
        for (out, needle) in [
            (handover(&cfg), "association outage"),
            (upload(&cfg), "upload"),
            (breakdown(&cfg), "RRC state"),
        ] {
            let text = out.render();
            assert!(text.contains(needle), "{}: {text}", out.id);
            assert!(!out.tables.is_empty());
        }
    }

    #[test]
    fn fig7_exports_trace_csvs() {
        let mut cfg = Config::quick();
        cfg.bulk_size = 2 << 20;
        let out = fig7(&cfg);
        assert!(out.csvs.len() >= 2, "expected trace CSVs");
        for (suffix, csv) in &out.csvs {
            assert!(csv.starts_with("time_s,value\n"), "{suffix}");
            assert!(csv.lines().count() > 2, "{suffix} CSV empty");
        }
    }

    #[test]
    fn sweeps_are_monotone_in_structure() {
        let mut cfg = Config::quick();
        cfg.runs = 1;
        cfg.bulk_size = 2 << 20;
        let hold = sweep_hold(&cfg);
        assert_eq!(hold.tables[0].len(), 4);
        let kappa = sweep_kappa(&cfg);
        assert_eq!(kappa.tables[0].len(), 4);
    }
}
