//! Consistency of the measurement plumbing: every run's traces and summary
//! numbers must tell one coherent story.

use emptcp_repro::expr::scenario::{Scenario, Workload};
use emptcp_repro::expr::{host, RunResult, Strategy};

fn run(strategy: Strategy, seed: u64) -> RunResult {
    let s = Scenario::bandwidth_changes().with(Workload::Download { size: 8 << 20 });
    host::run(s, strategy, seed)
}

fn check_invariants(r: &RunResult) {
    assert!(r.completed, "{}", r.strategy);
    // Accumulated energy is non-decreasing in time.
    let mut last = 0.0;
    for &(_, e) in r.energy_trace.points() {
        assert!(e >= last - 1e-9, "energy decreased in {}", r.strategy);
        last = e;
    }
    // Final trace value agrees with the summary (within the drain window
    // recorded after the last tick).
    assert!(last <= r.energy_j + 1e-6);
    assert!(r.energy_j <= last + 25.0, "trace/summary gap too large");
    // Throughput traces are non-negative and bounded by physics (the links
    // top out around 12 Mbps; allow ACK overhead and burst measurement).
    for trace in [&r.wifi_thpt_trace, &r.cell_thpt_trace] {
        for &(_, v) in trace.points() {
            assert!((0.0..=40.0).contains(&v), "throughput {v} out of range");
        }
    }
    // Byte accounting (subflow-level counters include reinjected
    // duplicates, so the sum can slightly exceed the connection total).
    assert!(r.wifi_bytes + r.cell_bytes >= r.bytes_delivered);
    assert!(r.wifi_bytes + r.cell_bytes <= r.bytes_delivered + (1 << 20));
    assert!(r.joules_per_byte.is_finite());
    assert!(r.energy_at_completion_j <= r.energy_j + 1e-9);
    // Times are sane.
    assert!(r.download_time_s > 0.0 && r.download_time_s < 6_000.0);
}

#[test]
fn traces_consistent_for_all_strategies() {
    for (i, strategy) in [
        Strategy::Mptcp,
        Strategy::emptcp_default(),
        Strategy::TcpWifi,
        Strategy::WifiFirst,
    ]
    .into_iter()
    .enumerate()
    {
        let r = run(strategy, 40 + i as u64);
        check_invariants(&r);
    }
}

#[test]
fn capacity_trace_reflects_modulation() {
    let r = run(Strategy::TcpWifi, 50);
    // The §4.3 modulator flips between <=1 Mbps and >=10 Mbps bands.
    let values: Vec<f64> = r
        .wifi_capacity_trace
        .points()
        .iter()
        .map(|&(_, v)| v)
        .collect();
    assert!(values.iter().any(|&v| v <= 1.0), "never in the low band");
    assert!(values.iter().any(|&v| v >= 10.0), "never in the high band");
    assert!(values.iter().all(|&v| v <= 12.0 + 1e-9));
}

#[test]
fn promotions_match_radio_usage() {
    let s = Scenario::static_good_wifi().with(Workload::Download { size: 2 << 20 });
    let wifi_only = host::run(s.clone(), Strategy::TcpWifi, 60);
    assert_eq!(wifi_only.promotions, 0);
    assert_eq!(wifi_only.cell_bytes, 0);
    let cellular = host::run(s, Strategy::TcpCellular, 60);
    assert_eq!(cellular.promotions, 1, "one promotion for one transfer");
}

#[test]
fn energy_scales_with_download_size() {
    let run_size = |size: u64| {
        let s = Scenario::static_good_wifi().with(Workload::Download { size });
        host::run(s, Strategy::TcpWifi, 70)
    };
    let small = run_size(2 << 20);
    let large = run_size(16 << 20);
    assert!(large.energy_j > small.energy_j * 2.0);
    assert!(large.download_time_s > small.download_time_s * 2.0);
}

#[test]
fn usage_switch_counter_only_moves_for_emptcp() {
    let r = run(Strategy::Mptcp, 80);
    assert_eq!(r.usage_switches, 0);
    let e = run(Strategy::emptcp_default(), 80);
    // The modulated scenario forces at least the initial Both switch.
    assert!(e.usage_switches >= 1);
}
