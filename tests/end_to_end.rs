//! Cross-crate integration tests: full simulations through the public API,
//! checking the paper's headline claims end-to-end.

use emptcp_repro::expr::scenario::{Scenario, Workload};
use emptcp_repro::expr::{host, Strategy};

const MB: u64 = 1 << 20;

fn download(s: Scenario, size: u64) -> Scenario {
    s.with(Workload::Download { size })
}

#[test]
fn headline_good_wifi_emptcp_saves_energy() {
    // §4.2 / Fig 5: with good WiFi, eMPTCP avoids LTE entirely and saves
    // substantially over MPTCP.
    let s = || download(Scenario::static_good_wifi(), 16 * MB);
    let mptcp = host::run(s(), Strategy::Mptcp, 1);
    let emptcp = host::run(s(), Strategy::emptcp_default(), 1);
    assert!(mptcp.completed && emptcp.completed);
    assert_eq!(emptcp.cell_bytes, 0);
    assert_eq!(emptcp.promotions, 0);
    assert!(
        emptcp.energy_j < 0.7 * mptcp.energy_j,
        "eMPTCP {:.1} J vs MPTCP {:.1} J",
        emptcp.energy_j,
        mptcp.energy_j
    );
}

#[test]
fn headline_bad_wifi_emptcp_matches_mptcp() {
    // §4.2 / Fig 6: with bad WiFi, eMPTCP recruits LTE and lands within a
    // few percent of MPTCP on both energy and time.
    let s = || download(Scenario::static_bad_wifi(), 16 * MB);
    let mptcp = host::run(s(), Strategy::Mptcp, 2);
    let emptcp = host::run(s(), Strategy::emptcp_default(), 2);
    assert!(mptcp.completed && emptcp.completed);
    assert!(emptcp.cell_bytes > 8 * MB, "LTE barely used: {emptcp:?}");
    assert!(
        emptcp.energy_j < 1.25 * mptcp.energy_j,
        "eMPTCP {:.1} J vs MPTCP {:.1} J",
        emptcp.energy_j,
        mptcp.energy_j
    );
    assert!(emptcp.download_time_s < 1.6 * mptcp.download_time_s);
}

#[test]
fn small_downloads_never_wake_lte() {
    // §5.2 / Fig 15: 256 kB transfers finish before kappa or tau can fire.
    for seed in 0..8 {
        let s = download(Scenario::static_good_wifi(), 256 << 10);
        let r = host::run(s, Strategy::emptcp_default(), seed);
        assert!(r.completed);
        assert_eq!(r.promotions, 0, "seed {seed} woke the LTE radio");
    }
}

#[test]
fn every_strategy_completes_across_environments() {
    let environments: Vec<(&str, Scenario)> = vec![
        ("good", download(Scenario::static_good_wifi(), 4 * MB)),
        ("bad", download(Scenario::static_bad_wifi(), 4 * MB)),
        (
            "contended",
            download(Scenario::background_traffic(2, 0.05), 4 * MB),
        ),
        ("modulated", download(Scenario::bandwidth_changes(), 4 * MB)),
    ];
    let strategies = [
        Strategy::Mptcp,
        Strategy::emptcp_default(),
        Strategy::TcpWifi,
        Strategy::TcpCellular,
        Strategy::WifiFirst,
        Strategy::MdpScheduler,
    ];
    for (name, scenario) in &environments {
        for &st in &strategies {
            let r = host::run(scenario.clone(), st, 3);
            assert!(
                r.completed,
                "{} did not finish in '{name}': {r:?}",
                st.label()
            );
            assert_eq!(
                r.bytes_delivered,
                4 * MB,
                "{} short delivery in '{name}'",
                st.label()
            );
            // Subflow-level counters include reinjected duplicates, so the
            // sum can exceed the connection-level total slightly.
            assert!(r.wifi_bytes + r.cell_bytes >= 4 * MB);
            assert!(r.wifi_bytes + r.cell_bytes < 4 * MB + MB);
        }
    }
}

#[test]
fn full_stack_determinism() {
    let s = || download(Scenario::background_traffic(3, 0.05), 4 * MB);
    let a = host::run(s(), Strategy::emptcp_default(), 99);
    let b = host::run(s(), Strategy::emptcp_default(), 99);
    assert_eq!(a.energy_j, b.energy_j);
    assert_eq!(a.download_time_s, b.download_time_s);
    assert_eq!(a.retransmissions, b.retransmissions);
    assert_eq!(a.usage_switches, b.usage_switches);
    // Different seed → different loss pattern → different dynamics.
    let c = host::run(s(), Strategy::emptcp_default(), 100);
    assert_ne!(a.energy_j, c.energy_j);
}

#[test]
fn wifi_first_and_mdp_degenerate_to_tcp_wifi() {
    // §4.6: while the WiFi association holds, neither WiFi-First nor the
    // MDP scheduler ever carries data over cellular. WiFi-First still
    // "needlessly activates the cellular interface at connection
    // establishment" (the paper's words): its subflow handshake costs the
    // promotion + tail. The MDP scheduler never opens the subflow at all.
    let tcp = host::run(
        download(Scenario::static_good_wifi(), 4 * MB),
        Strategy::TcpWifi,
        5,
    );
    let wf = host::run(
        download(Scenario::static_good_wifi(), 4 * MB),
        Strategy::WifiFirst,
        5,
    );
    assert!(wf.completed);
    assert_eq!(wf.cell_bytes, 0, "WiFi-First carried data over LTE");
    assert_eq!(wf.promotions, 1, "the needless activation");
    let gap = wf.energy_j - tcp.energy_j;
    assert!((8.0..16.0).contains(&gap), "activation cost {gap:.1} J");

    let mdp = host::run(
        download(Scenario::static_good_wifi(), 4 * MB),
        Strategy::MdpScheduler,
        5,
    );
    assert!(mdp.completed);
    assert_eq!(mdp.cell_bytes, 0, "MDP scheduler used LTE");
    assert_eq!(mdp.promotions, 0);
    assert!((mdp.energy_j - tcp.energy_j).abs() < 0.05 * tcp.energy_j);
}

#[test]
fn contention_hurts_single_path_most() {
    // §4.4: under heavy interference TCP-over-WiFi slows dramatically while
    // MPTCP rides LTE through it.
    let s = || download(Scenario::background_traffic(3, 0.05), 8 * MB);
    let mptcp = host::run(s(), Strategy::Mptcp, 6);
    let tcp = host::run(s(), Strategy::TcpWifi, 6);
    assert!(mptcp.completed && tcp.completed);
    assert!(
        tcp.download_time_s > 1.3 * mptcp.download_time_s,
        "tcp {:.1}s vs mptcp {:.1}s",
        tcp.download_time_s,
        mptcp.download_time_s
    );
}

#[test]
fn mobility_orderings_hold() {
    // Fig 13's two orderings: per-byte energy MPTCP > eMPTCP > TCP/WiFi,
    // download amount MPTCP > eMPTCP > TCP/WiFi.
    let mptcp = host::run(Scenario::mobility(), Strategy::Mptcp, 7);
    let emptcp = host::run(Scenario::mobility(), Strategy::emptcp_default(), 7);
    let tcp = host::run(Scenario::mobility(), Strategy::TcpWifi, 7);
    assert!(mptcp.joules_per_byte > emptcp.joules_per_byte);
    assert!(emptcp.joules_per_byte > tcp.joules_per_byte);
    assert!(mptcp.bytes_delivered > emptcp.bytes_delivered);
    assert!(emptcp.bytes_delivered > tcp.bytes_delivered);
}

#[test]
fn cellular_fixed_cost_visible_in_totals() {
    // A 1 MB download over LTE pays roughly the Fig 1 fixed overhead more
    // than the same download over WiFi.
    let wifi = host::run(
        download(Scenario::static_good_wifi(), MB),
        Strategy::TcpWifi,
        8,
    );
    let lte = host::run(
        download(Scenario::static_good_wifi(), MB),
        Strategy::TcpCellular,
        8,
    );
    let gap = lte.energy_j - wifi.energy_j;
    assert!(
        (8.0..16.0).contains(&gap),
        "fixed-cost gap {gap:.1} J outside the LTE promotion+tail ballpark"
    );
}

#[test]
fn energy_at_completion_bounded_by_total() {
    let r = host::run(
        download(Scenario::static_good_wifi(), 4 * MB),
        Strategy::Mptcp,
        9,
    );
    assert!(r.energy_at_completion_j <= r.energy_j);
    assert!(r.energy_at_completion_j > 0.0);
    // The drain (LTE tail) adds energy after completion.
    assert!(r.energy_j - r.energy_at_completion_j > 5.0);
}
#[test]
fn handover_outage_behaviours() {
    use emptcp_repro::expr::scenario::Scenario;
    use emptcp_repro::expr::{host, Strategy};
    // The default outage scenario: 64 MB download, association lost during
    // [20 s, 50 s).
    let s = Scenario::wifi_outage;
    // Plain TCP over WiFi stalls through the 30 s outage but recovers.
    let tcp = host::run(s(), Strategy::TcpWifi, 1);
    assert!(tcp.completed);
    assert!(tcp.download_time_s > 60.0, "{}", tcp.download_time_s);
    // WiFi-First activates its backup during the outage.
    let wf = host::run(s(), Strategy::WifiFirst, 1);
    assert!(wf.completed);
    assert!(wf.cell_bytes > 0, "backup never engaged: {wf:?}");
    assert!(wf.download_time_s < tcp.download_time_s);
    // Single-Path establishes cellular only after the loss.
    let sp = host::run(s(), Strategy::SinglePath, 1);
    assert!(sp.completed);
    assert!(sp.cell_bytes > 0);
    assert_eq!(sp.promotions, 1);
    assert!(sp.download_time_s < tcp.download_time_s);
    // eMPTCP rides through on LTE as well.
    let e = host::run(s(), Strategy::emptcp_default(), 1);
    assert!(e.completed);
    assert!(e.cell_bytes > 0);
    assert!(e.download_time_s < tcp.download_time_s);
}
