//! Golden-shape regression tests: the ✅ claims of EXPERIMENTS.md, encoded
//! as assertions at quick scale so `cargo test` catches a change that
//! breaks a reproduced *shape* — who wins, by roughly what factor, where
//! the crossovers sit. Absolute joules are free to drift inside the
//! stated tolerances (the model is calibrated, not measured); orderings
//! and identities are not.
//!
//! Everything here is deterministic: fixed scenarios, the committed
//! default seed, single runs where one run demonstrates the claim.

use emptcp_energy::{Eib, EnergyModel};
use emptcp_expr::figures;
use emptcp_expr::scenario::{Scenario, Workload};
use emptcp_expr::{host, Strategy};
use emptcp_sim::SimDuration;

/// The committed default seed (EXPERIMENTS.md records values at this seed).
const SEED: u64 = 0xE0_07C9;

/// Quick-scale §4 bulk transfer.
const BULK: u64 = 8 << 20;

fn bulk(make: fn() -> Scenario, strategy: Strategy) -> host::RunResult {
    host::run(
        make().with(Workload::Download { size: BULK }),
        strategy,
        SEED,
    )
}

// ---------------------------------------------------------------- Table 2

/// Table 2 ✅: the 1.0 Mbps LTE row is the paper's §3.4 worked example and
/// the calibration anchor — it must match the paper tightly. The other
/// rows follow the fitted curves within a factor, and the thresholds must
/// be ordered and monotone in the LTE rate.
#[test]
fn table2_thresholds_anchor_and_shape() {
    let eib = Eib::generate_default(&EnergyModel::galaxy_s3_lte());

    let (t1, t2) = eib.thresholds(1.0);
    assert!(
        (t1 - 0.134).abs() / 0.134 < 0.10,
        "LTE-only anchor drifted: {t1}"
    );
    assert!(
        (t2 - 0.502).abs() / 0.502 < 0.10,
        "WiFi-only anchor drifted: {t2}"
    );

    // Paper rows (LTE Mbps, LTE-only below, WiFi-only at/above); EXPERIMENTS
    // records the repro within ~50% at worst (the 0.5 row's T1).
    for (cell, p1, p2) in [
        (0.5, 0.043, 0.234),
        (1.5, 0.209, 0.803),
        (2.0, 0.304, 1.070),
    ] {
        let (t1, t2) = eib.thresholds(cell);
        assert!(
            t1 / p1 > 0.6 && t1 / p1 < 1.6,
            "T1({cell}) = {t1} vs paper {p1}"
        );
        assert!(
            t2 / p2 > 0.6 && t2 / p2 < 1.6,
            "T2({cell}) = {t2} vs paper {p2}"
        );
    }

    // Shape: T1 < T2 everywhere, both monotone in the LTE rate.
    let mut prev = (0.0, 0.0);
    for i in 1..=8 {
        let cell = i as f64 * 0.5;
        let (t1, t2) = eib.thresholds(cell);
        assert!(t1 < t2, "thresholds crossed at {cell} Mbps: {t1} vs {t2}");
        assert!(t1 >= prev.0 && t2 >= prev.1, "non-monotone at {cell} Mbps");
        prev = (t1, t2);
    }
}

// ------------------------------------------------------------------ Fig 3

/// Fig 3 ✅: the V-shaped region where using both interfaces beats the
/// best single interface exists (ratios dip below 0.95) and is a minority
/// of the plane.
#[test]
fn fig3_v_region_exists_and_is_minority() {
    let out = figures::fig3();
    let map = out
        .json
        .get("galaxy_s3")
        .and_then(|v| v.as_array())
        .expect("s3 map");
    let mut below = 0usize;
    let mut total = 0usize;
    let mut min_ratio = f64::INFINITY;
    for row in map {
        for v in row.as_array().expect("row") {
            let r = v.as_f64().expect("ratio");
            total += 1;
            if r < 0.95 {
                below += 1;
            }
            min_ratio = min_ratio.min(r);
        }
    }
    assert!(below > 0, "no V-region: no cell below 0.95");
    assert!(min_ratio < 0.92, "V too shallow: min ratio {min_ratio}");
    assert!(
        below * 2 < total,
        "V-region is not a minority: {below}/{total} cells below 0.95"
    );
}

// ------------------------------------------------------------------ Fig 4

/// Fig 4 ✅: the whole-transfer MPTCP-wins region grows strictly with
/// transfer size, and the 1 MB region is (near-)empty — the paper's
/// justification for κ = 1 MB.
#[test]
fn fig4_regions_nest_with_size() {
    let out = figures::fig4();
    let width_sum = |region: &serde_json::Value| -> f64 {
        region
            .as_array()
            .expect("region rows")
            .iter()
            .filter_map(|row| row.get("wifi_range"))
            .filter_map(|r| r.as_array())
            .map(|r| r[1].as_f64().unwrap() - r[0].as_f64().unwrap())
            .sum()
    };
    let (w1, w4, w16) = (
        width_sum(&out.json[0]),
        width_sum(&out.json[1]),
        width_sum(&out.json[2]),
    );
    assert!(
        w1 < 0.2,
        "1 MB region should be near-empty, total width {w1}"
    );
    assert!(w4 > w1, "4 MB region ({w4}) not larger than 1 MB ({w1})");
    assert!(
        w16 > 2.0 * w4,
        "16 MB region ({w16}) not much larger than 4 MB ({w4})"
    );
}

// ------------------------------------------------------------------- Eq 1

/// Eq 1 ✅: the worked example — τ ≥ 2.67 s at 10 Mbps WiFi, 190 ms RTT,
/// IW10, φ = 10 — lands at 2.69 s.
#[test]
fn eq1_matches_the_papers_worked_example() {
    let tau = emptcp::delay::min_tau(10.0, SimDuration::from_millis(190), 14_280, 10);
    let s = tau.as_secs_f64();
    assert!(s >= 2.67, "below the paper's bound: {s}");
    assert!(
        (s - 2.69).abs() < 0.05,
        "drifted from the recorded 2.69 s: {s}"
    );
}

// ------------------------------------------------------------------ Fig 5

/// Fig 5 ✅: on static good WiFi, eMPTCP chooses WiFi-only — zero LTE
/// bytes, zero promotions, energy equal to TCP over WiFi — and uses
/// substantially less energy than MPTCP.
#[test]
fn fig5_good_wifi_emptcp_is_tcp_wifi_and_beats_mptcp() {
    let e = bulk(Scenario::static_good_wifi, Strategy::emptcp_default());
    let m = bulk(Scenario::static_good_wifi, Strategy::Mptcp);
    let t = bulk(Scenario::static_good_wifi, Strategy::TcpWifi);
    assert!(e.completed && m.completed && t.completed);
    assert_eq!(e.cell_bytes, 0, "eMPTCP sent bytes over LTE on good WiFi");
    assert_eq!(e.promotions, 0, "eMPTCP woke the LTE radio on good WiFi");
    // Same seed, same decisions: equal to well under a percent.
    assert!(
        (e.energy_j - t.energy_j).abs() / t.energy_j < 0.005,
        "eMPTCP ({:.2} J) != TCP/WiFi ({:.2} J)",
        e.energy_j,
        t.energy_j
    );
    assert!(
        m.energy_j > 1.5 * e.energy_j,
        "MPTCP ({:.2} J) should cost well above eMPTCP ({:.2} J)",
        m.energy_j,
        e.energy_j
    );
}

// ------------------------------------------------------------------ Fig 6

/// Fig 6 ✅: on static bad WiFi, eMPTCP recruits LTE and lands near MPTCP
/// on energy and time, while TCP over WiFi is many times slower.
#[test]
fn fig6_bad_wifi_emptcp_tracks_mptcp_and_tcp_wifi_crawls() {
    let e = bulk(Scenario::static_bad_wifi, Strategy::emptcp_default());
    let m = bulk(Scenario::static_bad_wifi, Strategy::Mptcp);
    let t = bulk(Scenario::static_bad_wifi, Strategy::TcpWifi);
    assert!(e.completed && m.completed && t.completed);
    assert!(e.cell_bytes > 0, "eMPTCP never recruited LTE on bad WiFi");
    // Near-MPTCP: the gap is the delayed establishment (κ/τ). At quick
    // scale (8 MB) the startup amortizes less than the paper's 256 MB —
    // allow 50% where the full-scale table shows 1.3%.
    assert!(
        e.energy_j < 1.5 * m.energy_j && e.download_time_s < 1.6 * m.download_time_s,
        "eMPTCP ({:.1} J, {:.1} s) strayed from MPTCP ({:.1} J, {:.1} s)",
        e.energy_j,
        e.download_time_s,
        m.energy_j,
        m.download_time_s
    );
    assert!(
        t.download_time_s > 3.0 * e.download_time_s,
        "TCP/WiFi ({:.0} s) should crawl vs eMPTCP ({:.0} s)",
        t.download_time_s,
        e.download_time_s
    );
}

// ----------------------------------------------------------------- Fig 13

/// Fig 13 ✅: over the mobility walk, both orderings hold — MPTCP >
/// eMPTCP > TCP/WiFi on J/byte *and* on bytes downloaded.
#[test]
fn fig13_mobility_double_ordering() {
    let run = |s| host::run(Scenario::mobility(), s, SEED);
    let m = run(Strategy::Mptcp);
    let e = run(Strategy::emptcp_default());
    let t = run(Strategy::TcpWifi);
    assert!(
        m.joules_per_byte > e.joules_per_byte && e.joules_per_byte > t.joules_per_byte,
        "J/byte ordering broken: MPTCP {:.3e}, eMPTCP {:.3e}, TCP/WiFi {:.3e}",
        m.joules_per_byte,
        e.joules_per_byte,
        t.joules_per_byte
    );
    assert!(
        m.bytes_delivered > e.bytes_delivered && e.bytes_delivered > t.bytes_delivered,
        "bytes ordering broken: MPTCP {}, eMPTCP {}, TCP/WiFi {}",
        m.bytes_delivered,
        e.bytes_delivered,
        t.bytes_delivered
    );
}

// ----------------------------------------------------------------- Fig 17

/// Fig 17 ✅: web browsing — every object is below κ, so eMPTCP never
/// opens LTE and is identical to TCP over WiFi, while MPTCP pays the
/// promotions.
#[test]
fn fig17_web_emptcp_never_opens_lte() {
    let run = |s| host::run(Scenario::web_browsing(), s, SEED);
    let e = run(Strategy::emptcp_default());
    let m = run(Strategy::Mptcp);
    let t = run(Strategy::TcpWifi);
    assert_eq!(e.cell_bytes, 0);
    assert_eq!(e.promotions, 0);
    assert!(
        (e.energy_j - t.energy_j).abs() / t.energy_j < 0.005,
        "eMPTCP ({:.2} J) != TCP/WiFi ({:.2} J)",
        e.energy_j,
        t.energy_j
    );
    assert!(m.promotions > 0, "MPTCP paid no promotions on web browsing");
    assert!(
        m.energy_j > 2.0 * e.energy_j,
        "MPTCP ({:.1} J) vs eMPTCP ({:.1} J): gap collapsed",
        m.energy_j,
        e.energy_j
    );
}

// --------------------------------------------------------------- handover

/// Extension handover ✅: across a 30 s association outage, multi-path
/// strategies ride LTE through it while single-path TCP stalls; WiFi-First
/// structurally pays *two* activations (the needless setup one plus the
/// failover) where MPTCP pays one.
#[test]
fn handover_multipath_rides_through_the_outage() {
    let run = |s| host::run(Scenario::wifi_outage(), s, SEED);
    let m = run(Strategy::Mptcp);
    let e = run(Strategy::emptcp_default());
    let t = run(Strategy::TcpWifi);
    let w = run(Strategy::WifiFirst);
    assert!(m.completed && e.completed && t.completed && w.completed);
    assert!(
        t.download_time_s
            > 1.4
                * m.download_time_s
                    .max(e.download_time_s.max(w.download_time_s)),
        "single-path TCP ({:.0} s) did not stall vs multipath",
        t.download_time_s
    );
    assert_eq!(m.promotions, 1);
    assert_eq!(
        w.promotions, 2,
        "WiFi-First's needless setup activation vanished"
    );
}
