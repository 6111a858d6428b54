//! The `.scenario` format carries the whole host experiment: every named
//! environment and every expectation survives it, the generator still
//! draws what it drew when a host world was two rates, two RTTs and a size,
//! and a fleet the engine cannot hold fails to load.

use emptcp_faults::plan;
use emptcp_scenario::gen::generate;
use emptcp_scenario::host::NAMED;
use emptcp_scenario::io::{from_json_str, to_canonical_json};
use emptcp_scenario::{Expect, Measure, Scenario, StrategyKind, WifiEnvironment, World};

/// Every named environment — the walk's twelve waypoints, the `f64`
/// rates, the outage window — and a bound on every measure come back from
/// canonical JSON equal, and re-serialize to the same bytes.
#[test]
fn every_named_environment_round_trips() {
    use Measure::*;
    let expect: Vec<Expect> = [
        FaultsInjected,
        LinkDownEvents,
        SubflowFailures,
        SubflowRevivals,
        BytesReinjected,
        WorstRecoveryLatency,
        GoodputRetained,
    ]
    .into_iter()
    .zip([0.0, 1.0, 2.5, -1.0, 4096.0, 0.125, 0.25])
    .map(|(measure, above)| Expect { measure, above })
    .collect();
    for (handle, make) in NAMED {
        let s = Scenario {
            name: "roundtrip".to_string(),
            summary: format!("the `{handle}` environment"),
            seed: 99,
            world: World::Host {
                strategy: StrategyKind::Emptcp,
                scenario: make(),
                expect: expect.clone(),
            },
            faults: Vec::new(),
        };
        let bytes = to_canonical_json(&s);
        let back = from_json_str(&bytes).unwrap_or_else(|e| panic!("{handle}: {e}"));
        assert_eq!(back, s, "{handle}");
        assert_eq!(to_canonical_json(&back), bytes, "{handle}");
    }
}

/// What `(7, 0..16)` drew on the commit before a host world became a
/// `HostScenario` (the other cases are fleets): the re-typing regenerates
/// the same values in the same order. Columns: case, WiFi and LTE bps,
/// RTTs in ms, bytes, strategy, device, fault labels' initials, end of the
/// plan in ms.
#[test]
fn seed_7_draws_what_it_drew_as_a_host_spec() {
    let pinned = [
        "2 10230683 9249573 57 41 1052672 Mptcp Nexus5 bhb 8312",
        "4 12121782 8365686 40 68 504832 Emptcp GalaxyS3 rhb 7533",
        "6 19011082 5458205 49 73 1341440 WifiFirst GalaxyS3 fr 7736",
        "7 5820050 11827397 35 37 665600 Mptcp GalaxyS3 brh 6049",
        "8 15838701 9972663 26 63 833536 Mptcp GalaxyS3 bhr 6886",
        "10 14329537 3296469 20 42 464896 Mptcp GalaxyS3 hb 5870",
        "11 11001176 11184664 29 50 1441792 Emptcp GalaxyS3  0",
        "15 19082462 7924201 49 67 602112 Mptcp GalaxyS3 r 3771",
    ];
    let drawn = (0..16).filter_map(|case| {
        let sc = generate(7, case);
        let World::Host {
            strategy,
            scenario: h,
            ..
        } = &sc.world
        else {
            return None;
        };
        let WifiEnvironment::Static { bps } = h.wifi else {
            panic!("case {case}: the generator draws static WiFi");
        };
        let ms = |ns: u64| ns / 1_000_000;
        let (wifi_rtt, cell_rtt) = (ms(h.wifi_rtt.as_nanos()), ms(h.cell_rtt.as_nanos()));
        let bytes = h.workload.owed_bytes().expect("a download");
        let faults: String = sc.faults.iter().map(|f| &f.label()[..1]).collect();
        let end = ms(plan::end_time(&sc.faults).unwrap_or_default().as_nanos());
        let (cell, device) = (h.cell_bps, h.device);
        Some(format!(
            "{case} {bps} {cell} {wifi_rtt} {cell_rtt} {bytes} {strategy:?} {device:?} {faults} {end}"
        ))
    });
    assert_eq!(drawn.collect::<Vec<_>>(), pinned);
}

/// A fleet file asking for more clients than the engine's event keys can
/// tell apart fails to load with its typed error, not a panic at run time.
#[test]
fn a_fleet_file_with_too_many_clients_fails_to_load() {
    use emptcp_net::fleet::{FleetConfigError, MAX_CLIENTS};
    use emptcp_scenario::corpus;
    let text = corpus::raw("fleet-contended").expect("corpus file");
    let said = r#""clients": 8,"#;
    assert!(text.contains(said), "fleet-contended no longer says {said}");
    let too_many = MAX_CLIENTS + 1;
    let edited = text.replace(said, &format!(r#""clients": {too_many},"#));
    assert_eq!(
        from_json_str(&edited),
        Err(emptcp_scenario::ScenarioError::Fleet(
            FleetConfigError::TooManyClients(too_many)
        ))
    );
    let edited = text.replace(said, &format!(r#""clients": {MAX_CLIENTS},"#));
    assert!(from_json_str(&edited).is_ok());
}
