//! Experiment environments (§4 and §5).
//!
//! A [`Scenario`] fully describes the world outside the transport stack:
//! link capacities and RTTs, how the WiFi capacity evolves (static,
//! modulated, contended, or mobility-driven), the workload, the device
//! profile, and the simulation horizon. Strategies are orthogonal: every
//! figure runs the same scenario under several strategies.

use emptcp_energy::DeviceProfile;
use emptcp_phy::mobility::{MobilityModel, Position, RateAdaptation, WaypointRoute};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_workload::download::MB;
use serde::{Deserialize, Serialize};

/// How the WiFi capacity behaves over the run.
#[derive(Clone, PartialEq, Debug)]
pub enum WifiEnvironment {
    /// Fixed nominal capacity.
    Static {
        /// AP goodput, bps.
        bps: u64,
    },
    /// §4.3: two-state exponential on-off modulation of the AP capacity.
    Modulated {
        /// Mean holding time per state, seconds.
        mean_hold_s: f64,
        /// Start in the high state?
        start_high: bool,
    },
    /// §4.4: static capacity plus `n` on-off interfering stations.
    Contended {
        /// AP goodput with an idle channel, bps.
        bps: u64,
        /// Number of interfering stations.
        n: usize,
        /// Their off-state rate λ_off (λ_on is fixed at 0.05).
        lambda_off: f64,
    },
    /// §4.5: capacity follows the device's position along a route.
    Mobile {
        /// The walk (route + AP position + rate adaptation).
        model: MobilityModel,
    },
    /// A handover scenario: static capacity, but the WiFi *association* is
    /// lost for a window (AP reboot, walking past coverage). This is the
    /// case Single-Path mode and WiFi-First were designed for (§4.6).
    StaticWithOutage {
        /// AP goodput while associated, bps.
        bps: u64,
        /// Association lost at this time...
        outage_start: SimTime,
        /// ...and regained at this time.
        outage_end: SimTime,
    },
}

/// What the device downloads.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Workload {
    /// One file of this many bytes; the run ends at delivery (plus radio
    /// drain).
    Download {
        /// Transfer size in bytes.
        size: u64,
    },
    /// Download as much as possible for a fixed duration (§4.5 measures
    /// the amount moved in 250 s).
    TimedBulk {
        /// Measurement window.
        duration: SimDuration,
    },
    /// §5.4: a 107-object page over six parallel connections.
    WebPage,
    /// Extension (paper §7 future work): the device uploads `size` bytes.
    Upload {
        /// Bytes the client sends to the server.
        size: u64,
    },
    /// Extension (paper §7 future work): chunked video streaming — the
    /// server pushes one `chunk_bytes` segment every `interval` for
    /// `duration`; a chunk arriving after the next one is due counts as a
    /// rebuffer event.
    Streaming {
        /// Bytes per video chunk.
        chunk_bytes: u64,
        /// Playback interval between chunks.
        interval: SimDuration,
        /// Total stream length.
        duration: SimDuration,
    },
}

/// A complete experiment environment. Equality is by value over every
/// field — what the exhibit engine's shared runs key on, since several
/// exhibits reuse a scenario *name* with different contents.
#[derive(Clone, PartialEq, Debug)]
pub struct Scenario {
    /// Human-readable name (appears in result tables).
    pub name: String,
    /// WiFi behaviour.
    pub wifi: WifiEnvironment,
    /// Cellular downlink capacity, bps.
    pub cell_bps: u64,
    /// Which cellular radio the device uses.
    pub cell_kind: IfaceKind,
    /// Base round-trip to the server over WiFi.
    pub wifi_rtt: SimDuration,
    /// Base round-trip to the server over cellular.
    pub cell_rtt: SimDuration,
    /// The workload.
    pub workload: Workload,
    /// Device energy profile.
    pub profile: DeviceProfile,
    /// Constant platform power included in totals (0 = network-only, the
    /// §4/§5 file transfers; the §5.4 web case uses a whole-device value).
    pub baseline_w: f64,
    /// Absolute simulation cut-off (safety net for degenerate runs).
    pub horizon: SimTime,
}

impl Scenario {
    fn base(name: &str, wifi: WifiEnvironment, workload: Workload) -> Scenario {
        Scenario {
            name: name.to_string(),
            wifi,
            cell_bps: 12_000_000,
            cell_kind: IfaceKind::CellularLte,
            wifi_rtt: SimDuration::from_millis(25),
            cell_rtt: SimDuration::from_millis(60),
            workload,
            profile: DeviceProfile::galaxy_s3(),
            baseline_w: 0.0,
            horizon: SimTime::from_secs(6_000),
        }
    }

    /// §4.2, high WiFi bandwidth (>10 Mbps), 256 MB download.
    pub fn static_good_wifi() -> Scenario {
        Scenario::base(
            "static-good-wifi",
            WifiEnvironment::Static { bps: 11_000_000 },
            Workload::Download { size: 256 * MB },
        )
    }

    /// §4.2, low WiFi bandwidth (<1 Mbps), 256 MB download.
    pub fn static_bad_wifi() -> Scenario {
        let mut s = Scenario::base(
            "static-bad-wifi",
            WifiEnvironment::Static { bps: 800_000 },
            Workload::Download { size: 256 * MB },
        );
        s.horizon = SimTime::from_secs(12_000);
        s
    }

    /// §4.3: random WiFi bandwidth changes (mean 40 s holding times).
    pub fn bandwidth_changes() -> Scenario {
        let mut s = Scenario::base(
            "bandwidth-changes",
            WifiEnvironment::Modulated {
                mean_hold_s: 40.0,
                start_high: false,
            },
            Workload::Download { size: 256 * MB },
        );
        s.horizon = SimTime::from_secs(12_000);
        s
    }

    /// §4.4: background traffic with `n` interferers and the given λ_off.
    pub fn background_traffic(n: usize, lambda_off: f64) -> Scenario {
        let mut s = Scenario::base(
            &format!("background-n{n}-loff{lambda_off}"),
            WifiEnvironment::Contended {
                bps: 12_000_000,
                n,
                lambda_off,
            },
            Workload::Download { size: 256 * MB },
        );
        s.horizon = SimTime::from_secs(12_000);
        s
    }

    /// §4.5: the mobile walk (Fig 11), 250 s of timed bulk transfer.
    pub fn mobility() -> Scenario {
        Scenario::base(
            "mobility",
            WifiEnvironment::Mobile {
                model: Scenario::umass_walk(),
            },
            Workload::TimedBulk {
                duration: SimDuration::from_secs(250),
            },
        )
    }

    /// The Fig 11 walk, synthesized: start near the AP, walk out of range
    /// (~25–40 s), come back within range, linger at medium distance, leave
    /// again, and return by 250 s.
    pub fn umass_walk() -> MobilityModel {
        let s = SimTime::from_secs;
        let p = Position::new;
        let route = WaypointRoute::new(vec![
            (s(0), p(6.0, 0.0)),
            (s(20), p(18.0, 0.0)),
            (s(25), p(40.0, 10.0)),
            (s(32), p(58.0, 20.0)), // out of usable range
            (s(40), p(42.0, 8.0)),
            (s(60), p(15.0, 2.0)),
            (s(110), p(10.0, 0.0)),
            (s(140), p(30.0, 6.0)),
            (s(165), p(52.0, 18.0)), // out again
            (s(185), p(34.0, 8.0)),
            (s(215), p(14.0, 2.0)),
            (s(250), p(7.0, 0.0)),
        ]);
        MobilityModel::new(route, p(0.0, 0.0), RateAdaptation::ieee80211g())
    }

    /// Extension experiment (paper §7 future work): a 64 MB upload from
    /// the device over good WiFi.
    pub fn upload() -> Scenario {
        Scenario::base(
            "upload",
            WifiEnvironment::Static { bps: 11_000_000 },
            Workload::Upload { size: 64 * MB },
        )
    }

    /// Extension experiment (paper §7 future work): 2 Mbps-equivalent video
    /// streaming (1 MB chunks every 4 s) for 200 s over modest WiFi.
    pub fn streaming() -> Scenario {
        let mut s = Scenario::base(
            "streaming",
            WifiEnvironment::Modulated {
                mean_hold_s: 40.0,
                start_high: true,
            },
            Workload::Streaming {
                chunk_bytes: MB,
                interval: SimDuration::from_secs(4),
                duration: SimDuration::from_secs(200),
            },
        );
        s.horizon = SimTime::from_secs(600);
        s
    }

    /// Extension experiment: a 30 s WiFi association outage in the middle
    /// of a bulk download — the handover case §4.6's related approaches
    /// (Single-Path mode, WiFi-First) target.
    pub fn wifi_outage() -> Scenario {
        let mut s = Scenario::base(
            "wifi-outage",
            WifiEnvironment::StaticWithOutage {
                bps: 11_000_000,
                outage_start: SimTime::from_secs(20),
                outage_end: SimTime::from_secs(50),
            },
            Workload::Download { size: 64 * MB },
        );
        s.horizon = SimTime::from_secs(2_000);
        s
    }

    /// §5.4: the web-browsing case study (good WiFi, good LTE), with a
    /// whole-device baseline power since the paper's totals include the
    /// browser application.
    pub fn web_browsing() -> Scenario {
        let mut s = Scenario::base(
            "web-browsing",
            WifiEnvironment::Static { bps: 25_000_000 },
            Workload::WebPage,
        );
        s.cell_bps = 10_000_000;
        // Department building to the WDC server.
        s.wifi_rtt = SimDuration::from_millis(40);
        s.cell_rtt = SimDuration::from_millis(80);
        s.baseline_w = 1.0;
        s.horizon = SimTime::from_secs(300);
        s
    }

    /// A wild-study configuration: capacities and RTTs drawn by
    /// [`crate::wild`], download of `size` bytes.
    pub fn wild(
        name: &str,
        wifi_bps: u64,
        cell_bps: u64,
        wifi_rtt: SimDuration,
        cell_rtt: SimDuration,
        size: u64,
    ) -> Scenario {
        let mut s = Scenario::base(
            name,
            WifiEnvironment::Static { bps: wifi_bps },
            Workload::Download { size },
        );
        s.cell_bps = cell_bps;
        s.wifi_rtt = wifi_rtt;
        s.cell_rtt = cell_rtt;
        s.horizon = SimTime::from_secs(3_000);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_scenarios_construct() {
        for s in [
            Scenario::static_good_wifi(),
            Scenario::static_bad_wifi(),
            Scenario::bandwidth_changes(),
            Scenario::background_traffic(2, 0.025),
            Scenario::mobility(),
            Scenario::web_browsing(),
            Scenario::wifi_outage(),
        ] {
            assert!(!s.name.is_empty());
            assert!(s.horizon > SimTime::ZERO);
        }
    }

    #[test]
    fn umass_walk_leaves_and_returns() {
        let walk = Scenario::umass_walk();
        // In range at the start...
        assert!(walk.in_usable_range(SimTime::from_secs(0)));
        // ...out of range around 32 s (the paper's 25–40 s window)...
        assert!(!walk.in_usable_range(SimTime::from_secs(32)));
        // ...back in range by 60 s...
        assert!(walk.in_usable_range(SimTime::from_secs(60)));
        // ...out again around 165 s...
        assert!(!walk.in_usable_range(SimTime::from_secs(165)));
        // ...and home at the end.
        assert!(walk.in_usable_range(SimTime::from_secs(250)));
        assert_eq!(walk.end_time(), SimTime::from_secs(250));
    }

    #[test]
    fn wild_scenario_applies_parameters() {
        let s = Scenario::wild(
            "wild-test",
            5_000_000,
            9_000_000,
            SimDuration::from_millis(95),
            SimDuration::from_millis(140),
            16 * MB,
        );
        assert_eq!(s.cell_bps, 9_000_000);
        assert_eq!(s.wifi_rtt, SimDuration::from_millis(95));
        match s.workload {
            Workload::Download { size } => assert_eq!(size, 16 * MB),
            _ => panic!("wrong workload"),
        }
    }
}
