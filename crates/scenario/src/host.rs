//! The single-device experiment (§4 and §5): [`HostScenario`].
//!
//! One value describes the world outside the transport stack — capacities
//! and RTTs, how the WiFi capacity evolves, the workload, the device, the
//! horizon. It is what `expr::host::Simulation` runs, what a `.scenario`
//! file's host world says, and what the generator and the shrinker edit:
//! there is no second description to translate to. Strategies are
//! orthogonal: every figure runs one scenario under several.

use crate::spec::ScenarioError;
use emptcp_energy::DeviceProfile;
use emptcp_phy::mobility::{MobilityModel, Position, RateAdaptation, WaypointRoute};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

const MB: u64 = 1 << 20;
/// Most interfering stations a file may ask for (the paper uses 2 and 3):
/// the host allocates one on-off process per station.
pub const MAX_INTERFERERS: usize = 256;
/// The paper's §4 transfer: a 256 MB download.
const PAPER_BULK: Workload = Workload::Download { size: 256 * MB };

/// How the WiFi capacity behaves over the run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
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

impl Workload {
    /// The exact byte count a completed run must have delivered — what the
    /// exact-delivery oracle holds a run to. `None` for the workloads that
    /// end on a clock or a page, which owe completion only.
    pub fn owed_bytes(&self) -> Option<u64> {
        match *self {
            Workload::Download { size } | Workload::Upload { size } => Some(size),
            _ => None,
        }
    }
}

/// Serializable handle for the measured device energy profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Samsung Galaxy S3 (the paper's primary measurement device).
    GalaxyS3,
    /// LG Nexus 5.
    Nexus5,
}

impl DeviceKind {
    /// The measured power model for this device.
    pub fn profile(self) -> DeviceProfile {
        match self {
            DeviceKind::GalaxyS3 => DeviceProfile::galaxy_s3(),
            DeviceKind::Nexus5 => DeviceProfile::nexus_5(),
        }
    }
}

/// A complete single-device experiment environment. Equality is by value
/// over every field — what the exhibit engine's shared runs key on, since
/// several exhibits reuse a scenario *name* with different contents.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct HostScenario {
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
    /// The device whose measured power model the energy meter uses.
    pub device: DeviceKind,
    /// Constant platform power included in totals (0 = network-only, the
    /// §4/§5 file transfers; the §5.4 web case uses a whole-device value).
    pub baseline_w: f64,
    /// Absolute simulation cut-off (safety net for degenerate runs).
    pub horizon: SimTime,
}

/// A named environment: `(simulate --scenario handle, constructor)`.
pub type Named = (&'static str, fn() -> HostScenario);

/// Every named environment: the one list the CLI resolves names against
/// and the format's round-trip test walks.
pub const NAMED: [Named; 9] = [
    ("good", HostScenario::static_good_wifi),
    ("bad", HostScenario::static_bad_wifi),
    ("bwchange", HostScenario::bandwidth_changes),
    ("background", || HostScenario::background_traffic(2, 0.025)),
    ("mobility", HostScenario::mobility),
    ("web", HostScenario::web_browsing),
    ("outage", HostScenario::wifi_outage),
    ("upload", HostScenario::upload),
    ("streaming", HostScenario::streaming),
];

impl HostScenario {
    fn base(name: &str, wifi: WifiEnvironment, workload: Workload, horizon_s: u64) -> Self {
        HostScenario {
            name: name.to_string(),
            wifi,
            cell_bps: 12_000_000,
            cell_kind: IfaceKind::CellularLte,
            wifi_rtt: SimDuration::from_millis(25),
            cell_rtt: SimDuration::from_millis(60),
            workload,
            device: DeviceKind::GalaxyS3,
            baseline_w: 0.0,
            horizon: SimTime::from_secs(horizon_s),
        }
    }

    /// The named environment `simulate --scenario NAME` runs, if any.
    pub fn named(name: &str) -> Option<HostScenario> {
        NAMED
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, make)| make())
    }

    /// This environment, that workload.
    pub fn with(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// §4.2, high WiFi bandwidth (>10 Mbps), 256 MB download.
    pub fn static_good_wifi() -> Self {
        let wifi = WifiEnvironment::Static { bps: 11_000_000 };
        Self::base("static-good-wifi", wifi, PAPER_BULK, 6_000)
    }

    /// §4.2, low WiFi bandwidth (<1 Mbps), 256 MB download.
    pub fn static_bad_wifi() -> Self {
        let wifi = WifiEnvironment::Static { bps: 800_000 };
        Self::base("static-bad-wifi", wifi, PAPER_BULK, 12_000)
    }

    /// §4.3: random WiFi bandwidth changes (mean 40 s holding times).
    pub fn bandwidth_changes() -> Self {
        let wifi = WifiEnvironment::Modulated {
            mean_hold_s: 40.0,
            start_high: false,
        };
        Self::base("bandwidth-changes", wifi, PAPER_BULK, 12_000)
    }

    /// §4.4: background traffic with `n` interferers and the given λ_off.
    pub fn background_traffic(n: usize, lambda_off: f64) -> Self {
        let name = format!("background-n{n}-loff{lambda_off}");
        let bps = 12_000_000;
        let wifi = WifiEnvironment::Contended { bps, n, lambda_off };
        Self::base(&name, wifi, PAPER_BULK, 12_000)
    }

    /// §4.5: the mobile walk (Fig 11), 250 s of timed bulk transfer.
    pub fn mobility() -> Self {
        let model = Self::umass_walk();
        let duration = SimDuration::from_secs(250);
        let workload = Workload::TimedBulk { duration };
        Self::base(
            "mobility",
            WifiEnvironment::Mobile { model },
            workload,
            6_000,
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
    pub fn upload() -> Self {
        let wifi = WifiEnvironment::Static { bps: 11_000_000 };
        Self::base("upload", wifi, Workload::Upload { size: 64 * MB }, 6_000)
    }

    /// Extension experiment (paper §7 future work): 2 Mbps-equivalent video
    /// streaming (1 MB chunks every 4 s) for 200 s over modest WiFi.
    pub fn streaming() -> Self {
        let wifi = WifiEnvironment::Modulated {
            mean_hold_s: 40.0,
            start_high: true,
        };
        let workload = Workload::Streaming {
            chunk_bytes: MB,
            interval: SimDuration::from_secs(4),
            duration: SimDuration::from_secs(200),
        };
        Self::base("streaming", wifi, workload, 600)
    }

    /// Extension experiment: a 30 s WiFi association outage in the middle
    /// of a bulk download — the handover case §4.6's related approaches
    /// (Single-Path mode, WiFi-First) target.
    pub fn wifi_outage() -> Self {
        let wifi = WifiEnvironment::StaticWithOutage {
            bps: 11_000_000,
            outage_start: SimTime::from_secs(20),
            outage_end: SimTime::from_secs(50),
        };
        let workload = Workload::Download { size: 64 * MB };
        Self::base("wifi-outage", wifi, workload, 2_000)
    }

    /// §5.4: the web-browsing case study (good WiFi, good LTE), with a
    /// whole-device baseline power since the paper's totals include the
    /// browser application.
    pub fn web_browsing() -> Self {
        let wifi = WifiEnvironment::Static { bps: 25_000_000 };
        HostScenario {
            cell_bps: 10_000_000,
            // Department building to the WDC server.
            wifi_rtt: SimDuration::from_millis(40),
            cell_rtt: SimDuration::from_millis(80),
            baseline_w: 1.0,
            ..Self::base("web-browsing", wifi, Workload::WebPage, 300)
        }
    }

    /// A wild-study configuration: capacities and RTTs drawn by the §5
    /// study (or the scenario fuzzer), download of `size` bytes.
    pub fn wild(
        name: &str,
        wifi_bps: u64,
        cell_bps: u64,
        wifi_rtt: SimDuration,
        cell_rtt: SimDuration,
        size: u64,
    ) -> Self {
        let wifi = WifiEnvironment::Static { bps: wifi_bps };
        HostScenario {
            cell_bps,
            wifi_rtt,
            cell_rtt,
            ..Self::base(name, wifi, Workload::Download { size }, 3_000)
        }
    }

    /// Everything a `.scenario` file could say that the simulation cannot
    /// run: deserialization bypasses every constructor's assertion, so each
    /// value the host would divide by, index with or wait on is checked
    /// here and fails with a typed error instead of a panic.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        use ScenarioError::*;
        use WifiEnvironment::*;
        let bad = |rate: f64| !(rate.is_finite() && rate > 0.0);
        match &self.wifi {
            Static { bps: 0 } | Contended { bps: 0, .. } | StaticWithOutage { bps: 0, .. } => {
                Err(ZeroCapacityLink("wifi"))
            }
            Modulated { mean_hold_s, .. } if bad(*mean_hold_s) => Err(BadRate("mean_hold_s")),
            Contended { lambda_off, .. } if bad(*lambda_off) => Err(BadRate("lambda_off")),
            Contended { n, .. } if *n > MAX_INTERFERERS => Err(TooManyInterferers(*n)),
            Mobile { model } if !model.route().is_well_formed() => Err(BadRoute),
            StaticWithOutage {
                outage_start,
                outage_end,
                ..
            } if outage_end < outage_start => Err(ReversedOutage),
            _ => Ok(()),
        }?;
        if self.cell_bps == 0 {
            return Err(ZeroCapacityLink("cellular"));
        }
        if !self.cell_kind.is_cellular() {
            return Err(WifiAsCellular);
        }
        if self.horizon == SimTime::ZERO {
            return Err(ZeroDuration("horizon"));
        }
        match self.workload {
            Workload::Download { size: 0 }
            | Workload::Upload { size: 0 }
            | Workload::Streaming { chunk_bytes: 0, .. } => Err(EmptyWorkload),
            Workload::Streaming { interval, .. } if interval == SimDuration::ZERO => {
                Err(ZeroDuration("interval"))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn umass_walk_leaves_and_returns() {
        let walk = HostScenario::umass_walk();
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
}
