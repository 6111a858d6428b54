//! The §5 in-the-wild study.
//!
//! The paper deploys servers in Singapore, Amsterdam and Washington D.C.,
//! and measures from three client venues (university building, student
//! housing on long-reach Ethernet, residence on cable). Network conditions
//! are *not* controlled; traces are categorized afterwards by the observed
//! WiFi and LTE throughput against an 8 Mbps Good/Bad threshold (§5.1,
//! Fig 14).
//!
//! The reproduction samples per-run WiFi/LTE capacities from per-venue and
//! per-carrier distributions, per-server base RTTs from geography, runs the
//! three strategies over identical draws, and applies the same 8 Mbps
//! categorization to the *measured* throughputs of the MPTCP run — exactly
//! how the paper bins its traces.

use crate::host::RunResult;
use crate::scenario::Scenario;
use crate::shared::run;
use crate::strategy::Strategy;
use emptcp_sim::{SimDuration, SimRng};
use serde::Serialize;

/// The 8 Mbps Good/Bad threshold of §5.1.
pub const GOOD_THRESHOLD_MBPS: f64 = 8.0;

/// Server locations (Table-free: §5's SNG/AMS/WDC deployment).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Server {
    /// Washington D.C. (near).
    Wdc,
    /// Amsterdam (transatlantic).
    Ams,
    /// Singapore (transpacific).
    Sng,
}

impl Server {
    /// All three, in the paper's order of appearance.
    pub const ALL: [Server; 3] = [Server::Sng, Server::Ams, Server::Wdc];

    /// Base one-way-ish RTT contribution of the server's location.
    pub fn base_rtt(self) -> SimDuration {
        match self {
            Server::Wdc => SimDuration::from_millis(25),
            Server::Ams => SimDuration::from_millis(95),
            Server::Sng => SimDuration::from_millis(230),
        }
    }

    /// Label.
    pub fn label(self) -> &'static str {
        match self {
            Server::Wdc => "WDC",
            Server::Ams => "AMS",
            Server::Sng => "SNG",
        }
    }
}

/// Client venues (§5's three measurement locations).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Venue {
    /// University building, AP on the campus network.
    University,
    /// Student housing behind Cisco Long-Reach Ethernet.
    StudentHousing,
    /// Personal residence on a cable uplink.
    Residence,
}

impl Venue {
    /// All three venues.
    pub const ALL: [Venue; 3] = [Venue::University, Venue::StudentHousing, Venue::Residence];

    /// Draw a WiFi capacity (bps) for one visit.
    pub fn draw_wifi_bps(self, rng: &mut SimRng) -> u64 {
        let mbps = match self {
            // Campus WiFi: usually fast, occasionally congested.
            Venue::University => rng.lognormal(2.6, 0.5),
            // Long-reach Ethernet bottleneck: mediocre, stable-ish.
            Venue::StudentHousing => rng.lognormal(1.5, 0.5),
            // Cable + home AP: wildly variable.
            Venue::Residence => rng.lognormal(2.0, 0.9),
        };
        (mbps.clamp(0.3, 25.0) * 1e6) as u64
    }

    /// Label.
    pub fn label(self) -> &'static str {
        match self {
            Venue::University => "university",
            Venue::StudentHousing => "student-housing",
            Venue::Residence => "residence",
        }
    }
}

/// Draw an LTE capacity (bps): one carrier, varying coverage.
pub fn draw_lte_bps(rng: &mut SimRng) -> u64 {
    let mbps = rng.lognormal(2.2, 0.7).clamp(0.5, 25.0);
    (mbps * 1e6) as u64
}

/// The four §5.1 categories.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Category {
    /// WiFi < 8 Mbps, LTE < 8 Mbps.
    BadBad,
    /// WiFi < 8 Mbps, LTE ≥ 8 Mbps.
    BadGood,
    /// WiFi ≥ 8 Mbps, LTE < 8 Mbps.
    GoodBad,
    /// WiFi ≥ 8 Mbps, LTE ≥ 8 Mbps.
    GoodGood,
}

impl Category {
    /// All four, in the paper's subfigure order.
    pub const ALL: [Category; 4] = [
        Category::BadBad,
        Category::BadGood,
        Category::GoodBad,
        Category::GoodGood,
    ];

    /// Categorize measured throughputs.
    pub fn of(wifi_mbps: f64, lte_mbps: f64) -> Category {
        match (
            wifi_mbps >= GOOD_THRESHOLD_MBPS,
            lte_mbps >= GOOD_THRESHOLD_MBPS,
        ) {
            (false, false) => Category::BadBad,
            (false, true) => Category::BadGood,
            (true, false) => Category::GoodBad,
            (true, true) => Category::GoodGood,
        }
    }

    /// Label matching the paper's subfigure captions.
    pub fn label(self) -> &'static str {
        match self {
            Category::BadBad => "Bad WiFi & Bad LTE",
            Category::BadGood => "Bad WiFi & Good LTE",
            Category::GoodBad => "Good WiFi & Bad LTE",
            Category::GoodGood => "Good WiFi & Good LTE",
        }
    }
}

/// One trace set: the three strategies over one environment draw.
#[derive(Clone, Debug, Serialize)]
pub struct WildTrace {
    /// Which server.
    pub server: Server,
    /// Which venue.
    pub venue: Venue,
    /// Iteration index.
    pub iteration: u32,
    /// Capacity draws (bps).
    pub wifi_bps: u64,
    /// LTE capacity draw (bps).
    pub lte_bps: u64,
    /// Category from the MPTCP run's measured throughputs.
    pub category: Category,
    /// MPTCP result.
    pub mptcp: RunResult,
    /// eMPTCP result.
    pub emptcp: RunResult,
    /// TCP-over-WiFi result.
    pub tcp_wifi: RunResult,
}

/// Run the full §5 sweep for one transfer size: every server × venue ×
/// iteration, all three strategies per draw.
///
/// Split into two phases for the parallel runner: the population draws
/// consume the parent RNG in a fixed nesting order and therefore stay
/// serial (they are pure RNG work, microseconds in total), while the
/// simulations — the actual cost — fan out one trace per job. Each trace
/// carries its own pre-drawn `run_seed`, so the result is byte-identical
/// to the old fully-serial loop for any pool size.
pub fn run_study(size_bytes: u64, iterations: u32, seed: u64) -> Vec<WildTrace> {
    struct Draw {
        server: Server,
        venue: Venue,
        iteration: u32,
        wifi_bps: u64,
        lte_bps: u64,
        run_seed: u64,
    }
    let mut rng = SimRng::new(seed);
    let mut draws = Vec::new();
    for &server in &Server::ALL {
        for &venue in &Venue::ALL {
            for iteration in 0..iterations {
                let mut draw_rng =
                    rng.fork((server as u64) << 32 | (venue as u64) << 16 | iteration as u64);
                let wifi_bps = venue.draw_wifi_bps(&mut draw_rng);
                let lte_bps = draw_lte_bps(&mut draw_rng);
                let run_seed = draw_rng.next_u64();
                draws.push(Draw {
                    server,
                    venue,
                    iteration,
                    wifi_bps,
                    lte_bps,
                    run_seed,
                });
            }
        }
    }
    crate::runner::run_points(draws.len(), |i| {
        let d = &draws[i];
        let wifi_rtt = d.server.base_rtt() + SimDuration::from_millis(5);
        let cell_rtt = d.server.base_rtt() + SimDuration::from_millis(40);
        let name = format!(
            "wild-{}-{}-{}",
            d.server.label(),
            d.venue.label(),
            d.iteration
        );
        let scenario =
            || Scenario::wild(&name, d.wifi_bps, d.lte_bps, wifi_rtt, cell_rtt, size_bytes);
        let mptcp = run(scenario(), Strategy::Mptcp, d.run_seed);
        let emptcp = run(scenario(), Strategy::emptcp_default(), d.run_seed);
        let tcp_wifi = run(scenario(), Strategy::TcpWifi, d.run_seed);
        // Categorize by the MPTCP run's measured throughputs, like
        // the paper; fall back to capacities if a path went unused.
        let wifi_meas = if mptcp.avg_wifi_mbps > 0.1 {
            mptcp.avg_wifi_mbps
        } else {
            d.wifi_bps as f64 / 1e6
        };
        let lte_meas = if mptcp.avg_cell_mbps > 0.1 {
            mptcp.avg_cell_mbps
        } else {
            d.lte_bps as f64 / 1e6
        };
        WildTrace {
            server: d.server,
            venue: d.venue,
            iteration: d.iteration,
            wifi_bps: d.wifi_bps,
            lte_bps: d.lte_bps,
            category: Category::of(wifi_meas, lte_meas),
            mptcp,
            emptcp,
            tcp_wifi,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorization_threshold() {
        assert_eq!(Category::of(7.9, 7.9), Category::BadBad);
        assert_eq!(Category::of(7.9, 8.0), Category::BadGood);
        assert_eq!(Category::of(8.0, 7.9), Category::GoodBad);
        assert_eq!(Category::of(8.0, 8.0), Category::GoodGood);
    }

    #[test]
    fn venue_draws_are_plausible() {
        let mut rng = SimRng::new(1);
        for venue in Venue::ALL {
            let draws: Vec<f64> = (0..500)
                .map(|_| venue.draw_wifi_bps(&mut rng) as f64 / 1e6)
                .collect();
            let mean = draws.iter().sum::<f64>() / draws.len() as f64;
            assert!(mean > 1.0 && mean < 20.0, "{venue:?}: mean {mean}");
            assert!(draws.iter().all(|&d| (0.3..=25.0).contains(&d)));
        }
    }

    #[test]
    fn university_faster_than_housing() {
        let mut rng = SimRng::new(2);
        let uni: f64 = (0..500)
            .map(|_| Venue::University.draw_wifi_bps(&mut rng) as f64)
            .sum();
        let housing: f64 = (0..500)
            .map(|_| Venue::StudentHousing.draw_wifi_bps(&mut rng) as f64)
            .sum();
        assert!(uni > housing);
    }

    #[test]
    fn server_rtts_ordered_by_distance() {
        assert!(Server::Wdc.base_rtt() < Server::Ams.base_rtt());
        assert!(Server::Ams.base_rtt() < Server::Sng.base_rtt());
    }

    #[test]
    fn small_study_produces_all_strategies() {
        // 1 iteration x 9 (server x venue) with a small file: fast enough
        // for a unit test.
        let traces = run_study(256 * 1024, 1, 7);
        assert_eq!(traces.len(), 9);
        for t in &traces {
            assert!(t.mptcp.completed, "{:?}", t.mptcp);
            assert!(t.emptcp.completed);
            assert!(t.tcp_wifi.completed);
            assert_eq!(t.mptcp.bytes_delivered, 256 * 1024);
        }
    }
}
