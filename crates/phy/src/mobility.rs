//! Mobility: waypoint routes and distance-based 802.11g rate adaptation.
//!
//! §4.5 of the paper walks a fixed route through the UMass CS building
//! (Fig 11): the device is sometimes within the AP's usable range and
//! sometimes outside it, so WiFi throughput rises and falls with position
//! while the association itself is retained. The model here is:
//!
//! * a [`WaypointRoute`]: piecewise-linear position over time,
//! * an 802.11g **rate-versus-distance staircase** ([`RateAdaptation`]):
//!   log-distance path loss collapsed into the standard rate-tier table,
//!   scaled by MAC efficiency to yield goodput,
//! * out-of-range ⇒ near-zero goodput but (per the paper's observation)
//!   *no* disassociation, which is exactly the situation where
//!   "MPTCP with WiFi-First" degenerates to a dead WiFi path.

use emptcp_sim::SimTime;
use serde::{Deserialize, Serialize};

/// A 2-D position in metres.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Position {
    /// Metres east.
    pub x: f64,
    /// Metres north.
    pub y: f64,
}

impl Position {
    /// Construct a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    fn distance_to(&self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A route given as timestamped waypoints; position is linearly interpolated
/// between them and clamped at the ends.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct WaypointRoute {
    waypoints: Vec<(SimTime, Position)>,
}

impl WaypointRoute {
    /// Build a route from waypoints; timestamps must be strictly increasing
    /// and at least one waypoint is required.
    pub fn new(waypoints: Vec<(SimTime, Position)>) -> Self {
        assert!(!waypoints.is_empty(), "route needs at least one waypoint");
        let route = WaypointRoute { waypoints };
        assert!(
            route.is_well_formed(),
            "waypoint times must be strictly increasing"
        );
        route
    }

    /// What [`WaypointRoute::new`] asserts and a deserialized route has
    /// yet to prove: a waypoint exists and the times strictly increase.
    pub fn is_well_formed(&self) -> bool {
        !self.waypoints.is_empty() && self.waypoints.windows(2).all(|w| w[0].0 < w[1].0)
    }

    /// Position at time `t`.
    fn position_at(&self, t: SimTime) -> Position {
        let ws = &self.waypoints;
        if t <= ws[0].0 {
            return ws[0].1;
        }
        if t >= ws[ws.len() - 1].0 {
            return ws[ws.len() - 1].1;
        }
        let idx = ws.partition_point(|&(wt, _)| wt <= t);
        let (t0, p0) = ws[idx - 1];
        let (t1, p1) = ws[idx];
        let span = (t1 - t0).as_secs_f64();
        let frac = (t - t0).as_secs_f64() / span;
        Position {
            x: p0.x + (p1.x - p0.x) * frac,
            y: p0.y + (p1.y - p0.y) * frac,
        }
    }

    /// Time of the last waypoint.
    pub fn end_time(&self) -> SimTime {
        self.waypoints[self.waypoints.len() - 1].0
    }
}

/// 802.11g PHY rate adaptation as a distance staircase, yielding TCP-visible
/// goodput (PHY rate × MAC efficiency).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RateAdaptation {
    /// `(max_distance_m, phy_rate_mbps)` tiers, sorted by distance.
    tiers: Vec<(f64, f64)>,
    /// Fraction of the PHY rate delivered as TCP goodput.
    mac_efficiency: f64,
    /// Goodput floor while still associated but effectively out of range.
    out_of_range_bps: u64,
    /// Distance beyond which even the floor disappears (true radio silence).
    silence_distance_m: f64,
}

impl RateAdaptation {
    /// The standard 802.11g tier table used throughout the reproduction.
    /// Distances approximate indoor propagation through walls.
    pub fn ieee80211g() -> Self {
        RateAdaptation {
            tiers: vec![
                (10.0, 54.0),
                (15.0, 48.0),
                (20.0, 36.0),
                (25.0, 24.0),
                (30.0, 18.0),
                (35.0, 12.0),
                (40.0, 9.0),
                (45.0, 6.0),
            ],
            mac_efficiency: 0.55,
            out_of_range_bps: 150_000,
            silence_distance_m: 70.0,
        }
    }

    /// Goodput (bps) at the given distance from the AP.
    fn goodput_bps(&self, distance_m: f64) -> u64 {
        for &(max_d, phy_mbps) in &self.tiers {
            if distance_m <= max_d {
                return (phy_mbps * self.mac_efficiency * 1e6) as u64;
            }
        }
        if distance_m <= self.silence_distance_m {
            self.out_of_range_bps
        } else {
            0
        }
    }

    /// The usable-range radius (the red dashed circle in Fig 11): the
    /// distance beyond which the device falls off the tier table.
    fn usable_range_m(&self) -> f64 {
        self.tiers.last().map(|&(d, _)| d).unwrap_or(0.0)
    }
}

/// Ties a route, an AP position and rate adaptation together: the WiFi
/// nominal capacity as a function of time.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct MobilityModel {
    route: WaypointRoute,
    ap: Position,
    adaptation: RateAdaptation,
}

impl MobilityModel {
    /// Construct a model.
    pub fn new(route: WaypointRoute, ap: Position, adaptation: RateAdaptation) -> Self {
        MobilityModel {
            route,
            ap,
            adaptation,
        }
    }

    /// The walk itself (for validating a model read from a file).
    pub fn route(&self) -> &WaypointRoute {
        &self.route
    }

    /// Distance from AP at time `t`.
    pub fn distance_at(&self, t: SimTime) -> f64 {
        self.route.position_at(t).distance_to(self.ap)
    }

    /// WiFi goodput at time `t`.
    pub fn wifi_goodput_bps(&self, t: SimTime) -> u64 {
        self.adaptation.goodput_bps(self.distance_at(t))
    }

    /// End of the route.
    pub fn end_time(&self) -> SimTime {
        self.route.end_time()
    }

    /// True if the device is within the rate-tier range at time `t`.
    pub fn in_usable_range(&self, t: SimTime) -> bool {
        self.distance_at(t) <= self.adaptation.usable_range_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn route_interpolates_linearly() {
        let route = WaypointRoute::new(vec![
            (s(0), Position::new(0.0, 0.0)),
            (s(10), Position::new(100.0, 0.0)),
        ]);
        assert_eq!(route.position_at(s(5)).x, 50.0);
        assert_eq!(route.position_at(s(0)).x, 0.0);
        // Clamped at the ends.
        assert_eq!(route.position_at(s(100)).x, 100.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn route_rejects_unordered_waypoints() {
        WaypointRoute::new(vec![
            (s(5), Position::new(0.0, 0.0)),
            (s(5), Position::new(1.0, 0.0)),
        ]);
    }

    #[test]
    fn rate_tiers_decrease_with_distance() {
        let ra = RateAdaptation::ieee80211g();
        let mut last = u64::MAX;
        for d in [5.0, 12.0, 18.0, 23.0, 28.0, 33.0, 38.0, 43.0, 50.0, 80.0] {
            let r = ra.goodput_bps(d);
            assert!(r <= last, "goodput must be non-increasing (d={d})");
            last = r;
        }
        // Near the AP: 54 Mbps * 0.55 efficiency ≈ 29.7 Mbps goodput.
        assert_eq!(ra.goodput_bps(5.0), 29_700_000);
        // Out of tier range but associated: tiny floor.
        assert_eq!(ra.goodput_bps(50.0), 150_000);
        // Beyond silence: zero.
        assert_eq!(ra.goodput_bps(100.0), 0);
    }

    #[test]
    fn usable_range_matches_last_tier() {
        assert_eq!(RateAdaptation::ieee80211g().usable_range_m(), 45.0);
    }

    #[test]
    fn mobility_model_tracks_distance() {
        let route = WaypointRoute::new(vec![
            (s(0), Position::new(0.0, 0.0)),
            (s(100), Position::new(100.0, 0.0)),
        ]);
        let m = MobilityModel::new(route, Position::new(0.0, 0.0), RateAdaptation::ieee80211g());
        assert_eq!(m.distance_at(s(0)), 0.0);
        assert_eq!(m.distance_at(s(50)), 50.0);
        assert!(m.in_usable_range(s(30)));
        assert!(!m.in_usable_range(s(50)));
        assert!(m.wifi_goodput_bps(s(0)) > m.wifi_goodput_bps(s(40)));
        assert_eq!(m.end_time(), s(100));
    }

    #[test]
    fn walking_out_and_back_recovers_rate() {
        let route = WaypointRoute::new(vec![
            (s(0), Position::new(5.0, 0.0)),
            (s(50), Position::new(60.0, 0.0)),
            (s(100), Position::new(5.0, 0.0)),
        ]);
        let m = MobilityModel::new(route, Position::new(0.0, 0.0), RateAdaptation::ieee80211g());
        let near = m.wifi_goodput_bps(s(0));
        let far = m.wifi_goodput_bps(s(50));
        let back = m.wifi_goodput_bps(s(100));
        assert!(far < near);
        assert_eq!(near, back);
    }
}
