//! What a fleet run is asked and what it answers: [`FleetConfig`] in,
//! [`FleetReport`] out.
//!
//! The population is many client stacks sharing one bottleneck. Each
//! client downloads from its own server endpoint through a shared core
//! whose forward port is the bottleneck. Clients alternate between plain
//! TCP (one subflow) and MPTCP (a WiFi-like and an LTE-like access path,
//! LIA-coupled by default) — which is exactly the population the paper's
//! "do no harm" property is stated over: at a shared bottleneck an MPTCP
//! connection's aggregate must not out-compete a single TCP flow.
//! Optional unresponsive cross-traffic sources load the bottleneck
//! further. [`ShardedFleetSim`](crate::shard::ShardedFleetSim) is the
//! engine that runs it.

use emptcp_phy::LinkConfig;
use emptcp_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Most clients a fleet holds: client `i` is event owner `i + 1` of 30 bits.
pub const MAX_CLIENTS: usize = (1 << 30) - 2;

/// Configuration of a fleet run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of client stacks.
    pub clients: usize,
    /// Every `mptcp_every`-th client (starting at 0) runs MPTCP with two
    /// subflows; the rest are single-subflow TCP. `1` = all MPTCP,
    /// `usize::MAX` ≈ all TCP.
    pub mptcp_every: usize,
    /// LIA coupling for the MPTCP clients (false = per-subflow Reno, the
    /// ablation that demonstrates why "do no harm" needs coupling).
    pub coupled: bool,
    /// The shared core bottleneck (router → router, toward the clients).
    pub bottleneck: LinkConfig,
    /// WiFi-like access edge (client-side router → NIC a).
    pub access_a: LinkConfig,
    /// LTE-like access edge (client-side router → NIC b).
    pub access_b: LinkConfig,
    /// Timed-bulk horizon: every client downloads as much as it can until
    /// this much simulated time has passed.
    pub duration: SimDuration,
    /// Unresponsive on-off cross-traffic sources loading the bottleneck.
    pub cross_sources: usize,
    /// Mean offered rate per cross source while On, bits/s.
    pub cross_rate_bps: u64,
    /// Root seed for all randomness in the run.
    pub seed: u64,
}

impl FleetConfig {
    /// A contended defaults set: `clients` stacks behind a 100 Mbps core
    /// with roomy access links, half MPTCP, light cross-traffic.
    pub fn contended(clients: usize, seed: u64) -> FleetConfig {
        let mut fc = template(
            "fleet-contended",
            include_str!("../../../scenarios/fleet-contended.scenario"),
        );
        fc.clients = clients;
        fc.seed = seed;
        fc
    }

    /// The "do no harm" cell: four MPTCP clients (two subflows each)
    /// against four TCP clients on a tight core with no cross-traffic, so
    /// congestion control alone decides the split — and with enough flows
    /// that the split is a population mean rather than one pair's
    /// drop-tail phase. Shared by the `fairness` exhibit and the LIA
    /// golden test.
    pub fn do_no_harm_cell(seed: u64) -> FleetConfig {
        let mut fc = template(
            "do-no-harm-cell",
            include_str!("../../../scenarios/do-no-harm-cell.scenario"),
        );
        fc.seed = seed;
        fc
    }

    /// Check the configuration up front, so a degenerate value (a
    /// zero-capacity link, an empty population, no latency to bound an
    /// epoch with) comes back as one [`FleetConfigError`] — at `.scenario`
    /// parse time or engine construction — instead of failing deep inside
    /// a run.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        match self.clients {
            0 => return Err(FleetConfigError::NoClients),
            n if n > MAX_CLIENTS => return Err(FleetConfigError::TooManyClients(n)),
            _ => {}
        }
        if self.bottleneck.rate_bps == 0 {
            return Err(FleetConfigError::ZeroCapacityLink("bottleneck"));
        }
        if self.access_a.rate_bps == 0 {
            return Err(FleetConfigError::ZeroCapacityLink("access_a"));
        }
        if self.access_b.rate_bps == 0 {
            return Err(FleetConfigError::ZeroCapacityLink("access_b"));
        }
        if self.duration == SimDuration::ZERO {
            return Err(FleetConfigError::EmptyWorkload);
        }
        if self.cross_sources > 0 && self.cross_rate_bps == 0 {
            return Err(FleetConfigError::SilentCrossTraffic);
        }
        if crate::shard::lookahead(self) == SimDuration::ZERO {
            return Err(FleetConfigError::NoLookahead);
        }
        Ok(())
    }
}

/// Parse the `world.Fleet` config out of an embedded corpus scenario
/// file, once per template. The full scenario schema lives in the
/// `emptcp-scenario` crate (which depends on this one); the presets only
/// need the fleet slice of it, so they read the JSON structurally.
fn template(name: &'static str, text: &'static str) -> FleetConfig {
    use std::sync::OnceLock;
    static CONTENDED: OnceLock<FleetConfig> = OnceLock::new();
    static DO_NO_HARM: OnceLock<FleetConfig> = OnceLock::new();
    let cell = match name {
        "fleet-contended" => &CONTENDED,
        _ => &DO_NO_HARM,
    };
    cell.get_or_init(|| {
        let value: serde_json::Value = serde_json::from_str(text)
            .unwrap_or_else(|e| panic!("scenario file `{name}` is not valid JSON: {e:?}"));
        let fleet = value
            .get("world")
            .and_then(|w| w.get("Fleet"))
            .cloned()
            .unwrap_or_else(|| panic!("scenario file `{name}` has no Fleet world"));
        serde_json::from_value(fleet)
            .unwrap_or_else(|e| panic!("scenario file `{name}` fleet config is malformed: {e:?}"))
    })
    .clone()
}

/// Why a [`FleetConfig`] cannot run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FleetConfigError {
    /// `clients == 0`: there is nothing to simulate (and nothing to report
    /// fairness over).
    NoClients,
    /// More clients than [`MAX_CLIENTS`].
    TooManyClients(usize),
    /// A link was configured with `rate_bps == 0`; serialization time
    /// would be infinite. The payload names the offending link field.
    ZeroCapacityLink(&'static str),
    /// `duration == 0`: the timed-bulk workload is empty.
    EmptyWorkload,
    /// Cross-traffic sources were requested with a zero offered rate, so
    /// their next-emission interval is undefined.
    SilentCrossTraffic,
    /// Some cross-shard link has zero propagation delay, so the engine's
    /// conservative lookahead bound ([`lookahead`](crate::shard::lookahead))
    /// is zero and epochs cannot make progress.
    NoLookahead,
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::NoClients => write!(f, "fleet config has zero clients"),
            FleetConfigError::TooManyClients(n) => {
                write!(f, "fleet config has too many clients: {n}")
            }
            FleetConfigError::ZeroCapacityLink(which) => {
                write!(f, "fleet config link `{which}` has zero capacity")
            }
            FleetConfigError::EmptyWorkload => {
                write!(
                    f,
                    "fleet config duration is zero (empty timed-bulk workload)"
                )
            }
            FleetConfigError::SilentCrossTraffic => write!(
                f,
                "fleet config requests cross-traffic sources with a zero offered rate"
            ),
            FleetConfigError::NoLookahead => write!(
                f,
                "fleet config has no cross-shard link latency to bound epochs (zero lookahead)"
            ),
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// What one fleet run produced.
#[derive(Clone, Debug, Serialize)]
pub struct FleetReport {
    /// Client stack count.
    pub clients: usize,
    /// Simulated horizon (s).
    pub duration_s: f64,
    /// Per-client goodput, Mbit/s, in client order.
    pub per_client_mbps: Vec<f64>,
    /// Sum of per-client goodput.
    pub aggregate_mbps: f64,
    /// Mean goodput of the MPTCP clients (0 when none).
    pub mptcp_mean_mbps: f64,
    /// Mean goodput of the TCP clients (0 when none).
    pub tcp_mean_mbps: f64,
    /// `mptcp_mean_mbps / tcp_mean_mbps` — the "do no harm" ratio
    /// (0 when either side is absent).
    pub mptcp_tcp_ratio: f64,
    /// Jain's fairness index over per-client goodput (1 = perfectly fair).
    pub jain_index: f64,
    /// Tail drops at the designated bottleneck port.
    pub bottleneck_drops: u64,
    /// ECN marks at the bottleneck port.
    pub bottleneck_ecn_marks: u64,
    /// Deepest bottleneck queue observed (bytes).
    pub bottleneck_peak_queue_bytes: u64,
    /// Queue drops across every port of the fleet.
    pub total_queue_drops: u64,
    /// Cross-traffic packets offered to the core.
    pub cross_packets: u64,
    /// Fault events applied (0 without an attached plan).
    pub faults_injected: u64,
    /// Packets forwarded across every port in the run — the deterministic
    /// denominator of the benchmark's `net.fleet.ns_per_pkt`.
    pub packets_forwarded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_json() {
        let cfg = FleetConfig::do_no_harm_cell(7);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FleetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn preset_templates_pin_their_published_values() {
        // The presets load from the committed corpus files; pin the values
        // every exhibit and golden test depends on, so an accidental edit
        // to a `.scenario` file fails here instead of shifting numbers.
        let fc = FleetConfig::contended(6, 9);
        assert_eq!(fc.clients, 6);
        assert_eq!(fc.seed, 9);
        assert_eq!(fc.mptcp_every, 2);
        assert!(fc.coupled);
        assert_eq!(fc.bottleneck.rate_bps, 100_000_000);
        assert_eq!(fc.bottleneck.queue_capacity, 256 * 1024);
        assert_eq!(fc.access_a.rate_bps, 50_000_000);
        assert_eq!(fc.access_b.rate_bps, 30_000_000);
        assert_eq!(fc.duration, SimDuration::from_secs(10));
        assert_eq!(fc.cross_sources, 2);
        assert_eq!(fc.cross_rate_bps, 4_000_000);

        let dnh = FleetConfig::do_no_harm_cell(3);
        assert_eq!(dnh.clients, 8);
        assert_eq!(dnh.seed, 3);
        assert_eq!(dnh.mptcp_every, 2);
        assert_eq!(dnh.bottleneck.rate_bps, 64_000_000);
        assert_eq!(dnh.bottleneck.queue_capacity, 256 * 1024);
        assert_eq!(dnh.access_a.rate_bps, 50_000_000);
        assert_eq!(dnh.access_b.rate_bps, 30_000_000);
        assert_eq!(dnh.cross_sources, 0);
        assert_eq!(dnh.duration, SimDuration::from_secs(8));
    }
}
