//! A bidirectional end-to-end path between the mobile device and a server.
//!
//! Each MPTCP subflow rides one `Path`: the **down** link models the
//! bottleneck wireless hop plus internet path toward the device, the **up**
//! link carries requests and ACKs (never the bottleneck in the paper's
//! download-dominated workloads, but still rate-limited and delayed so
//! ACK-clocking behaves).
//!
//! A path is one interface: [`Path::apply`] pushes a fault into both links,
//! as a phone out of its AP's range loses both directions at once.

use crate::fault::{FaultAction, FaultPart, FaultState};
use crate::iface::IfaceKind;
use crate::link::{EnqueueOutcome, Link, LinkConfig};
use emptcp_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of a path.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PathConfig {
    /// Radio kind the device-side interface uses.
    pub iface: IfaceKind,
    /// Downlink (bottleneck) configuration.
    pub down: LinkConfig,
    /// Uplink configuration.
    pub up: LinkConfig,
}

impl PathConfig {
    /// A WiFi path: the downlink bottleneck is the AP's deliverable goodput,
    /// `rtt` is the full base round-trip to the server.
    pub fn wifi(down_bps: u64, rtt: SimDuration) -> Self {
        PathConfig {
            iface: IfaceKind::Wifi,
            down: LinkConfig {
                rate_bps: down_bps,
                prop_delay: rtt / 2,
                queue_capacity: 128 * 1024,
                loss_prob: 0.0005,
            },
            up: LinkConfig {
                rate_bps: down_bps.max(10_000_000),
                prop_delay: rtt / 2,
                queue_capacity: 256 * 1024,
                loss_prob: 0.0,
            },
        }
    }

    /// A cellular path (3G or LTE) with the given downlink capacity and base
    /// RTT. Cellular queues are deeper (carrier buffers).
    pub fn cellular(kind: IfaceKind, down_bps: u64, rtt: SimDuration) -> Self {
        assert!(kind.is_cellular(), "cellular path needs a cellular kind");
        PathConfig {
            iface: kind,
            down: LinkConfig {
                rate_bps: down_bps,
                prop_delay: rtt / 2,
                queue_capacity: 256 * 1024,
                loss_prob: 0.0002,
            },
            up: LinkConfig {
                rate_bps: down_bps.max(5_000_000),
                prop_delay: rtt / 2,
                queue_capacity: 256 * 1024,
                loss_prob: 0.0,
            },
        }
    }
}

/// A live path: two links, identity, and what faults hold over it.
#[derive(Clone, Debug)]
pub struct Path {
    /// Radio kind of the device-side interface.
    pub iface: IfaceKind,
    down: Link,
    up: Link,
    /// The downlink's nominal: its config, with the rate and loss a
    /// channel model last set ([`Path::set_down_nominal`]).
    down_nominal: LinkConfig,
    /// What the faults applied so far hold over the interface.
    fault: FaultState,
}

impl Path {
    /// Instantiate the links from a config.
    pub fn new(config: PathConfig) -> Self {
        Path {
            iface: config.iface,
            down: Link::new(config.down),
            up: Link::new(config.up),
            down_nominal: config.down,
            fault: FaultState::default(),
        }
    }

    /// Offer a packet to the downlink (`to_device`) or the uplink.
    pub fn enqueue(
        &mut self,
        to_device: bool,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SimRng,
    ) -> EnqueueOutcome {
        if to_device {
            self.down.enqueue(now, wire_bytes, rng)
        } else {
            self.up.enqueue(now, wire_bytes, rng)
        }
    }

    /// Fold a fault action into the interface's state and push the part it
    /// changed into both links, each over its own nominal; returns the part.
    pub fn apply(&mut self, now: SimTime, action: FaultAction) -> FaultPart {
        let part = self.fault.apply(action);
        self.fault
            .push_over(part, now, &mut self.down, &self.down_nominal);
        self.fault.push(part, now, &mut self.up);
        part
    }

    /// Set the downlink's nominal rate and loss, a channel model's output,
    /// and push what the fault state lets through: the rate, and the loss
    /// unless a fault's loss model is in force (re-installing it would
    /// reset its bursts). The uplink keeps its configured nominal. Returns
    /// the downlink's rate.
    pub fn set_down_nominal(&mut self, now: SimTime, rate_bps: u64, loss_prob: f64) -> u64 {
        self.down_nominal.rate_bps = rate_bps;
        self.down_nominal.loss_prob = loss_prob;
        let (fault, down, nominal) = (&self.fault, &mut self.down, &self.down_nominal);
        fault.push_over(FaultPart::Rate, now, down, nominal);
        if fault.loss.is_none() {
            fault.push_over(FaultPart::Loss, now, down, nominal);
        }
        down.rate_bps()
    }

    /// What the faults applied so far hold over the interface.
    pub fn fault(&self) -> &FaultState {
        &self.fault
    }

    /// The downlink, read-only.
    pub fn down(&self) -> &Link {
        &self.down
    }

    /// The uplink, read-only.
    pub fn up(&self) -> &Link {
        &self.up
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LossModel;

    #[test]
    fn wifi_path_construction() {
        let p = Path::new(PathConfig::wifi(10_000_000, SimDuration::from_millis(30)));
        assert_eq!(p.iface, IfaceKind::Wifi);
        assert_eq!(p.up().prop_delay(), SimDuration::from_millis(15));
        assert_eq!(p.down().rate_bps(), 10_000_000);
    }

    #[test]
    fn cellular_path_construction() {
        let p = Path::new(PathConfig::cellular(
            IfaceKind::CellularLte,
            20_000_000,
            SimDuration::from_millis(60),
        ));
        assert_eq!(p.iface, IfaceKind::CellularLte);
        assert!(p.up().rate_bps() >= 5_000_000);
    }

    #[test]
    #[should_panic(expected = "cellular path needs a cellular kind")]
    fn cellular_rejects_wifi_kind() {
        PathConfig::cellular(IfaceKind::Wifi, 1, SimDuration::ZERO);
    }

    #[test]
    fn directions_are_independent() {
        let mut p = Path::new(PathConfig::wifi(10_000_000, SimDuration::from_millis(20)));
        let mut rng = SimRng::new(1);
        let down = p.enqueue(true, SimTime::ZERO, 1500, &mut rng);
        let up = p.enqueue(false, SimTime::ZERO, 66, &mut rng);
        assert!(matches!(down, EnqueueOutcome::Delivered(_)));
        assert!(matches!(up, EnqueueOutcome::Delivered(_)));
        assert_eq!(p.down().delivered_packets(), 1);
        assert_eq!(p.up().delivered_packets(), 1);
    }

    #[test]
    fn a_channel_moves_the_downlink_nominal_under_the_faults() {
        let mut p = Path::new(PathConfig::wifi(8_000_000, SimDuration::from_millis(20)));
        let now = SimTime::from_secs(1);
        let burst = LossModel::Bernoulli(0.3);
        p.apply(now, FaultAction::Loss(Some(burst)));
        p.apply(now, FaultAction::IfaceDown);
        assert_eq!(p.set_down_nominal(now, 5_000_000, 0.02), 0);
        assert_eq!(p.down().loss_model(), burst);
        // Restores go back to the channel's latest output, not the config;
        // the uplink keeps its configured rate.
        p.apply(now, FaultAction::IfaceUp);
        p.apply(now, FaultAction::Loss(None));
        assert_eq!(
            (p.down().rate_bps(), p.up().rate_bps()),
            (5_000_000, 10_000_000)
        );
        assert_eq!(p.down().loss_model(), LossModel::Bernoulli(0.02));
    }
}
