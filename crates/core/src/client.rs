//! The eMPTCP control loop.
//!
//! [`EmptcpClient`] is the device-side brain: it watches an MPTCP client
//! connection, samples per-interface throughput into the bandwidth
//! predictor, runs the delayed-establishment rules until the cellular
//! subflow exists, and thereafter lets the path usage controller flip
//! subflow priorities. It *emits* [`Action`]s instead of performing them:
//! the host owns the sockets and the radios, which keeps this policy layer
//! deterministic and unit-testable — and mirrors the paper's architecture
//! (Fig 2), where the components sit beside the MPTCP stack rather than
//! inside the data path.

use crate::controller::{ControllerConfig, PathUsageController};
use crate::delay::{DelayConfig, DelayedEstablishment};
use crate::predictor::BandwidthPredictor;
use emptcp_energy::{Eib, PathUsage};
use emptcp_mptcp::{MpConnection, SubflowId};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Device-wide per-interface delivered-byte totals, aggregated across
/// every MPTCP connection on the host. §3.2's predictor samples *per
/// interface*, not per connection: six browser connections sharing one AP
/// must see the AP's aggregate throughput, not one sixth of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IfaceTotals {
    /// Cumulative payload bytes delivered over WiFi, device-wide.
    pub wifi_bytes: u64,
    /// Cumulative payload bytes delivered over cellular, device-wide.
    pub cell_bytes: u64,
}

impl IfaceTotals {
    /// Totals from a single connection (the single-connection case).
    #[cfg(test)]
    fn from_conn(conn: &MpConnection, cellular_kind: IfaceKind) -> IfaceTotals {
        IfaceTotals {
            wifi_bytes: conn.delivered_by_iface(IfaceKind::Wifi),
            cell_bytes: conn.delivered_by_iface(cellular_kind),
        }
    }
}

/// What the host should do on eMPTCP's behalf.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Establish the cellular subflow now (κ/τ rules fired).
    EstablishCellular,
    /// Change a subflow's priority via MP_PRIO.
    SetPriority {
        /// The subflow to re-prioritize.
        id: SubflowId,
        /// `true` = backup (suspended), `false` = normal.
        backup: bool,
    },
    /// Apply the §3.6 resume tweaks (zero RTT, no cwnd-reset) before
    /// re-using a suspended subflow.
    Resume {
        /// The subflow being resumed.
        id: SubflowId,
    },
}

/// eMPTCP configuration (§4.1 defaults).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct EmptcpConfig {
    /// Delayed-establishment rules (κ = 1 MB, τ = 3 s).
    pub delay: DelayConfig,
    /// Controller hysteresis (10% safety factor).
    pub controller: ControllerConfig,
    /// Holt-Winters level smoothing.
    pub predictor_alpha: f64,
    /// Holt-Winters trend smoothing.
    pub predictor_beta: f64,
    /// Assumed throughput for a never-activated interface (5 Mbps).
    pub initial_assumption_mbps: f64,
    /// Idle window floor for §3.5's idle test when no RTT estimate exists.
    pub idle_window_floor: SimDuration,
}

impl Default for EmptcpConfig {
    fn default() -> Self {
        EmptcpConfig {
            delay: DelayConfig::default(),
            controller: ControllerConfig::default(),
            predictor_alpha: 0.4,
            predictor_beta: 0.2,
            initial_assumption_mbps: 5.0,
            idle_window_floor: SimDuration::from_millis(200),
        }
    }
}

/// The eMPTCP policy engine for one connection.
#[derive(Clone, Debug)]
pub struct EmptcpClient {
    config: EmptcpConfig,
    eib: Eib,
    cellular_kind: IfaceKind,
    predictor: BandwidthPredictor,
    controller: PathUsageController,
    delay: DelayedEstablishment,
    wifi_id: Option<SubflowId>,
    cellular_id: Option<SubflowId>,
    /// Establishment requested, waiting for the host to create the subflow.
    establish_pending: bool,
    /// Ignore cellular samples until this time: after activation or resume
    /// the subflow is in slow start and measured throughput says nothing
    /// about the path (the same reasoning behind eq. 1's bound on tau).
    cell_settle_until: Option<SimTime>,
}

impl EmptcpClient {
    /// Build the engine for a device whose cellular radio is
    /// `cellular_kind`, with a pre-generated EIB.
    pub fn new(config: EmptcpConfig, eib: Eib, cellular_kind: IfaceKind) -> Self {
        assert!(cellular_kind.is_cellular());
        EmptcpClient {
            config,
            eib,
            cellular_kind,
            predictor: BandwidthPredictor::with_params(
                config.predictor_alpha,
                config.predictor_beta,
                config.initial_assumption_mbps,
            ),
            controller: PathUsageController::new(config.controller),
            delay: DelayedEstablishment::new(config.delay),
            wifi_id: None,
            cellular_id: None,
            establish_pending: false,
            cell_settle_until: None,
        }
    }

    /// Attach a telemetry scope (forwarded to the path usage controller,
    /// whose decisions are the engine's externally visible actions).
    pub fn set_telemetry(&mut self, scope: emptcp_telemetry::TelemetryScope) {
        self.controller.set_telemetry(scope);
    }

    /// The EIB in use.
    pub fn eib(&self) -> &Eib {
        &self.eib
    }

    /// The predictor (exposed for experiment instrumentation).
    pub fn predictor(&self) -> &BandwidthPredictor {
        &self.predictor
    }

    /// The current path usage (as the controller believes it).
    pub fn usage(&self) -> PathUsage {
        if self.cellular_id.is_none() {
            PathUsage::WifiOnly
        } else {
            self.controller.usage()
        }
    }

    /// Controller state switches so far.
    pub fn switches(&self) -> u64 {
        self.controller.switches()
    }

    /// Tell the engine which subflow is the WiFi primary; call when its
    /// handshake completes.
    pub fn on_wifi_established(&mut self, now: SimTime, id: SubflowId, conn: &MpConnection) {
        self.wifi_id = Some(id);
        let rtt = conn.subflow(id).tcp.rtt().handshake_rtt();
        self.predictor.register_iface(now, IfaceKind::Wifi, rtt);
        self.delay.on_connection_established(now);
    }

    /// Tell the engine the cellular subflow now exists (host executed
    /// [`Action::EstablishCellular`]).
    pub fn on_cellular_established(&mut self, now: SimTime, id: SubflowId, conn: &MpConnection) {
        self.cellular_id = Some(id);
        self.establish_pending = false;
        let rtt = conn.subflow(id).tcp.rtt().handshake_rtt();
        self.predictor.register_iface(now, self.cellular_kind, rtt);
        self.cell_settle_until = Some(now + self.settle_window());
        self.controller.force_usage(now, PathUsage::Both);
    }

    /// How long after (re)activation cellular samples are distrusted:
    /// enough round trips for slow start to fill the pipe.
    fn settle_window(&self) -> SimDuration {
        let delta = self
            .predictor
            .delta(self.cellular_kind)
            .unwrap_or(SimDuration::from_millis(250));
        (delta * 4).max(SimDuration::from_secs(1))
    }

    fn idle_window(&self, conn: &MpConnection) -> SimDuration {
        let rtt = self
            .wifi_id
            .map(|id| conn.subflow(id).tcp.rtt().srtt_or_zero())
            .unwrap_or(SimDuration::ZERO);
        rtt.max(self.config.idle_window_floor)
    }

    /// The periodic control tick: sample, predict, decide. The host should
    /// call this on the order of the sampling interval δ (oversampling is
    /// harmless; the predictor rate-limits itself).
    pub fn on_tick(
        &mut self,
        now: SimTime,
        conn: &MpConnection,
        totals: IfaceTotals,
    ) -> Vec<Action> {
        let mut actions = Vec::new();

        // --- sampling (device-wide per-interface counters) ---
        // §3.2 samples *active* subflows: an idle connection (HTTP
        // keep-alive between transfers) produces no evidence about the
        // paths, so its quiet windows are skipped rather than recorded as
        // zero throughput. A *link-down* WiFi subflow is different: the
        // kernel sees the disassociation at the link layer (the same
        // plumbing §3.6 uses to identify interfaces), so WiFi is known
        // dead rather than merely quiet. A subflow the failure detector
        // declared dead (consecutive RTOs without ack progress) is treated
        // the same way: known-broken, not idle.
        let wifi_down = self
            .wifi_id
            .map(|id| {
                let sf = conn.subflow(id);
                sf.link_down || sf.dead
            })
            .unwrap_or(false);
        let cell_down = self
            .cellular_id
            .map(|id| {
                let sf = conn.subflow(id);
                sf.link_down || sf.dead
            })
            .unwrap_or(false);
        let idle = !wifi_down && conn.is_idle(now, self.idle_window(conn));
        let wifi_bytes = totals.wifi_bytes;
        if idle || wifi_down {
            self.predictor.skip(now, IfaceKind::Wifi, wifi_bytes);
        } else {
            self.predictor.offer(now, IfaceKind::Wifi, wifi_bytes);
        }
        if self.cellular_id.is_some() {
            let cell_bytes = totals.cell_bytes;
            let settling = self.cell_settle_until.is_some_and(|t| now < t);
            let suspended = !self.controller.usage().uses_cellular();
            if suspended || settling || idle {
                // Suspension is policy and slow start is not evidence:
                // skip the window, keeping the previous forecast.
                self.predictor.skip(now, self.cellular_kind, cell_bytes);
            } else {
                self.predictor.offer(now, self.cellular_kind, cell_bytes);
            }
        }
        let wifi_pred = if wifi_down {
            0.0
        } else {
            self.predictor.predict(IfaceKind::Wifi)
        };
        let cell_pred = self.predictor.predict(self.cellular_kind);

        // --- delayed establishment (§3.5) ---
        if self.cellular_id.is_none() {
            if !self.establish_pending {
                // Graceful degradation: with WiFi dead there is nothing for
                // the κ/τ rules to deliberate about — every queued byte is
                // stranded until another path exists. Establish immediately.
                if wifi_down {
                    self.establish_pending = true;
                    actions.push(Action::EstablishCellular);
                    return actions;
                }
                if let Some(id) = self.wifi_id {
                    let sf = conn.subflow(id);
                    self.delay.refresh_tau(
                        wifi_pred,
                        sf.tcp.rtt().srtt_or_zero(),
                        sf.tcp.cc().initial_cwnd(),
                    );
                }
                let wifi_only_best = self.eib.choose(wifi_pred, cell_pred) == PathUsage::WifiOnly;
                let idle = conn.is_idle(now, self.idle_window(conn));
                if self
                    .delay
                    .evaluate(now, wifi_bytes, wifi_only_best, idle)
                    .is_some()
                {
                    self.establish_pending = true;
                    actions.push(Action::EstablishCellular);
                }
            }
            return actions;
        }

        // --- path usage control (§3.4) ---
        let cell_id = self.cellular_id.expect("checked above");
        let wifi_id = self.wifi_id.expect("wifi registered first");
        // Graceful degradation takes precedence over the EIB decision: a
        // dead path is forced out of the usage set immediately (no dwell,
        // no hysteresis), and the normal policy resumes once both paths
        // share a fate again. A subflow is suspended (backup) exactly when
        // the usage held before this decision left it out.
        let held = self.controller.usage();
        let usage = if wifi_down != cell_down {
            self.controller.degrade(now, !wifi_down, !cell_down)
        } else {
            self.controller.decide(now, &self.eib, wifi_pred, cell_pred)
        };
        let want_cell = usage.uses_cellular();
        let want_wifi = usage.uses_wifi();
        if want_cell != held.uses_cellular() {
            if want_cell {
                // Re-using a suspended subflow: §3.6 tweaks first, then
                // MP_PRIO back to normal.
                actions.push(Action::Resume { id: cell_id });
                actions.push(Action::SetPriority {
                    id: cell_id,
                    backup: false,
                });
                self.cell_settle_until = Some(now + self.settle_window());
            } else {
                actions.push(Action::SetPriority {
                    id: cell_id,
                    backup: true,
                });
            }
        }
        if want_wifi != held.uses_wifi() {
            if want_wifi {
                actions.push(Action::Resume { id: wifi_id });
                actions.push(Action::SetPriority {
                    id: wifi_id,
                    backup: false,
                });
            } else {
                actions.push(Action::SetPriority {
                    id: wifi_id,
                    backup: true,
                });
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_energy::EnergyModel;
    use emptcp_mptcp::Role;
    use emptcp_tcp::TcpConfig;

    const HALF: SimDuration = SimDuration::from_millis(10);

    struct Rig {
        now: SimTime,
        client: MpConnection,
        server: MpConnection,
        engine: EmptcpClient,
    }

    impl Rig {
        fn new() -> Rig {
            Rig::with_client_rwnd(4 * 1024 * 1024)
        }

        /// The loopback pump has no bandwidth limit, so tests emulate a
        /// weak WiFi path by capping the client's receive window.
        fn with_client_rwnd(rwnd: u64) -> Rig {
            let eib = Eib::generate_default(&EnergyModel::galaxy_s3_lte());
            let client_cfg = TcpConfig {
                rwnd_bytes: rwnd,
                ..TcpConfig::default()
            };
            let mut client = MpConnection::new(Role::Client, client_cfg);
            let mut server = MpConnection::new(Role::Server, TcpConfig::default());
            let now = SimTime::ZERO;
            client.add_subflow(now, IfaceKind::Wifi);
            server.add_subflow(now, IfaceKind::Wifi);
            Rig {
                now,
                client,
                server,
                engine: EmptcpClient::new(EmptcpConfig::default(), eib, IfaceKind::CellularLte),
            }
        }

        /// Move segments one way.
        fn flow(now: &mut SimTime, a: &mut MpConnection, b: &mut MpConnection) {
            a.on_deadline(*now);
            let mut segs = Vec::new();
            while let Some(pair) = a.poll_transmit(*now) {
                segs.push(pair);
            }
            *now += HALF;
            b.on_deadline(*now);
            for (id, seg) in segs {
                b.on_segment(*now, id, seg);
            }
        }

        fn round(&mut self) {
            Rig::flow(&mut self.now, &mut self.server, &mut self.client);
            Rig::flow(&mut self.now, &mut self.client, &mut self.server);
        }

        fn establish(&mut self) {
            self.round();
            self.round();
            assert!(self.client.established());
            self.engine
                .on_wifi_established(self.now, SubflowId(0), &self.client);
        }
    }

    #[test]
    fn no_cellular_for_small_fast_transfer() {
        let mut rig = Rig::new();
        rig.establish();
        rig.server.write(256 * 1024); // a small file
        for _ in 0..60 {
            rig.round();
            let actions = rig.engine.on_tick(
                rig.now,
                &rig.client,
                IfaceTotals::from_conn(&rig.client, IfaceKind::CellularLte),
            );
            assert!(
                actions.is_empty(),
                "unexpected actions {actions:?} at {}",
                rig.now
            );
            if rig.client.bytes_delivered() >= 256 * 1024 {
                break;
            }
        }
        assert_eq!(rig.client.bytes_delivered(), 256 * 1024);
        assert_eq!(rig.engine.usage(), PathUsage::WifiOnly);
    }

    #[test]
    fn kappa_triggers_cellular_for_large_transfer_on_weak_wifi() {
        // ~4 kB window over a 20 ms loopback RTT ≈ 1.6 Mbps of "WiFi".
        let mut rig = Rig::with_client_rwnd(4096);
        rig.establish();
        rig.server.write(64 << 20);
        // Make predicted WiFi weak by feeding the predictor directly: run
        // rounds but with a stingy per-round byte budget (the loopback here
        // is fast, so instead verify the trigger through the EIB branch by
        // checking the engine's actions once kappa has passed with a weak
        // forecast). We emulate weak WiFi by sampling with long gaps.
        let mut established_cell = false;
        for _ in 0..4000 {
            rig.round();
            for action in rig.engine.on_tick(
                rig.now,
                &rig.client,
                IfaceTotals::from_conn(&rig.client, IfaceKind::CellularLte),
            ) {
                if action == Action::EstablishCellular {
                    established_cell = true;
                }
            }
            if established_cell {
                break;
            }
        }
        // The loopback pump is slow relative to real WiFi (a few hundred
        // kB/s), so the predictor sees ~1 Mbps: the EIB wants Both and kappa
        // (1 MB) eventually fires.
        assert!(established_cell, "cellular subflow never requested");
    }

    #[test]
    fn controller_suspends_cellular_when_wifi_strong() {
        let mut rig = Rig::new();
        rig.establish();
        // Bring up the cellular subflow by hand.
        rig.client.add_subflow(rig.now, IfaceKind::CellularLte);
        rig.server.add_subflow(rig.now, IfaceKind::CellularLte);
        rig.round();
        rig.round();
        rig.engine
            .on_cellular_established(rig.now, SubflowId(1), &rig.client);
        assert_eq!(rig.engine.usage(), PathUsage::Both);

        // Feed the predictor a strong WiFi signal via direct sampling:
        // deliver lots of bytes quickly over WiFi.
        rig.server.write(8 << 20);
        let mut suspended = false;
        for _ in 0..4000 {
            rig.round();
            for action in rig.engine.on_tick(
                rig.now,
                &rig.client,
                IfaceTotals::from_conn(&rig.client, IfaceKind::CellularLte),
            ) {
                if let Action::SetPriority { id, backup: true } = action {
                    if id == SubflowId(1) {
                        suspended = true;
                    }
                }
            }
            if suspended {
                break;
            }
        }
        assert!(suspended, "cellular never suspended despite strong WiFi");
        assert_eq!(rig.engine.usage(), PathUsage::WifiOnly);
    }

    #[test]
    fn resume_emits_tweaks_before_priority() {
        let eib = Eib::generate_default(&EnergyModel::galaxy_s3_lte());
        let mut engine = EmptcpClient::new(EmptcpConfig::default(), eib, IfaceKind::CellularLte);
        // Wire a minimal rig to get both subflows registered.
        let mut rig = Rig::new();
        rig.establish();
        rig.client.add_subflow(rig.now, IfaceKind::CellularLte);
        rig.server.add_subflow(rig.now, IfaceKind::CellularLte);
        rig.round();
        rig.round();
        engine.on_wifi_established(rig.now, SubflowId(0), &rig.client);
        engine.on_cellular_established(rig.now, SubflowId(1), &rig.client);
        // Suspend by forcing a strong-WiFi decision...
        engine.controller.force_usage(rig.now, PathUsage::WifiOnly);
        // ...then a weak-WiFi tick resumes: Resume must precede SetPriority.
        // Feed weak wifi samples.
        engine
            .predictor
            .register_iface(rig.now, IfaceKind::Wifi, None);
        let actions = loop {
            rig.now += SimDuration::from_millis(300);
            engine.predictor.offer(
                rig.now,
                IfaceKind::Wifi,
                rig.client.delivered_by_iface(IfaceKind::Wifi),
            );
            let acts = engine.on_tick(
                rig.now,
                &rig.client,
                IfaceTotals::from_conn(&rig.client, IfaceKind::CellularLte),
            );
            if !acts.is_empty() {
                break acts;
            }
        };
        let resume_pos = actions
            .iter()
            .position(|a| matches!(a, Action::Resume { .. }));
        let prio_pos = actions
            .iter()
            .position(|a| matches!(a, Action::SetPriority { backup: false, .. }));
        assert!(resume_pos.is_some(), "{actions:?}");
        assert!(prio_pos.is_some(), "{actions:?}");
        assert!(resume_pos < prio_pos, "{actions:?}");
    }

    #[test]
    fn dead_wifi_bypasses_delayed_establishment() {
        let mut rig = Rig::new();
        rig.establish();
        rig.server.write(64 << 20);
        rig.round();
        // Well under κ = 1 MB delivered and τ not elapsed; a healthy tick
        // produces no actions.
        let actions = rig.engine.on_tick(
            rig.now,
            &rig.client,
            IfaceTotals::from_conn(&rig.client, IfaceKind::CellularLte),
        );
        assert!(actions.is_empty(), "{actions:?}");
        // The AP vanishes: establishment must fire on the next tick.
        rig.client.set_subflow_link_up(rig.now, SubflowId(0), false);
        let actions = rig.engine.on_tick(
            rig.now,
            &rig.client,
            IfaceTotals::from_conn(&rig.client, IfaceKind::CellularLte),
        );
        assert_eq!(actions, vec![Action::EstablishCellular]);
        // And only once: the request stays pending.
        let actions = rig.engine.on_tick(
            rig.now,
            &rig.client,
            IfaceTotals::from_conn(&rig.client, IfaceKind::CellularLte),
        );
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn dead_wifi_forces_usage_switch_despite_dwell() {
        let mut rig = Rig::new();
        rig.establish();
        rig.client.add_subflow(rig.now, IfaceKind::CellularLte);
        rig.server.add_subflow(rig.now, IfaceKind::CellularLte);
        rig.round();
        rig.round();
        rig.engine
            .on_cellular_established(rig.now, SubflowId(1), &rig.client);
        assert_eq!(rig.engine.usage(), PathUsage::Both);
        // Immediately after (inside the 3 s dwell window started by the
        // establishment force), the WiFi link drops.
        rig.now += SimDuration::from_millis(100);
        rig.client.set_subflow_link_up(rig.now, SubflowId(0), false);
        let actions = rig.engine.on_tick(
            rig.now,
            &rig.client,
            IfaceTotals::from_conn(&rig.client, IfaceKind::CellularLte),
        );
        assert_eq!(rig.engine.usage(), PathUsage::CellularOnly);
        assert!(
            actions.contains(&Action::SetPriority {
                id: SubflowId(0),
                backup: true,
            }),
            "{actions:?}"
        );
    }

    #[test]
    fn usage_reports_wifi_only_before_cellular_exists() {
        let eib = Eib::generate_default(&EnergyModel::galaxy_s3_lte());
        let engine = EmptcpClient::new(EmptcpConfig::default(), eib, IfaceKind::CellularLte);
        assert_eq!(engine.usage(), PathUsage::WifiOnly);
    }
}
