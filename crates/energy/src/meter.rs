//! Runtime energy accounting.
//!
//! The paper measures energy with an external power monitor; here the host
//! reports radio activity ([`RadioSnapshot`]) whenever anything changes
//! (RRC transitions, throughput re-estimates) and the meter integrates the
//! model's power over simulated time. Power is a step function between
//! updates, so integration is exact.

use crate::model::EnergyModel;
use emptcp_phy::rrc::RrcState;
use emptcp_sim::trace::StepSeries;
use emptcp_sim::SimTime;
use emptcp_telemetry::{TelemetryScope, TraceEvent};
use serde::{Deserialize, Serialize};

/// Throughputs below this are treated as "not transferring" for power
/// purposes (stray ACKs don't count as active transfer).
const ACTIVE_THPT_EPS_MBPS: f64 = 0.01;

/// What the radios are doing right now, as reported by the host.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RadioSnapshot {
    /// WiFi radio powered and associated.
    pub wifi_on: bool,
    /// Current WiFi receive+transmit throughput, Mbps.
    pub wifi_mbps: f64,
    /// Cellular RRC state.
    pub cell_state: RrcState,
    /// Current cellular throughput, Mbps.
    pub cell_mbps: f64,
}

impl RadioSnapshot {
    /// Everything off/idle.
    pub fn idle() -> Self {
        RadioSnapshot {
            wifi_on: true,
            wifi_mbps: 0.0,
            cell_state: RrcState::Idle,
            cell_mbps: 0.0,
        }
    }
}

/// Integrates device power over simulated time.
#[derive(Clone, Debug)]
pub struct EnergyMeter {
    model: EnergyModel,
    /// Constant platform power added on top of radio power (screen, SoC);
    /// zero for network-only accounting like the paper's energy model, set
    /// for whole-device cases like the §5.4 web-browsing comparison.
    baseline_w: f64,
    total: StepSeries,
    wifi: StepSeries,
    cell: StepSeries,
    /// One-shot energies charged so far (WiFi wake).
    one_shot_j: f64,
    wifi_woken: bool,
    snapshot: RadioSnapshot,
    /// Cellular energy split by RRC state `[idle, promotion, active, tail]`
    /// — the accounting behind "where did MPTCP's extra joules go?".
    cell_state_j: [f64; 4],
    cell_state_since: SimTime,
    /// Telemetry scope: power-level changes emit
    /// [`TraceEvent::EnergyLevel`] per radio component.
    scope: TelemetryScope,
}

impl EnergyMeter {
    /// A meter starting at `t0` with all radios idle.
    pub fn new(model: EnergyModel, t0: SimTime, baseline_w: f64) -> Self {
        let snapshot = RadioSnapshot::idle();
        let (w, c, tot) = Self::power_of(&model, &snapshot, baseline_w);
        EnergyMeter {
            model,
            baseline_w,
            total: StepSeries::new(t0, tot),
            wifi: StepSeries::new(t0, w),
            cell: StepSeries::new(t0, c),
            one_shot_j: 0.0,
            wifi_woken: false,
            snapshot,
            cell_state_j: [0.0; 4],
            cell_state_since: t0,
            scope: TelemetryScope::disabled(),
        }
    }

    /// Attach a telemetry scope; subsequent power-level changes are traced.
    pub fn set_telemetry(&mut self, scope: TelemetryScope) {
        self.scope = scope;
    }

    fn state_index(state: RrcState) -> usize {
        match state {
            RrcState::Idle => 0,
            RrcState::Promotion => 1,
            RrcState::Active => 2,
            RrcState::Tail => 3,
        }
    }

    /// The energy model in use.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    fn power_of(model: &EnergyModel, s: &RadioSnapshot, baseline_w: f64) -> (f64, f64, f64) {
        let profile = model.profile();
        let wifi_active = s.wifi_on && s.wifi_mbps > ACTIVE_THPT_EPS_MBPS;
        let wifi_w = if !s.wifi_on {
            0.0
        } else if wifi_active {
            profile.wifi_curve.power_w(s.wifi_mbps)
        } else {
            profile.wifi_idle_w
        };
        let cell = model.cellular();
        let cell_active = s.cell_state == RrcState::Active && s.cell_mbps > ACTIVE_THPT_EPS_MBPS;
        let cell_w = match s.cell_state {
            RrcState::Idle => cell.idle_w,
            RrcState::Promotion => cell.promo_w,
            RrcState::Active => {
                if cell_active {
                    cell.curve.power_w(s.cell_mbps)
                } else {
                    // Connected but momentarily quiet: connected baseline.
                    cell.curve.base_w()
                }
            }
            RrcState::Tail => cell.tail_w,
        };
        // Simultaneous-transfer sharing discount, floored so the pair never
        // draws less than its more expensive member.
        let radios = if wifi_active && cell_active {
            (wifi_w + cell_w - profile.sharing_discount_w).max(wifi_w.max(cell_w))
        } else {
            wifi_w + cell_w
        };
        (wifi_w, cell_w, radios + baseline_w)
    }

    /// Report the current radio activity. May be called at any frequency;
    /// levels hold between calls.
    pub fn update(&mut self, now: SimTime, snapshot: RadioSnapshot) {
        if !self.wifi_woken && snapshot.wifi_on && snapshot.wifi_mbps > ACTIVE_THPT_EPS_MBPS {
            self.one_shot_j += self.model.profile().wifi_wake_j;
            self.wifi_woken = true;
        }
        // Close the previous cellular-state segment.
        let dt = now.saturating_since(self.cell_state_since).as_secs_f64();
        self.cell_state_j[Self::state_index(self.snapshot.cell_state)] += self.cell.level() * dt;
        self.cell_state_since = now;

        let (w, c, tot) = Self::power_of(&self.model, &snapshot, self.baseline_w);
        if self.scope.tracing_active() {
            if w != self.wifi.level() {
                self.scope.emit(now, |_| TraceEvent::EnergyLevel {
                    component: "wifi",
                    watts: w,
                });
            }
            if c != self.cell.level() {
                self.scope.emit(now, |_| TraceEvent::EnergyLevel {
                    component: "cell",
                    watts: c,
                });
            }
        }
        self.wifi.set_level(now, w);
        self.cell.set_level(now, c);
        self.total.set_level(now, tot);
        self.snapshot = snapshot;
    }

    /// Export the current energy split as gauges: total, per-radio, and the
    /// per-RRC-state cellular breakdown.
    pub fn export_metrics(&self, now: SimTime) {
        self.scope.with_metrics(|_, m| {
            m.gauge_set("energy.total_j", self.energy_j(now));
            m.gauge_set("energy.wifi_j", self.wifi_energy_j(now));
            m.gauge_set("energy.cell_j", self.cell_energy_j(now));
            let (idle, promo, active, tail) = self.cell_state_energy_j();
            m.gauge_set("energy.cell.idle_j", idle);
            m.gauge_set("energy.cell.promotion_j", promo);
            m.gauge_set("energy.cell.active_j", active);
            m.gauge_set("energy.cell.tail_j", tail);
        });
    }

    /// Cellular energy attributed to each RRC state up to the last update:
    /// `(idle, promotion, active, tail)` joules. The promotion and tail
    /// entries are the paper's "fixed overheads" as actually paid.
    pub fn cell_state_energy_j(&self) -> (f64, f64, f64, f64) {
        (
            self.cell_state_j[0],
            self.cell_state_j[1],
            self.cell_state_j[2],
            self.cell_state_j[3],
        )
    }

    /// The last reported snapshot.
    pub fn snapshot(&self) -> RadioSnapshot {
        self.snapshot
    }

    /// Instantaneous total power (W).
    pub fn power_w(&self) -> f64 {
        self.total.level()
    }

    /// Total energy consumed up to `now` (J), including one-shot costs.
    pub fn energy_j(&self, now: SimTime) -> f64 {
        self.total.integral_at(now) + self.one_shot_j
    }

    /// Energy attributed to the WiFi radio (undiscounted), up to `now`.
    fn wifi_energy_j(&self, now: SimTime) -> f64 {
        self.wifi.integral_at(now)
            + if self.wifi_woken {
                self.model.profile().wifi_wake_j
            } else {
                0.0
            }
    }

    /// Energy attributed to the cellular radio (undiscounted), up to `now`.
    fn cell_energy_j(&self, now: SimTime) -> f64 {
        self.cell.integral_at(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimDuration;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn meter() -> EnergyMeter {
        EnergyMeter::new(EnergyModel::galaxy_s3_lte(), SimTime::ZERO, 0.0)
    }

    #[test]
    fn idle_device_draws_almost_nothing() {
        let m = meter();
        let e = m.energy_j(s(100));
        // WiFi idle 12 mW + cellular idle 6 mW for 100 s ≈ 1.8 J.
        assert!(e < 2.5, "{e}");
        assert!(e > 1.0, "{e}");
    }

    #[test]
    fn wifi_transfer_uses_curve_plus_wake() {
        let mut m = meter();
        m.update(
            SimTime::ZERO,
            RadioSnapshot {
                wifi_on: true,
                wifi_mbps: 2.0,
                cell_state: RrcState::Idle,
                cell_mbps: 0.0,
            },
        );
        let e = m.energy_j(s(10));
        // 0.53 W (curve at 2 Mbps) + 0.006 (cell idle) over 10 s + 0.15 wake.
        let expected = 0.53 * 10.0 + 0.006 * 10.0 + 0.15;
        assert!((e - expected).abs() < 0.01, "{e} vs {expected}");
    }

    #[test]
    fn wake_energy_charged_once() {
        let mut m = meter();
        for t in 1..5 {
            m.update(
                s(t),
                RadioSnapshot {
                    wifi_on: true,
                    wifi_mbps: 1.0,
                    cell_state: RrcState::Idle,
                    cell_mbps: 0.0,
                },
            );
        }
        // wifi_energy includes exactly one 0.15 J wake.
        let radios = m.wifi_energy_j(s(5));
        m.update(
            s(5),
            RadioSnapshot {
                wifi_on: true,
                wifi_mbps: 0.0,
                cell_state: RrcState::Idle,
                cell_mbps: 0.0,
            },
        );
        let later = m.wifi_energy_j(s(6));
        assert!(later - radios < 0.02, "no second wake charge");
    }

    #[test]
    fn promotion_and_tail_power() {
        let mut m = meter();
        m.update(
            SimTime::ZERO,
            RadioSnapshot {
                wifi_on: false,
                wifi_mbps: 0.0,
                cell_state: RrcState::Promotion,
                cell_mbps: 0.0,
            },
        );
        assert!((m.power_w() - 1.20).abs() < 1e-9, "promo power");
        m.update(
            SimTime::from_millis(400),
            RadioSnapshot {
                wifi_on: false,
                wifi_mbps: 0.0,
                cell_state: RrcState::Tail,
                cell_mbps: 0.0,
            },
        );
        assert!((m.power_w() - 1.05).abs() < 1e-9, "tail power");
        // A full promotion+tail cycle ≈ the Fig 1 LTE fixed overhead.
        let e = m.energy_j(SimTime::from_millis(400 + 10_500));
        let expect = 1.2 * 0.4 + 1.05 * 10.5;
        assert!((e - expect).abs() < 0.01, "{e} vs {expect}");
    }

    #[test]
    fn simultaneous_transfer_gets_discount() {
        let mut both = meter();
        both.update(
            SimTime::ZERO,
            RadioSnapshot {
                wifi_on: true,
                wifi_mbps: 2.0,
                cell_state: RrcState::Active,
                cell_mbps: 2.0,
            },
        );
        let p_both = both.power_w();
        // Sum of singles minus sigma.
        let expect = 0.53 + 0.85 - 0.162;
        assert!((p_both - expect).abs() < 1e-9, "{p_both} vs {expect}");
    }

    #[test]
    fn connected_idle_cell_draws_baseline() {
        let mut m = meter();
        m.update(
            SimTime::ZERO,
            RadioSnapshot {
                wifi_on: false,
                wifi_mbps: 0.0,
                cell_state: RrcState::Active,
                cell_mbps: 0.0,
            },
        );
        assert!((m.power_w() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn baseline_power_adds_up() {
        let m = EnergyMeter::new(EnergyModel::galaxy_s3_lte(), SimTime::ZERO, 0.5);
        let e = m.energy_j(s(10));
        assert!(e > 5.0, "baseline 0.5 W over 10 s ≥ 5 J, got {e}");
    }

    #[test]
    fn per_state_breakdown_matches_fig1_cycle() {
        let mut m = meter();
        let t = |ms: u64| SimTime::from_millis(ms);
        let snap = |state: RrcState| RadioSnapshot {
            wifi_on: false,
            wifi_mbps: 0.0,
            cell_state: state,
            cell_mbps: 0.0,
        };
        m.update(t(0), snap(RrcState::Promotion));
        m.update(t(400), snap(RrcState::Tail));
        m.update(t(400 + 10_500), snap(RrcState::Idle));
        m.update(t(20_000), snap(RrcState::Idle));
        let (idle, promo, active, tail) = m.cell_state_energy_j();
        assert!((promo - 1.2 * 0.4).abs() < 1e-6, "promo {promo}");
        assert!((tail - 1.05 * 10.5).abs() < 1e-6, "tail {tail}");
        assert_eq!(active, 0.0);
        assert!(idle > 0.0 && idle < 0.1);
        // Promotion + tail together are the Fig 1 LTE fixed overhead.
        assert!((promo + tail - 11.505).abs() < 1e-6);
    }

    #[test]
    fn energy_is_monotone_in_time() {
        let mut m = meter();
        let mut last = 0.0;
        for t in 0..200 {
            let now = SimTime::ZERO + SimDuration::from_millis(t * 50);
            if t % 10 == 0 {
                m.update(
                    now,
                    RadioSnapshot {
                        wifi_on: true,
                        wifi_mbps: (t % 20) as f64,
                        cell_state: if t % 3 == 0 {
                            RrcState::Active
                        } else {
                            RrcState::Tail
                        },
                        cell_mbps: (t % 7) as f64,
                    },
                );
            }
            let e = m.energy_j(now);
            assert!(e >= last, "energy decreased at step {t}");
            last = e;
        }
    }
}
