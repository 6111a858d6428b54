//! Device energy profiles for the paper's Table 1 devices.
//!
//! Parameter provenance (see DESIGN.md §7): the shapes are anchored to
//! Huang et al. (MobiSys'12) and Balasubramanian et al. (IMC'09), then tuned
//! so the derived artifacts land near the paper's:
//!
//! * Fig 1 fixed overheads: WiFi ≈ 0.15 J / 0.06 J, 3G ≈ 6.5 J,
//!   LTE ≈ 12 J / 9 J;
//! * Table 2 EIB thresholds at 1 Mbps LTE: LTE-only below ≈ 0.13 Mbps WiFi,
//!   WiFi-only above ≈ 0.50 Mbps WiFi;
//! * the §4.6 property that LTE power per second never drops below WiFi's
//!   at any throughput (which is why the WiFi curves flatten at high rate
//!   instead of staying affine).
//!
//! The **sharing discount** `sigma` is the simultaneous-use correction from
//! the multi-interface model of Lim et al. \[17\]: platform overhead (SoC,
//! bus, wakeups) present in both single-interface fits is only paid once
//! when both radios run. Without it, "use both" can never strictly beat the
//! better single path per byte (it would be a weighted mean of the two), and
//! the V-region of Fig 3 could not exist. Physicality requires
//! `0 < sigma < min(base_wifi, base_cellular)`: attaching an *idle* second
//! radio must never reduce total power.

use crate::power::PowerCurve;
use emptcp_phy::rrc::RrcConfig;
use emptcp_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Power and timing of one cellular radio (3G or LTE).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct CellularPower {
    /// Power while actively transferring, as a function of throughput.
    pub curve: PowerCurve,
    /// Power while in RRC idle (negligible but non-zero).
    pub idle_w: f64,
    /// Power during the promotion from idle to connected.
    pub promo_w: f64,
    /// Power during the high-power tail after the last packet.
    pub tail_w: f64,
    /// RRC timing (promotion delay, inactivity timeout, tail duration).
    pub rrc: RrcConfig,
}

impl CellularPower {
    /// The fixed energy overhead of one activation cycle: promotion plus a
    /// full tail. This is exactly what the paper's Fig 1 plots.
    pub fn fixed_overhead_j(&self) -> f64 {
        self.promo_w * self.rrc.promotion_delay.as_secs_f64()
            + self.tail_w * self.rrc.tail_duration.as_secs_f64()
    }
}

/// The energy profile of one device.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable device name (Table 1).
    pub name: String,
    /// WiFi power while actively transferring.
    pub wifi_curve: PowerCurve,
    /// WiFi power while associated but idle.
    pub wifi_idle_w: f64,
    /// One-shot WiFi wake/association energy — the WiFi bar of Fig 1.
    pub wifi_wake_j: f64,
    /// The LTE radio.
    pub lte: CellularPower,
    /// The 3G radio.
    pub threeg: CellularPower,
    /// Simultaneous-use sharing discount `sigma` (watts) applied when both
    /// radios transfer at once.
    pub sharing_discount_w: f64,
}

impl DeviceProfile {
    /// Samsung Galaxy S3 (the paper's primary evaluation device).
    pub fn galaxy_s3() -> Self {
        DeviceProfile {
            name: "Samsung Galaxy S3".to_string(),
            // 0.14 W/Mbps near the origin, flattening at high rates so WiFi
            // never out-draws LTE at equal throughput.
            wifi_curve: PowerCurve::from_points(vec![
                (0.0, 0.250),
                (2.0, 0.530),
                (6.0, 0.820),
                (12.0, 1.000),
                (25.0, 1.200),
            ]),
            wifi_idle_w: 0.012,
            wifi_wake_j: 0.15,
            lte: CellularPower {
                curve: PowerCurve::from_points(vec![
                    (0.0, 0.750),
                    (2.0, 0.850),
                    (6.0, 1.450),
                    (12.0, 2.200),
                    (25.0, 3.400),
                ]),
                idle_w: 0.006,
                promo_w: 1.20,
                tail_w: 1.05,
                rrc: RrcConfig {
                    promotion_delay: SimDuration::from_millis(400),
                    inactivity_timeout: SimDuration::from_millis(100),
                    tail_duration: SimDuration::from_millis(10_500),
                },
            },
            threeg: CellularPower {
                curve: PowerCurve::from_points(vec![
                    (0.0, 0.650),
                    (2.0, 1.010),
                    (4.0, 1.250),
                    (8.0, 1.600),
                ]),
                idle_w: 0.005,
                promo_w: 0.80,
                tail_w: 0.70,
                rrc: RrcConfig {
                    promotion_delay: SimDuration::from_millis(1_000),
                    inactivity_timeout: SimDuration::from_millis(200),
                    tail_duration: SimDuration::from_millis(8_100),
                },
            },
            sharing_discount_w: 0.162,
        }
    }

    /// LG Nexus 5 (Table 1's second device; newer process, lower powers).
    pub fn nexus_5() -> Self {
        DeviceProfile {
            name: "LG Nexus 5".to_string(),
            wifi_curve: PowerCurve::from_points(vec![
                (0.0, 0.200),
                (2.0, 0.440),
                (6.0, 0.700),
                (12.0, 0.860),
                (25.0, 1.020),
            ]),
            wifi_idle_w: 0.010,
            wifi_wake_j: 0.06,
            lte: CellularPower {
                curve: PowerCurve::from_points(vec![
                    (0.0, 0.640),
                    (2.0, 0.730),
                    (6.0, 1.250),
                    (12.0, 1.900),
                    (25.0, 2.950),
                ]),
                idle_w: 0.005,
                promo_w: 1.10,
                tail_w: 0.95,
                rrc: RrcConfig {
                    promotion_delay: SimDuration::from_millis(300),
                    inactivity_timeout: SimDuration::from_millis(100),
                    tail_duration: SimDuration::from_millis(9_000),
                },
            },
            threeg: CellularPower {
                curve: PowerCurve::from_points(vec![
                    (0.0, 0.550),
                    (2.0, 0.860),
                    (4.0, 1.060),
                    (8.0, 1.360),
                ]),
                idle_w: 0.004,
                promo_w: 0.75,
                tail_w: 0.65,
                rrc: RrcConfig {
                    promotion_delay: SimDuration::from_millis(900),
                    inactivity_timeout: SimDuration::from_millis(200),
                    tail_duration: SimDuration::from_millis(7_500),
                },
            },
            sharing_discount_w: 0.140,
        }
    }

    /// The fixed energy overheads of the three interfaces — the data behind
    /// the paper's Fig 1 bars: `(wifi_j, threeg_j, lte_j)`.
    pub fn fixed_overheads_j(&self) -> (f64, f64, f64) {
        (
            self.wifi_wake_j,
            self.threeg.fixed_overhead_j(),
            self.lte.fixed_overhead_j(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_fixed_overheads_galaxy_s3() {
        let (wifi, threeg, lte) = DeviceProfile::galaxy_s3().fixed_overheads_j();
        // The paper's Fig 1: WiFi 0.15 J, 3G several J, LTE ~12 J.
        assert!((wifi - 0.15).abs() < 1e-9);
        assert!((5.0..8.0).contains(&threeg), "3G overhead {threeg} J");
        assert!((10.0..13.0).contains(&lte), "LTE overhead {lte} J");
    }

    #[test]
    fn fig1_fixed_overheads_nexus_5() {
        let (wifi, threeg, lte) = DeviceProfile::nexus_5().fixed_overheads_j();
        assert!((wifi - 0.06).abs() < 1e-9);
        assert!((4.0..7.0).contains(&threeg), "3G overhead {threeg} J");
        assert!((8.0..10.0).contains(&lte), "LTE overhead {lte} J");
    }

    #[test]
    fn cellular_overhead_dwarfs_wifi() {
        for profile in [DeviceProfile::galaxy_s3(), DeviceProfile::nexus_5()] {
            let (wifi, threeg, lte) = profile.fixed_overheads_j();
            assert!(lte > 30.0 * wifi, "{}", profile.name);
            assert!(threeg > 20.0 * wifi, "{}", profile.name);
        }
    }

    #[test]
    fn nexus5_is_more_efficient_than_s3() {
        let s3 = DeviceProfile::galaxy_s3();
        let n5 = DeviceProfile::nexus_5();
        for x in [0.5, 2.0, 8.0, 20.0] {
            assert!(n5.wifi_curve.power_w(x) < s3.wifi_curve.power_w(x));
            assert!(n5.lte.curve.power_w(x) < s3.lte.curve.power_w(x));
        }
    }

    #[test]
    fn sharing_discount_is_physical() {
        // sigma must stay below every radio's active baseline, else
        // attaching an idle second radio would *reduce* total power.
        for profile in [DeviceProfile::galaxy_s3(), DeviceProfile::nexus_5()] {
            assert!(profile.sharing_discount_w > 0.0);
            assert!(profile.sharing_discount_w < profile.wifi_curve.base_w());
            assert!(profile.sharing_discount_w < profile.lte.curve.base_w());
            assert!(profile.sharing_discount_w < profile.threeg.curve.base_w());
        }
    }

    #[test]
    fn lte_power_never_below_wifi() {
        // §4.6: "LTE energy consumption per second never becomes lower than
        // WiFi in our energy model" — at every throughput, for both devices.
        for profile in [DeviceProfile::galaxy_s3(), DeviceProfile::nexus_5()] {
            let mut x = 0.0;
            while x <= 60.0 {
                assert!(
                    profile.lte.curve.power_w(x) > profile.wifi_curve.power_w(x),
                    "{} at {x} Mbps",
                    profile.name
                );
                x += 0.25;
            }
        }
    }

    #[test]
    fn threeg_less_efficient_than_lte_at_rate() {
        // 3G burns more watts per Mbps than LTE across its usable range.
        for profile in [DeviceProfile::galaxy_s3(), DeviceProfile::nexus_5()] {
            for x in [1.0, 2.0, 4.0] {
                let lte = profile.lte.curve.power_w(x) / x;
                let threeg = profile.threeg.curve.power_w(x) / x;
                assert!(threeg > lte * 0.9, "{} at {x} Mbps", profile.name);
            }
        }
    }

    #[test]
    fn tail_power_between_idle_and_promo() {
        for profile in [DeviceProfile::galaxy_s3(), DeviceProfile::nexus_5()] {
            for cell in [&profile.lte, &profile.threeg] {
                assert!(cell.tail_w > cell.idle_w * 10.0);
                assert!(cell.tail_w < cell.promo_w * 1.5);
            }
        }
    }
}
