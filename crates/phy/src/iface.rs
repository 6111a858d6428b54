//! Network-interface identities.
//!
//! The paper's devices expose a WiFi interface and one cellular interface
//! (3G or LTE). Subflows are bound to interfaces; the energy model, the
//! bandwidth predictor and the path usage controller are all indexed per
//! interface kind — exactly what the kernel implementation recovers by
//! following `dst_entry → net_device → ieee80211_ptr` (§3.6).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of radio behind an interface.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum IfaceKind {
    /// IEEE 802.11 WLAN.
    Wifi,
    /// 3G (HSPA-era) cellular.
    Cellular3g,
    /// 4G LTE cellular.
    CellularLte,
}

impl IfaceKind {
    /// True for either cellular kind; cellular interfaces carry the
    /// promotion/tail fixed costs that eMPTCP avoids.
    pub fn is_cellular(self) -> bool {
        matches!(self, IfaceKind::Cellular3g | IfaceKind::CellularLte)
    }

    /// Short label used in traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            IfaceKind::Wifi => "WiFi",
            IfaceKind::Cellular3g => "3G",
            IfaceKind::CellularLte => "LTE",
        }
    }
}

impl fmt::Display for IfaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cellular_classification() {
        assert!(!IfaceKind::Wifi.is_cellular());
        assert!(IfaceKind::Cellular3g.is_cellular());
        assert!(IfaceKind::CellularLte.is_cellular());
    }

    #[test]
    fn labels() {
        assert_eq!(IfaceKind::Wifi.to_string(), "WiFi");
        assert_eq!(IfaceKind::CellularLte.to_string(), "LTE");
    }
}
