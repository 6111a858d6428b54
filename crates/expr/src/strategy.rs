//! The transport strategies compared throughout the evaluation.

use emptcp::EmptcpConfig;
use emptcp_scenario::StrategyKind;
use serde::{Deserialize, Serialize};

/// Which stack the device runs for a given experiment.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Strategy {
    /// Standard MPTCP: WiFi + cellular subflows from the start, minRTT
    /// scheduler. The subflows run uncoupled Reno: the host builds every
    /// connection with `TcpConfig::default()` (LIA is the fleet's knob).
    Mptcp,
    /// The paper's contribution, with its §4.1 parameters.
    Emptcp(EmptcpConfig),
    /// Single-path TCP over WiFi.
    TcpWifi,
    /// Single-path TCP over the cellular interface.
    TcpCellular,
    /// Raiciu et al.'s "MPTCP with WiFi-First": both subflows open, the
    /// cellular one in backup mode from the start (§4.6).
    WifiFirst,
    /// Pluntke et al.'s MDP scheduler (§4.6), applying a precomputed
    /// policy at one-second epochs.
    MdpScheduler,
    /// Paasch et al.'s Single-Path mode (§2.1/§4.6): one subflow at a
    /// time, a new one established only after the current interface goes
    /// down.
    SinglePath,
}

/// The strategy a `.scenario` file or `simulate --strategy` names by its
/// handle: the kind, with eMPTCP at the paper's default configuration.
impl From<StrategyKind> for Strategy {
    fn from(kind: StrategyKind) -> Strategy {
        match kind {
            StrategyKind::Mptcp => Strategy::Mptcp,
            StrategyKind::Emptcp => Strategy::emptcp_default(),
            StrategyKind::TcpWifi => Strategy::TcpWifi,
            StrategyKind::TcpCellular => Strategy::TcpCellular,
            StrategyKind::WifiFirst => Strategy::WifiFirst,
            StrategyKind::MdpScheduler => Strategy::MdpScheduler,
            StrategyKind::SinglePath => Strategy::SinglePath,
        }
    }
}

impl Strategy {
    /// The default eMPTCP configuration as a strategy.
    pub fn emptcp_default() -> Strategy {
        Strategy::Emptcp(EmptcpConfig::default())
    }

    /// Label used in tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Mptcp => "MPTCP",
            Strategy::Emptcp(_) => "eMPTCP",
            Strategy::TcpWifi => "TCP over WiFi",
            Strategy::TcpCellular => "TCP over LTE",
            Strategy::WifiFirst => "MPTCP WiFi-First",
            Strategy::MdpScheduler => "MDP scheduler",
            Strategy::SinglePath => "Single-Path mode",
        }
    }

    /// Does this strategy ever open a cellular subflow at connection start?
    pub fn opens_cellular_immediately(&self) -> bool {
        matches!(
            self,
            Strategy::Mptcp | Strategy::TcpCellular | Strategy::WifiFirst
        )
    }

    /// Does this strategy open a WiFi subflow?
    pub fn uses_wifi(&self) -> bool {
        !matches!(self, Strategy::TcpCellular)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let all = StrategyKind::ALL.map(Strategy::from);
        let mut labels: Vec<_> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn cellular_opening_policy() {
        assert!(Strategy::Mptcp.opens_cellular_immediately());
        assert!(Strategy::WifiFirst.opens_cellular_immediately());
        assert!(!Strategy::emptcp_default().opens_cellular_immediately());
        assert!(!Strategy::TcpWifi.opens_cellular_immediately());
        assert!(Strategy::TcpWifi.uses_wifi());
        assert!(!Strategy::TcpCellular.uses_wifi());
    }
}
