//! The minRTT subflow scheduler.
//!
//! The Linux MPTCP scheduler picks, among subflows with congestion-window
//! space, the one with the lowest smoothed RTT (§2.1, \[29\]). "Space" is
//! counted in whole segments, as the kernel counts it
//! ([`Subflow::can_take_data`]). Two details matter to eMPTCP:
//!
//! * a subflow whose RTT estimate is zero/unknown sorts *first* — §3.6's
//!   resume tweak zeroes the RTT precisely to get a renewed subflow probed
//!   immediately;
//! * **backup** subflows (MP_PRIO) are only considered when no regular
//!   subflow is established at all — a window-full regular subflow does
//!   *not* spill traffic onto backups.

use crate::subflow::Subflow;
use emptcp_sim::SimDuration;

/// A scheduler decision: which subflow won and who was in the running.
/// Building one allocates nothing; only a trace that records it formats
/// the candidates ([`SchedDecision::candidate_ids`]) and names the reason
/// ([`SchedDecision::reason`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedDecision {
    /// Index of the chosen subflow.
    pub picked: usize,
    /// The eligible candidates (could take data) as an index bitmask: bit
    /// `i` is set when subflow index `i` was in the running. A connection
    /// this stack builds has two subflows, far below the 64 a mask holds.
    pub candidates: u64,
    /// The winner's smoothed RTT at decision time (zero if unmeasured).
    pub srtt: SimDuration,
}

impl SchedDecision {
    /// Why the winner won: `"backup_fallback"` (no regular subflow
    /// alive), `"only_candidate"`, `"unprobed_rtt"` (zero RTT sorts first,
    /// §3.6 resume) or `"min_rtt"`.
    pub fn reason(&self, subflows: &[Subflow]) -> &'static str {
        if subflows[self.picked].backup {
            "backup_fallback"
        } else if self.candidates.count_ones() == 1 {
            "only_candidate"
        } else if self.srtt == SimDuration::ZERO {
            "unprobed_rtt"
        } else {
            "min_rtt"
        }
    }

    /// The candidates' subflow ids, in index order.
    pub fn candidate_ids(&self, subflows: &[Subflow]) -> Vec<u8> {
        subflows
            .iter()
            .enumerate()
            .filter(|&(idx, _)| (self.candidates >> idx) & 1 == 1)
            .map(|(_, sf)| sf.id.0)
            .collect()
    }
}

/// The scheduler's one rule: the subflow to hand the next chunk of data to
/// — `left` connection bytes remain to be scheduled — or `None` if nothing
/// can take data right now. A candidate can take data and is either
/// regular or, with no regular subflow alive, a backup; the lowest
/// `(srtt, index)` wins.
pub fn pick_subflow(subflows: &[Subflow], left: u64) -> Option<SchedDecision> {
    debug_assert!(subflows.len() <= 64, "{} subflows", subflows.len());
    let any_regular_alive = subflows.iter().any(|sf| !sf.backup && sf.usable());
    let mut candidates = 0u64;
    let (srtt, picked) = subflows
        .iter()
        .enumerate()
        .filter(|(_, sf)| sf.can_take_data(left) && (!sf.backup || !any_regular_alive))
        .inspect(|&(idx, _)| candidates |= 1 << idx)
        .map(|(idx, sf)| (sf.tcp.rtt().srtt_or_zero(), idx))
        .min()?;
    Some(SchedDecision {
        picked,
        candidates,
        srtt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subflow::SubflowId;
    use emptcp_phy::IfaceKind;
    use emptcp_sim::SimTime;
    use emptcp_tcp::{Segment, TcpConfig, TcpState};

    /// More left to schedule than any window has room for.
    const PLENTY: u64 = u64::MAX;

    /// The index the scheduler picks, if any.
    fn pick(flows: &[Subflow]) -> Option<usize> {
        pick_subflow(flows, PLENTY).map(|d| d.picked)
    }

    /// Build an established client subflow by replaying a handshake.
    fn established(id: u8, iface: IfaceKind, rtt_ms: u64) -> Subflow {
        let mut sf = Subflow::client(SubflowId(id), iface, TcpConfig::default());
        let t0 = SimTime::ZERO;
        sf.tcp.connect(t0);
        let _syn = sf.tcp.poll_transmit(t0).expect("syn");
        let mut synack = Segment::empty(t0);
        synack.flags.syn = true;
        synack.flags.ack = true;
        synack.ack = 1;
        synack.rwnd = 4 * 1024 * 1024;
        let arrival = t0 + SimDuration::from_millis(rtt_ms);
        sf.tcp.on_segment(arrival, synack);
        assert_eq!(sf.tcp.state(), TcpState::Established);
        while sf.tcp.poll_transmit(arrival).is_some() {}
        sf
    }

    #[test]
    fn picks_lowest_rtt() {
        let flows = vec![
            established(0, IfaceKind::Wifi, 20),
            established(1, IfaceKind::CellularLte, 60),
        ];
        assert_eq!(pick(&flows), Some(0));
    }

    #[test]
    fn zero_rtt_probed_first() {
        let mut flows = vec![
            established(0, IfaceKind::Wifi, 20),
            established(1, IfaceKind::CellularLte, 60),
        ];
        flows[1].prepare_resume(); // zeroes srtt
        assert_eq!(pick(&flows), Some(1));
        let d = pick_subflow(&flows, PLENTY).unwrap();
        assert_eq!(d.reason(&flows), "unprobed_rtt");
    }

    #[test]
    fn backup_ignored_while_regular_alive() {
        let mut flows = vec![
            established(0, IfaceKind::Wifi, 60),
            established(1, IfaceKind::CellularLte, 10),
        ];
        flows[1].backup = true;
        assert_eq!(pick(&flows), Some(0));
    }

    #[test]
    fn backup_used_when_no_regular_established() {
        let mut flows = vec![
            Subflow::client(SubflowId(0), IfaceKind::Wifi, TcpConfig::default()),
            established(1, IfaceKind::CellularLte, 60),
        ];
        // Subflow 0 never completed its handshake; subflow 1 is backup.
        flows[1].backup = true;
        assert_eq!(pick(&flows), Some(1));
    }

    #[test]
    fn window_full_regular_does_not_spill_to_backup() {
        let mut flows = vec![
            established(0, IfaceKind::Wifi, 20),
            established(1, IfaceKind::CellularLte, 60),
        ];
        flows[1].backup = true;
        // Exhaust subflow 0's window.
        let room = flows[0].send_room();
        flows[0].push_data(0, room as u32);
        let now = SimTime::from_secs(1);
        while flows[0].tcp.poll_transmit(now).is_some() {}
        assert!(!flows[0].can_take_data(PLENTY));
        assert_eq!(pick(&flows), None, "must wait, not use backup");
    }

    #[test]
    fn nothing_pickable_when_all_closed() {
        let flows = vec![Subflow::client(
            SubflowId(0),
            IfaceKind::Wifi,
            TcpConfig::default(),
        )];
        assert_eq!(pick(&flows), None);
    }

    #[test]
    fn detailed_decision_reports_candidates_and_reason() {
        let flows = vec![
            established(0, IfaceKind::Wifi, 20),
            established(1, IfaceKind::CellularLte, 60),
        ];
        let d = pick_subflow(&flows, PLENTY).unwrap();
        assert_eq!(d.picked, 0);
        assert_eq!(d.candidates, 0b11);
        assert_eq!(d.candidate_ids(&flows), vec![0, 1]);
        assert_eq!(d.reason(&flows), "min_rtt");
        assert!(d.srtt > SimDuration::ZERO);

        let mut backup_only = vec![established(0, IfaceKind::CellularLte, 60)];
        backup_only[0].backup = true;
        let d = pick_subflow(&backup_only, PLENTY).unwrap();
        assert_eq!(d.reason(&backup_only), "backup_fallback");
    }

    #[test]
    fn dead_subflow_excluded_and_backup_takes_over() {
        let mut flows = vec![
            established(0, IfaceKind::Wifi, 20),
            established(1, IfaceKind::CellularLte, 60),
        ];
        flows[1].backup = true;
        // The regular subflow is declared dead by failure detection: the
        // backup becomes the fallback even though sf0's link is nominally up.
        flows[0].dead = true;
        let d = pick_subflow(&flows, PLENTY).unwrap();
        assert_eq!(d.picked, 1);
        assert_eq!(d.reason(&flows), "backup_fallback");
    }

    #[test]
    fn tie_breaks_by_index() {
        let flows = vec![
            established(0, IfaceKind::Wifi, 30),
            established(1, IfaceKind::CellularLte, 30),
        ];
        assert_eq!(pick(&flows), Some(0));
    }
}
