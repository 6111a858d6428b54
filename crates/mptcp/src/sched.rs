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

/// A scheduler decision with the evidence behind it, for trace emission:
/// which subflow won, who was in the running, and why the winner won.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedDecision {
    /// Index of the chosen subflow.
    pub picked: usize,
    /// Subflow ids that were eligible candidates (could take data).
    pub candidates: Vec<u8>,
    /// Why the winner won: `"min_rtt"`, `"only_candidate"`,
    /// `"unprobed_rtt"` (zero RTT sorts first, §3.6 resume), or
    /// `"backup_fallback"` (no regular subflow alive).
    pub reason: &'static str,
    /// The winner's smoothed RTT at decision time.
    pub srtt_ns: u64,
}

/// Index of the subflow the scheduler would hand the next chunk of data to
/// — `left` connection bytes remain to be scheduled — or `None` if nothing
/// can take data right now. Allocation-free twin of
/// [`pick_subflow_detailed`] for the untraced hot path — the candidate
/// filter and the `(srtt, index)` tie-break must stay identical.
pub fn pick_subflow(subflows: &[Subflow], left: u64) -> Option<usize> {
    let any_regular_alive = subflows.iter().any(|sf| !sf.backup && sf.usable());
    subflows
        .iter()
        .enumerate()
        .filter(|(_, sf)| sf.can_take_data(left) && (!sf.backup || !any_regular_alive))
        .min_by_key(|&(idx, sf)| (sf.tcp.rtt().srtt_or_zero(), idx))
        .map(|(idx, _)| idx)
}

/// Like [`pick_subflow`], but also reports the candidate set and the reason
/// for the choice so schedulers decisions can be traced.
pub fn pick_subflow_detailed(subflows: &[Subflow], left: u64) -> Option<SchedDecision> {
    let any_regular_alive = subflows.iter().any(|sf| !sf.backup && sf.usable());
    // A backup subflow is a candidate only when no regular subflow is alive.
    let candidates: Vec<usize> = subflows
        .iter()
        .enumerate()
        .filter(|(_, sf)| sf.can_take_data(left) && (!sf.backup || !any_regular_alive))
        .map(|(idx, _)| idx)
        .collect();
    let &picked = candidates
        .iter()
        .min_by_key(|&&idx| (subflows[idx].tcp.rtt().srtt_or_zero(), idx))?;
    let srtt = subflows[picked].tcp.rtt().srtt_or_zero();
    let reason = if subflows[picked].backup {
        "backup_fallback"
    } else if candidates.len() == 1 {
        "only_candidate"
    } else if srtt == emptcp_sim::SimDuration::ZERO {
        "unprobed_rtt"
    } else {
        "min_rtt"
    };
    Some(SchedDecision {
        picked,
        candidates: candidates.iter().map(|&i| subflows[i].id.0).collect(),
        reason,
        srtt_ns: srtt.as_nanos(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subflow::SubflowId;
    use emptcp_phy::IfaceKind;
    use emptcp_sim::{SimDuration, SimTime};
    use emptcp_tcp::{Segment, TcpConfig, TcpState};

    /// More left to schedule than any window has room for.
    const PLENTY: u64 = u64::MAX;

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
        assert_eq!(pick_subflow(&flows, PLENTY), Some(0));
    }

    #[test]
    fn zero_rtt_probed_first() {
        let mut flows = vec![
            established(0, IfaceKind::Wifi, 20),
            established(1, IfaceKind::CellularLte, 60),
        ];
        flows[1].prepare_resume(); // zeroes srtt
        assert_eq!(pick_subflow(&flows, PLENTY), Some(1));
    }

    #[test]
    fn backup_ignored_while_regular_alive() {
        let mut flows = vec![
            established(0, IfaceKind::Wifi, 60),
            established(1, IfaceKind::CellularLte, 10),
        ];
        flows[1].backup = true;
        assert_eq!(pick_subflow(&flows, PLENTY), Some(0));
    }

    #[test]
    fn backup_used_when_no_regular_established() {
        let mut flows = vec![
            Subflow::client(SubflowId(0), IfaceKind::Wifi, TcpConfig::default()),
            established(1, IfaceKind::CellularLte, 60),
        ];
        // Subflow 0 never completed its handshake; subflow 1 is backup.
        flows[1].backup = true;
        assert_eq!(pick_subflow(&flows, PLENTY), Some(1));
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
        assert_eq!(
            pick_subflow(&flows, PLENTY),
            None,
            "must wait, not use backup"
        );
    }

    #[test]
    fn nothing_pickable_when_all_closed() {
        let flows = vec![Subflow::client(
            SubflowId(0),
            IfaceKind::Wifi,
            TcpConfig::default(),
        )];
        assert_eq!(pick_subflow(&flows, PLENTY), None);
    }

    #[test]
    fn detailed_decision_reports_candidates_and_reason() {
        let flows = vec![
            established(0, IfaceKind::Wifi, 20),
            established(1, IfaceKind::CellularLte, 60),
        ];
        let d = pick_subflow_detailed(&flows, PLENTY).unwrap();
        assert_eq!(d.picked, 0);
        assert_eq!(d.candidates, vec![0, 1]);
        assert_eq!(d.reason, "min_rtt");
        assert!(d.srtt_ns > 0);

        let mut backup_only = vec![established(0, IfaceKind::CellularLte, 60)];
        backup_only[0].backup = true;
        let d = pick_subflow_detailed(&backup_only, PLENTY).unwrap();
        assert_eq!(d.reason, "backup_fallback");
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
        let d = pick_subflow_detailed(&flows, PLENTY).unwrap();
        assert_eq!(d.picked, 1);
        assert_eq!(d.reason, "backup_fallback");
    }

    #[test]
    fn tie_breaks_by_index() {
        let flows = vec![
            established(0, IfaceKind::Wifi, 30),
            established(1, IfaceKind::CellularLte, 30),
        ];
        assert_eq!(pick_subflow(&flows, PLENTY), Some(0));
    }
}
