//! The MPTCP connection: DSS reassembly, scheduling, coupling, reinjection.
//!
//! One [`MpConnection`] is one side (client or server) of one MPTCP
//! connection. It owns its subflows and exposes the same poll-style surface
//! they do:
//!
//! * [`MpConnection::write`] — append connection-level data to send,
//! * [`MpConnection::poll_transmit`] — next `(subflow, segment)` to emit
//!   (the minRTT scheduler maps fresh data onto subflows here),
//! * [`MpConnection::on_segment`] — feed an arriving segment to its
//!   subflow, translate newly delivered subflow bytes back to data-sequence
//!   space, and reassemble the connection stream,
//! * [`MpConnection::on_deadline`] / [`MpConnection::next_deadline`] —
//!   subflow timers and stall expiries; a subflow RTO, or unacked data
//!   stalled for ~2 RTT, triggers reinjection onto the surviving subflows.
//!
//! LIA coupling (RFC 6356) is refreshed on the ACK path, where it is
//! consumed: before an acknowledgement of new data reaches a subflow, a
//! connection built with `CcAlgorithm::Lia` recomputes `alpha` across its
//! established subflows (at most every 10 ms) and pushes it into each
//! subflow's congestion controller. The algorithm is the one knob.
//! Time-dependent state moves only with a segment in or out or a deadline
//! falling due, so a `poll_transmit` that returns `None` and an
//! `on_deadline` with nothing due are no-ops at any cadence (the driver
//! contract, see the crate docs).

use crate::mapping::DataReassembly;
use crate::sched::pick_subflow;
use crate::subflow::{Subflow, SubflowId};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::cc::lia_alpha;
use emptcp_tcp::{CcAlgorithm, Segment, TcpConfig, TcpState};
use emptcp_telemetry::{TelemetryScope, TraceEvent, DELIVERED_EMIT_BYTES};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which side of the connection this object is.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Role {
    /// The mobile device: initiates subflows, mostly receives.
    Client,
    /// The wired server: accepts subflows, mostly sends.
    Server,
}

/// Summary of a connection's failure-recovery activity: how often subflows
/// failed, how much data was rescued onto surviving paths, and how quickly
/// the connection-level stream resumed after a failure.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Subflows declared dead by the consecutive-RTO detector.
    pub subflow_failures: u64,
    /// Link-down notifications received from the host.
    pub link_down_events: u64,
    /// Times a batch of unacked data was queued for reinjection.
    pub reinjection_events: u64,
    /// Total data-level bytes queued for reinjection on surviving subflows.
    pub bytes_reinjected: u64,
    /// Backup subflows promoted to regular because no regular path survived.
    pub backup_promotions: u64,
    /// Dead subflows that came back (link restored or acks resumed).
    pub revivals: u64,
    /// Worst observed failure-to-progress latency: from a failure event to
    /// the next connection-level stream advance, in nanoseconds.
    pub worst_recovery_latency_ns: Option<u64>,
}

impl RecoveryStats {
    /// The worst observed recovery latency, if any failure happened.
    pub fn worst_recovery_latency(&self) -> Option<SimDuration> {
        self.worst_recovery_latency_ns.map(SimDuration::from_nanos)
    }

    fn note_latency(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        if self.worst_recovery_latency_ns.is_none_or(|w| ns > w) {
            self.worst_recovery_latency_ns = Some(ns);
        }
    }

    /// Merge another side's stats (latency keeps the worst of the two).
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.subflow_failures += other.subflow_failures;
        self.link_down_events += other.link_down_events;
        self.reinjection_events += other.reinjection_events;
        self.bytes_reinjected += other.bytes_reinjected;
        self.backup_promotions += other.backup_promotions;
        self.revivals += other.revivals;
        if let Some(ns) = other.worst_recovery_latency_ns {
            self.note_latency(SimDuration::from_nanos(ns));
        }
    }
}

/// What [`MpConnection::on_segment`] produced.
#[derive(Clone, Debug, Default)]
pub struct MpSegmentOutcome {
    /// Connection-level bytes newly delivered in order.
    pub delivered_bytes: u64,
    /// The subflow's handshake completed during this call.
    pub established_now: bool,
    /// MP_PRIO received on this subflow (`Some(backup)`).
    pub mp_prio: Option<bool>,
}

/// One side of an MPTCP connection.
#[derive(Clone, Debug)]
pub struct MpConnection {
    role: Role,
    tcp_cfg: TcpConfig,
    subflows: Vec<Subflow>,

    // --- connection-level send state ---
    data_written: u64,
    data_next: u64,
    reinject: VecDeque<(u64, u32)>,
    data_acked: u64,

    // --- connection-level receive state ---
    data_rx: DataReassembly,
    data_delivered: u64,
    /// Delivered bytes not yet reported as a [`TraceEvent::Delivered`];
    /// drained every [`DELIVERED_EMIT_BYTES`] and by
    /// [`flush_delivered_trace`](Self::flush_delivered_trace).
    delivered_since_emit: u64,

    /// Graceful close requested: once every written byte is scheduled and
    /// acknowledged, FINs go out on all subflows (the DATA_FIN analogue).
    closing: bool,
    /// Opportunistic reinjection (Raiciu et al. [29]): when a subflow's
    /// oldest unacked data stalls for ~2 RTT while another subflow could
    /// carry it, re-map it there instead of waiting for the RTO.
    opportunistic: bool,
    /// Last LIA recomputation (rate-limited: alpha moves on RTT timescales,
    /// recomputing per segment is pure overhead).
    lia_refreshed_at: SimTime,
    /// Consecutive RTO expirations (without `snd_una` progress) after which
    /// a subflow is declared dead.
    failure_threshold: u64,
    /// Failure-recovery bookkeeping.
    recovery: RecoveryStats,
    /// An unresolved failure: when it happened and the connection-level
    /// progress mark (`max(data_acked, data_delivered)`) at that instant.
    /// Resolved — and the latency recorded — when the mark advances.
    recovery_pending: Option<(SimTime, u64)>,
    /// Arriving segments dropped for naming a subflow that does not exist.
    unknown_subflow_segments: u64,
    /// Chunks the scheduler cut below the MSS to fit a subflow's window
    /// room while more data was waiting. The subflow's endpoint cannot see
    /// these as runts — each chunk it is handed is its whole stream so far.
    runt_chunks: u64,
    /// Telemetry scope for connection-level events; propagated to subflow
    /// TCP endpoints (labelled with their subflow id) when attached.
    scope: TelemetryScope,
    /// The `conn{c}.iface.{label}.rx_bytes` key of each interface that has
    /// delivered, formatted at first use rather than per segment.
    rx_bytes_names: Vec<(IfaceKind, String)>,
}

impl MpConnection {
    /// Create one side of a connection. `tcp_cfg` applies to every subflow.
    pub fn new(role: Role, tcp_cfg: TcpConfig) -> Self {
        MpConnection {
            role,
            tcp_cfg,
            subflows: Vec::new(),
            data_written: 0,
            data_next: 0,
            reinject: VecDeque::new(),
            data_acked: 0,
            data_rx: DataReassembly::default(),
            data_delivered: 0,
            delivered_since_emit: 0,
            closing: false,
            opportunistic: true,
            lia_refreshed_at: SimTime::ZERO,
            failure_threshold: 3,
            recovery: RecoveryStats::default(),
            recovery_pending: None,
            unknown_subflow_segments: 0,
            runt_chunks: 0,
            scope: TelemetryScope::disabled(),
            rx_bytes_names: Vec::new(),
        }
    }

    /// Consecutive RTO expirations after which a subflow is declared dead
    /// (default 3; Linux's TCP-level equivalent is conceptually
    /// `net.ipv4.tcp_retries2`, scaled down to simulation timescales).
    pub fn set_failure_threshold(&mut self, rtos: u64) {
        self.failure_threshold = rtos.max(1);
    }

    /// Failure-recovery summary for this side of the connection.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Arriving segments dropped because they named a subflow this
    /// connection does not have (a hostile or corrupted `path` byte).
    pub fn unknown_subflow_segments(&self) -> u64 {
        self.unknown_subflow_segments
    }

    /// Count of chunks the scheduler cut below the MSS to fit a subflow's
    /// window room while more data was waiting: the multipath half of the
    /// runt count, beside each endpoint's [`TcpEndpoint::runts`].
    ///
    /// [`TcpEndpoint::runts`]: emptcp_tcp::TcpEndpoint::runts
    pub fn runt_chunks(&self) -> u64 {
        self.runt_chunks
    }

    /// Attach a telemetry scope. Connection-level events (scheduler picks,
    /// subflow lifecycle, MP_PRIO) report under it; each subflow's TCP
    /// endpoint gets a copy labelled with its subflow id.
    pub fn set_telemetry(&mut self, scope: TelemetryScope) {
        for sf in &mut self.subflows {
            sf.tcp.set_telemetry(scope.with_subflow(sf.id.0));
        }
        self.scope = scope;
        self.rx_bytes_names.clear();
    }

    /// Toggle opportunistic reinjection (on by default, as in Linux MPTCP).
    #[cfg(test)]
    fn set_opportunistic(&mut self, enabled: bool) {
        self.opportunistic = enabled;
    }

    /// This side's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Add a subflow on `iface`. The client actively opens it (SYN emitted
    /// on the next poll); the server side listens. Returns its id.
    pub fn add_subflow(&mut self, now: SimTime, iface: IfaceKind) -> SubflowId {
        let id = SubflowId(self.subflows.len() as u8);
        let mut sf = match self.role {
            Role::Client => Subflow::client(id, iface, self.tcp_cfg),
            Role::Server => Subflow::listener(id, iface, self.tcp_cfg),
        };
        sf.tcp.set_telemetry(self.scope.with_subflow(id.0));
        if self.role == Role::Client {
            sf.tcp.connect(now);
        }
        // A connection holds one or two subflows: grow by exactly one
        // rather than to `Vec`'s minimum of four.
        self.subflows.reserve_exact(1);
        self.subflows.push(sf);
        id
    }

    /// All subflows.
    pub fn subflows(&self) -> &[Subflow] {
        &self.subflows
    }

    /// A subflow by id.
    pub fn subflow(&self, id: SubflowId) -> &Subflow {
        &self.subflows[id.0 as usize]
    }

    /// A subflow by id, mutable.
    pub fn subflow_mut(&mut self, id: SubflowId) -> &mut Subflow {
        &mut self.subflows[id.0 as usize]
    }

    /// True once at least one subflow finished its handshake.
    pub fn established(&self) -> bool {
        self.subflows
            .iter()
            .any(|sf| sf.tcp.state() == TcpState::Established)
    }

    /// Append `bytes` to the connection-level send stream.
    pub fn write(&mut self, bytes: u64) {
        assert!(!self.closing, "write after close");
        self.data_written += bytes;
    }

    /// Request a graceful close: once all written data is scheduled and
    /// acknowledged, every subflow sends its FIN.
    pub fn close(&mut self) {
        self.closing = true;
    }

    /// True once this side requested close, everything it wrote was
    /// acknowledged, and its FINs are queued on every subflow.
    fn close_sent(&self) -> bool {
        self.closing && self.data_acked >= self.data_written && self.all_data_scheduled()
    }

    /// True once every subflow has received the peer's FIN (the peer is
    /// done sending). Only the close tests ask.
    #[cfg(test)]
    fn peer_closed(&self) -> bool {
        !self.subflows.is_empty()
            && self
                .subflows
                .iter()
                .all(|sf| sf.tcp.fin_received() || sf.tcp.state() != TcpState::Established)
    }

    /// Total connection-level bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.data_written
    }

    /// Connection-level bytes delivered in order to the application.
    pub fn bytes_delivered(&self) -> u64 {
        self.data_delivered
    }

    /// Emit any delivered bytes still below the coalescing threshold as a
    /// final [`TraceEvent::Delivered`], so trace totals match
    /// [`bytes_delivered`](Self::bytes_delivered) exactly. Hosts call this
    /// once when a run ends; subflow 0 stands in for "whole connection".
    pub fn flush_delivered_trace(&mut self, now: SimTime) {
        if self.delivered_since_emit > 0 {
            let bytes = self.delivered_since_emit;
            self.delivered_since_emit = 0;
            self.scope.emit(now, |s| TraceEvent::Delivered {
                conn: s.conn,
                subflow: 0,
                bytes,
            });
        }
    }

    /// Highest cumulative data-level acknowledgment seen from the peer.
    pub fn bytes_acked(&self) -> u64 {
        self.data_acked
    }

    /// Bytes delivered in order over subflows riding `iface` — the
    /// per-interface counters the bandwidth predictor samples (§3.2).
    pub fn delivered_by_iface(&self, iface: IfaceKind) -> u64 {
        self.subflows
            .iter()
            .filter(|sf| sf.iface == iface)
            .map(|sf| sf.tcp.bytes_delivered_total())
            .sum()
    }

    /// Bytes this side sent and had acknowledged over subflows riding
    /// `iface` — the upload-direction counterpart of
    /// [`delivered_by_iface`](Self::delivered_by_iface).
    pub fn acked_by_iface(&self, iface: IfaceKind) -> u64 {
        self.subflows
            .iter()
            .filter(|sf| sf.iface == iface)
            .map(|sf| sf.tcp.bytes_acked_total())
            .sum()
    }

    /// Locally set a subflow's priority and tell the peer via MP_PRIO
    /// (§3.6: "eMPTCP adds an MP_PRIO option, which changes the priority of
    /// subflows, to the next packet to be transmitted").
    pub fn set_subflow_priority(&mut self, now: SimTime, id: SubflowId, backup: bool) {
        let sf = &mut self.subflows[id.0 as usize];
        if sf.backup == backup {
            return;
        }
        sf.backup = backup;
        sf.tcp.send_mp_prio(now, backup);
        self.scope.emit(now, |s| TraceEvent::MpPrio {
            conn: s.conn,
            subflow: id.0,
            backup,
        });
    }

    /// Apply the §3.6 resume tweaks to a subflow being re-enabled.
    pub fn prepare_subflow_resume(&mut self, id: SubflowId) {
        self.subflows[id.0 as usize].prepare_resume();
    }

    /// Mark a subflow's underlying link up or down (interface loss, e.g. a
    /// WiFi disassociation). Going down immediately queues its unacked data
    /// for reinjection on the surviving subflows and, if no regular subflow
    /// survives, promotes the best backup. Coming back up clears failure
    /// state so the subflow is immediately schedulable again.
    pub fn set_subflow_link_up(&mut self, now: SimTime, id: SubflowId, up: bool) {
        let idx = id.0 as usize;
        if self.subflows[idx].link_down != up {
            return;
        }
        self.subflows[idx].link_down = !up;
        if !up {
            self.scope.emit(now, |s| TraceEvent::SubflowClosed {
                conn: s.conn,
                subflow: id.0,
                reason: "link_down",
            });
            self.recovery.link_down_events += 1;
            self.reinject_unacked(idx);
            self.begin_recovery(now);
            self.promote_backup_if_stranded(now);
        } else {
            self.subflows[idx].consecutive_rtos = 0;
            if self.subflows[idx].dead {
                self.revive(now, idx, "link_restored");
            }
        }
    }

    /// Queue subflow `idx`'s unacknowledged data ranges for reinjection on
    /// the surviving subflows; returns the bytes queued. A single-subflow
    /// connection has nowhere to reinject to.
    fn reinject_unacked(&mut self, idx: usize) -> u64 {
        if self.subflows.len() < 2 {
            return 0;
        }
        // Ranges another subflow already got acknowledged need no rescue.
        let mut bytes = 0u64;
        let (data_acked, reinject) = (self.data_acked, &mut self.reinject);
        self.subflows[idx].for_each_unacked(|seq, len| {
            if seq + len as u64 > data_acked {
                bytes += len as u64;
                reinject.push_back((seq, len));
            }
        });
        if bytes > 0 {
            self.recovery.reinjection_events += 1;
            self.recovery.bytes_reinjected += bytes;
        }
        bytes
    }

    /// Start the recovery-latency clock unless a failure is already pending.
    fn begin_recovery(&mut self, now: SimTime) {
        if self.recovery_pending.is_none() {
            let progress = self.data_acked.max(self.data_delivered);
            self.recovery_pending = Some((now, progress));
        }
    }

    /// If no regular subflow is usable but a backup is, promote the best
    /// backup (lowest RTT, then lowest id) to regular and tell the peer via
    /// MP_PRIO — graceful degradation instead of riding the scheduler's
    /// backup fallback with a peer that still believes the path is backup.
    fn promote_backup_if_stranded(&mut self, now: SimTime) {
        if self.subflows.iter().any(|sf| !sf.backup && sf.usable()) {
            return;
        }
        let Some(idx) = self
            .subflows
            .iter()
            .enumerate()
            .filter(|(_, sf)| sf.backup && sf.usable())
            .min_by_key(|(i, sf)| (sf.tcp.rtt().srtt_or_zero(), *i))
            .map(|(i, _)| i)
        else {
            return;
        };
        let id = self.subflows[idx].id;
        self.set_subflow_priority(now, id, false);
        self.recovery.backup_promotions += 1;
        self.scope.emit(now, |s| TraceEvent::BackupPromoted {
            conn: s.conn,
            subflow: id.0,
        });
    }

    /// Declare subflow `idx` dead after crossing the consecutive-RTO
    /// threshold. Its stranded data was already queued by the caller.
    fn declare_dead(&mut self, now: SimTime, idx: usize, reinjected_bytes: u64) {
        self.subflows[idx].dead = true;
        let (id, rtos) = (self.subflows[idx].id, self.subflows[idx].consecutive_rtos);
        self.scope.emit(now, |s| TraceEvent::SubflowDead {
            conn: s.conn,
            subflow: id.0,
            reason: "rto_threshold",
            consecutive_rtos: rtos,
            reinjected_bytes,
        });
        self.recovery.subflow_failures += 1;
        self.begin_recovery(now);
        self.promote_backup_if_stranded(now);
    }

    /// A dead subflow produced evidence of life; put it back in service.
    fn revive(&mut self, now: SimTime, idx: usize, reason: &'static str) {
        self.subflows[idx].dead = false;
        self.subflows[idx].consecutive_rtos = 0;
        self.recovery.revivals += 1;
        let id = self.subflows[idx].id;
        self.scope.emit(now, |s| TraceEvent::SubflowRevived {
            conn: s.conn,
            subflow: id.0,
            reason,
        });
    }

    /// The earliest pending timer: a subflow's TCP timers, or the instant
    /// a subflow's unacked data will have stalled long enough to reinject.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut next = None;
        for sf in &self.subflows {
            next = SimTime::earliest(next, sf.tcp.next_deadline());
            next = SimTime::earliest(next, self.stall_expiry(sf));
        }
        next
    }

    /// `sf`'s stall expiry, while there is another subflow to reinject onto.
    fn stall_expiry(&self, sf: &Subflow) -> Option<SimTime> {
        let armed = self.opportunistic && self.subflows.len() > 1;
        sf.stall_expiry().filter(|_| armed)
    }

    /// Fire due timers; with nothing due this changes no state, and a due
    /// deadline is consumed, so [`next_deadline`](Self::next_deadline) is
    /// `None` or later than `now` afterwards. RTOs trigger reinjection of
    /// the victim's unacknowledged data so another subflow can carry it,
    /// and an expired stall does so a couple of RTTs earlier. Crossing the
    /// consecutive-RTO threshold declares the subflow dead.
    pub fn on_deadline(&mut self, now: SimTime) {
        for idx in 0..self.subflows.len() {
            if self.subflows[idx].tcp.on_deadline(now) {
                self.subflows[idx].consecutive_rtos += 1;
                let bytes = self.reinject_unacked(idx);
                if !self.subflows[idx].dead
                    && self.subflows.len() > 1
                    && self.subflows[idx].consecutive_rtos >= self.failure_threshold
                {
                    self.declare_dead(now, idx, bytes);
                }
            }
        }
        self.check_stalls(now);
    }

    /// Opportunistic reinjection: a subflow whose cumulative ack has not
    /// moved for roughly two of its RTTs while holding data gets its
    /// unacked ranges re-mapped onto a subflow able to take them — once
    /// per stall. With nobody able to carry, the clock restarts and the
    /// stall is looked at again one threshold later.
    fn check_stalls(&mut self, now: SimTime) {
        for idx in 0..self.subflows.len() {
            let expired = self.stall_expiry(&self.subflows[idx]);
            if expired.is_none_or(|at| at > now) {
                continue;
            }
            // What would be waiting once this subflow's unacked data
            // joined the queue.
            let left = self.data_left() + self.subflows[idx].tcp.bytes_in_flight();
            let others_can_carry = self
                .subflows
                .iter()
                .enumerate()
                .any(|(j, other)| j != idx && other.can_take_data(left));
            if others_can_carry {
                self.subflows[idx].stall_reinjected = true;
                self.reinject_unacked(idx);
            } else {
                self.subflows[idx].stall_since = now;
            }
        }
    }

    fn update_lia(&mut self, now: SimTime) {
        if self.tcp_cfg.algorithm != CcAlgorithm::Lia || self.subflows.len() < 2 {
            return;
        }
        // Alpha changes on RTT timescales; refresh at most every 10 ms.
        if now.saturating_since(self.lia_refreshed_at) < SimDuration::from_millis(10)
            && self.lia_refreshed_at > SimTime::ZERO
        {
            return;
        }
        self.lia_refreshed_at = now;
        let mut flows: [(u64, f64); 8] = [(0, 0.0); 8];
        let mut n = 0;
        for sf in &self.subflows {
            if sf.tcp.state() == TcpState::Established && n < flows.len() {
                flows[n] = (
                    sf.tcp.cc().cwnd(),
                    sf.tcp.rtt().srtt_or_zero().as_secs_f64(),
                );
                n += 1;
            }
        }
        if n < 2 {
            return;
        }
        let alpha = lia_alpha(&flows[..n]);
        let total: u64 = flows[..n].iter().map(|&(c, _)| c).sum();
        for sf in &mut self.subflows {
            sf.tcp.set_lia(alpha, total);
        }
    }

    /// Next segment to put on the wire, tagged with its subflow. A call
    /// that returns `None` changes no state: every effect below is tied to
    /// an emission.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<(SubflowId, Segment)> {
        // Graceful close: once the stream is fully scheduled and
        // acknowledged, queue FINs on subflows that can send theirs at once
        // (idempotent at the TCP layer).
        if self.close_sent() {
            for sf in &mut self.subflows {
                if sf.tcp.state() == TcpState::Established
                    && !sf.tcp.fin_queued()
                    && sf.tcp.send_backlog() == 0
                {
                    sf.tcp.close();
                }
            }
        }
        // 1. Anything the subflow TCP machines already want to say
        //    (handshake, ACKs, retransmissions, previously scheduled data).
        for idx in 0..self.subflows.len() {
            let data_ack = self.data_rx.rcv_nxt();
            let sf = &mut self.subflows[idx];
            if let Some(seg) = sf.emit(now, data_ack) {
                return Some((sf.id, seg));
            }
        }
        // 2. Schedule fresh (or reinjected) connection data. The subflow is
        //    picked before the chunk is taken, so a pass with nowhere to
        //    send consumes nothing.
        if self.all_data_scheduled() {
            return None;
        }
        // Only a trace that records the pick formats its candidates.
        let d = pick_subflow(&self.subflows, self.data_left())?;
        self.scope.emit(now, |s| TraceEvent::SchedPick {
            conn: s.conn,
            picked: self.subflows[d.picked].id.0,
            candidates: d.candidate_ids(&self.subflows),
            reason: d.reason(&self.subflows),
            srtt_ns: d.srtt.as_nanos(),
        });
        let idx = d.picked;
        let (data_seq, len) = self.next_chunk()?;
        let data_ack = self.data_rx.rcv_nxt();
        let sf = &mut self.subflows[idx];
        let sf_mss = sf.tcp.config().mss;
        let take = (len as u64).min(sf_mss as u64).min(sf.send_room()) as u32;
        if take < len {
            // Leave the remainder for the next pick. A cut below the MSS
            // is the window running out, not the data: a runt, and the
            // whole-segment rule admits one only into an empty pipe.
            self.unconsume_chunk(data_seq + take as u64, len - take);
            self.runt_chunks += u64::from(take < sf_mss);
        }
        let sf = &mut self.subflows[idx];
        sf.push_data(data_seq, take);
        // `can_take_data` promised an empty backlog and window room, so
        // the chunk leaves in this call.
        let seg = sf.emit(now, data_ack);
        debug_assert!(seg.is_some(), "picked subflow {} held its data", sf.id);
        let seg = seg?;
        sf.gc_mappings();
        Some((sf.id, seg))
    }

    /// The next chunk of data wanting transmission: reinjections first,
    /// then fresh stream bytes (up to one MSS). `Some` whenever
    /// [`all_data_scheduled`](Self::all_data_scheduled) is false — the
    /// reinjection queue never holds ranges the peer has acknowledged.
    fn next_chunk(&mut self) -> Option<(u64, u32)> {
        if let Some((seq, len)) = self.reinject.pop_front() {
            let start = seq.max(self.data_acked);
            return Some((start, (seq + len as u64 - start) as u32));
        }
        if self.data_next < self.data_written {
            let len = (self.data_written - self.data_next).min(u32::MAX as u64) as u32;
            let seq = self.data_next;
            let take = len.min(65_535);
            self.data_next += take as u64;
            return Some((seq, take));
        }
        None
    }

    /// Connection bytes not yet handed to a subflow — fresh stream bytes
    /// and queued reinjections — counted no further than past one MSS:
    /// the whole-segment rule only asks whether they fit in less.
    fn data_left(&self) -> u64 {
        let mut left = self.data_written - self.data_next;
        for &(seq, len) in &self.reinject {
            if left > self.tcp_cfg.mss as u64 {
                break;
            }
            left += seq + len as u64 - seq.max(self.data_acked);
        }
        left
    }

    fn unconsume_chunk(&mut self, data_seq: u64, len: u32) {
        if data_seq + len as u64 == self.data_next && self.reinject.is_empty() {
            // Fresh data: simply rewind the cursor.
            self.data_next = data_seq;
        } else {
            self.reinject.push_front((data_seq, len));
        }
    }

    /// Feed an arriving segment to its subflow. A segment for a subflow
    /// this connection does not have is dropped and counted
    /// ([`unknown_subflow_segments`](Self::unknown_subflow_segments)).
    pub fn on_segment(&mut self, now: SimTime, id: SubflowId, seg: Segment) -> MpSegmentOutcome {
        let mut outcome = MpSegmentOutcome::default();
        let idx = id.0 as usize;
        if idx >= self.subflows.len() {
            self.unknown_subflow_segments += 1;
            return outcome;
        }

        // Learn the data mapping before TCP-level processing so in-order
        // delivery can translate immediately. A DATA_ACK above the data
        // handed to the subflows so far acknowledges nothing this side
        // sent, and is ignored.
        if let Some(dss) = seg.dss {
            self.subflows[idx].learn_mapping(seg.seq, dss);
            if dss.data_ack > self.data_acked && dss.data_ack <= self.data_next {
                self.data_acked = dss.data_ack;
                // Reinjections the peer has since acknowledged are moot.
                self.reinject
                    .retain(|&(seq, len)| seq + len as u64 > dss.data_ack);
            }
        }
        // An ACK of new data is about to grow a window: that is where LIA's
        // alpha is consumed, so that is where it is refreshed.
        let una = self.subflows[idx].tcp.snd_una();
        if seg.flags.ack && seg.ack > una {
            self.update_lia(now);
        }
        let tcp_outcome = self.subflows[idx].tcp.on_segment(now, seg);
        outcome.established_now = tcp_outcome.established_now;
        outcome.mp_prio = tcp_outcome.mp_prio;

        // Any subflow-level ack progress ends the current stall and resets
        // failure detection; a dead subflow producing progress is evidently
        // alive again.
        if self.subflows[idx].tcp.snd_una() > una {
            self.subflows[idx].restart_stall_clock(now);
            self.subflows[idx].consecutive_rtos = 0;
            if self.subflows[idx].dead {
                self.revive(now, idx, "ack_progress");
            }
        }
        if outcome.established_now {
            let iface = self.subflows[idx].iface;
            self.scope.emit(now, |s| TraceEvent::SubflowEstablished {
                conn: s.conn,
                subflow: id.0,
                iface: iface.label(),
            });
        }
        if let Some(backup) = tcp_outcome.mp_prio {
            self.subflows[idx].backup = backup;
            self.scope.emit(now, |s| TraceEvent::MpPrio {
                conn: s.conn,
                subflow: id.0,
                backup,
            });
        }

        // Translate the delivered subflow range to data space and reassemble.
        if let Some(range) = tcp_outcome.delivered {
            let data_rx = &mut self.data_rx;
            let delivered = &mut outcome.delivered_bytes;
            let mapped = self.subflows[idx].rx_mappings.translate_each(
                range.seq,
                range.len,
                |data_seq, len| *delivered += data_rx.receive(data_seq, len),
            );
            debug_assert_eq!(
                mapped, range.len as u64,
                "delivered range with unmapped bytes"
            );
            self.data_delivered += outcome.delivered_bytes;
        }
        if outcome.delivered_bytes > 0 {
            let iface = self.subflows[idx].iface;
            let names = &mut self.rx_bytes_names;
            self.scope.with_metrics(|s, m| {
                let at = names
                    .iter()
                    .position(|(kind, _)| *kind == iface)
                    .unwrap_or_else(|| {
                        let name = format!("conn{}.iface.{}.rx_bytes", s.conn, iface.label());
                        names.push((iface, name));
                        names.len() - 1
                    });
                m.counter_add(&names[at].1, outcome.delivered_bytes)
            });
            // Coalesced throughput signal for the observability pipeline:
            // one Delivered event per DELIVERED_EMIT_BYTES of progress,
            // attributed to the subflow whose segment completed the run.
            self.delivered_since_emit += outcome.delivered_bytes;
            if self.delivered_since_emit >= DELIVERED_EMIT_BYTES {
                let bytes = self.delivered_since_emit;
                self.delivered_since_emit = 0;
                self.scope.emit(now, |s| TraceEvent::Delivered {
                    conn: s.conn,
                    subflow: id.0,
                    bytes,
                });
            }
        }
        // DSS coverage: in-order delivery to the application must track the
        // data-level stream advance exactly (each byte exactly once). The
        // comparison runs on every segment; only a failure takes the
        // observer's lock to record it.
        if self.data_delivered != self.data_rx.rcv_nxt() {
            self.scope.check_invariants(now, |obs| {
                obs.check_dss_coverage(now, "mptcp", self.data_delivered, self.data_rx.rcv_nxt());
            });
        }
        // Resolve a pending failure once the connection-level stream moves
        // (on the sender that is a higher data-ack, on the receiver a
        // higher in-order delivery mark).
        if let Some((since, progress)) = self.recovery_pending {
            if self.data_acked.max(self.data_delivered) > progress {
                self.recovery.note_latency(now.saturating_since(since));
                self.recovery_pending = None;
            }
        }
        self.subflows[idx].gc_mappings();
        outcome
    }

    /// The most disjoint out-of-order ranges the connection-level reorder
    /// queue ever held at once: O(holes in the stream), however many
    /// segments one path ran ahead of another.
    pub fn reorder_high_water(&self) -> usize {
        self.data_rx.ooo_high_water()
    }

    /// True when the sender side has pushed every written byte into some
    /// subflow.
    fn all_data_scheduled(&self) -> bool {
        self.data_next >= self.data_written && self.reinject.is_empty()
    }

    /// Idle test used by eMPTCP's §3.5: no subflow has sent or received
    /// anything within `window` of `now`.
    pub fn is_idle(&self, now: SimTime, window: SimDuration) -> bool {
        self.subflows
            .iter()
            .all(|sf| now.saturating_since(sf.last_activity()) > window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HALF: SimDuration = SimDuration::from_millis(10);

    /// A loopback pair: client + server connections whose segments are
    /// carried with a fixed one-way delay per direction and optional drops.
    struct Pair {
        now: SimTime,
        client: MpConnection,
        server: MpConnection,
        /// A subflow blackholed in both directions.
        dead: Option<SubflowId>,
    }

    impl Pair {
        fn new(ifaces: &[IfaceKind]) -> Pair {
            Pair::with_config(ifaces, TcpConfig::default())
        }

        fn with_config(ifaces: &[IfaceKind], cfg: TcpConfig) -> Pair {
            let mut client = MpConnection::new(Role::Client, cfg);
            let mut server = MpConnection::new(Role::Server, cfg);
            let now = SimTime::ZERO;
            for &iface in ifaces {
                client.add_subflow(now, iface);
                server.add_subflow(now, iface);
            }
            Pair {
                now,
                client,
                server,
                dead: None,
            }
        }

        /// One half-round: move every pending segment one way.
        fn flow(&mut self, from_server: bool) {
            let (a, b) = if from_server {
                (&mut self.server, &mut self.client)
            } else {
                (&mut self.client, &mut self.server)
            };
            a.on_deadline(self.now);
            let mut segs = Vec::new();
            while let Some(pair) = a.poll_transmit(self.now) {
                segs.push(pair);
            }
            self.now += HALF;
            b.on_deadline(self.now);
            for (id, seg) in segs {
                if Some(id) != self.dead {
                    b.on_segment(self.now, id, seg);
                }
            }
        }

        /// `n` round trips: server to client, then back.
        fn rounds(&mut self, n: usize) {
            for _ in 0..n {
                self.flow(true);
                self.flow(false);
            }
        }

        /// Run rounds until the client delivered `total` bytes (or panic).
        fn run_until_delivered(&mut self, total: u64, max_rounds: usize) {
            for _ in 0..max_rounds {
                self.rounds(1);
                if self.client.bytes_delivered() >= total {
                    return;
                }
            }
            panic!(
                "stalled: delivered {} of {total}",
                self.client.bytes_delivered()
            );
        }
    }

    #[test]
    fn single_subflow_download() {
        let mut p = Pair::new(&[IfaceKind::Wifi]);
        p.server.write(500_000);
        p.run_until_delivered(500_000, 500);
        assert_eq!(p.client.bytes_delivered(), 500_000);
    }

    #[test]
    fn a_ragged_window_releases_whole_segments_only() {
        let mut p = Pair::new(&[IfaceKind::Wifi]);
        let total = 200_000;
        let mss = TcpConfig::default().mss;
        p.server.write(total);
        let mut payloads = Vec::new();
        while p.client.bytes_delivered() < total {
            p.server.on_deadline(p.now);
            let mut down = Vec::new();
            while let Some(pair) = p.server.poll_transmit(p.now) {
                down.push(pair);
            }
            payloads.extend(down.iter().map(|(_, seg)| seg.payload).filter(|&n| n > 0));
            p.now += HALF;
            for (id, seg) in down {
                p.client.on_segment(p.now, id, seg);
            }
            // The client offers 10 000 B: seven segments and 4 B over.
            p.client.on_deadline(p.now);
            let mut up = Vec::new();
            while let Some(pair) = p.client.poll_transmit(p.now) {
                up.push(pair);
            }
            p.now += HALF;
            for (id, mut seg) in up {
                seg.rwnd = 10_000;
                p.server.on_segment(p.now, id, seg);
            }
            assert!(p.now < SimTime::from_secs(60), "stalled");
        }
        // The 4 B of room past the seventh segment is never filled while
        // data is in flight: everything on the wire is a whole segment
        // but the tail of the stream.
        let (tail, body) = payloads.split_last().expect("data was sent");
        assert!(body.iter().all(|&n| n == mss), "{body:?}");
        assert_eq!(*tail as u64, total % mss as u64);
        assert_eq!(p.server.runt_chunks(), 0);
        let tcp = &p.server.subflow(SubflowId(0)).tcp;
        assert_eq!(tcp.runts(), 0);
        assert_eq!(tcp.data_segments(), total.div_ceil(mss as u64));
    }

    #[test]
    fn two_subflows_both_carry_data() {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        p.server.write(3_000_000);
        p.run_until_delivered(3_000_000, 2000);
        let wifi = p.client.delivered_by_iface(IfaceKind::Wifi);
        let lte = p.client.delivered_by_iface(IfaceKind::CellularLte);
        assert!(wifi > 0, "wifi idle");
        assert!(lte > 0, "lte idle");
        assert_eq!(wifi + lte, 3_000_000);
    }

    #[test]
    fn data_ack_propagates_to_server() {
        let mut p = Pair::new(&[IfaceKind::Wifi]);
        p.server.write(100_000);
        p.run_until_delivered(100_000, 500);
        // A few more quiet rounds to flush the final data-ack.
        p.rounds(4);
        assert_eq!(p.server.bytes_acked(), 100_000);
        assert!(p.server.all_data_scheduled());
    }

    #[test]
    fn mp_prio_suspends_subflow_at_sender() {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        p.server.write(200_000);
        p.run_until_delivered(200_000, 1000);
        // Client marks LTE backup; a couple of rounds to propagate.
        p.client.set_subflow_priority(p.now, SubflowId(1), true);
        p.rounds(4);
        assert!(p.server.subflow(SubflowId(1)).backup, "MP_PRIO not applied");
        // New data must ride WiFi exclusively.
        let lte_before = p.client.delivered_by_iface(IfaceKind::CellularLte);
        p.server.write(500_000);
        p.run_until_delivered(700_000, 1000);
        let lte_after = p.client.delivered_by_iface(IfaceKind::CellularLte);
        assert_eq!(lte_before, lte_after, "backup subflow carried new data");
    }

    #[test]
    fn idle_detection() {
        let mut p = Pair::new(&[IfaceKind::Wifi]);
        p.server.write(10_000);
        p.run_until_delivered(10_000, 200);
        assert!(!p.client.is_idle(p.now, SimDuration::from_secs(10)));
        let later = p.now + SimDuration::from_secs(60);
        assert!(p.client.is_idle(later, SimDuration::from_secs(10)));
    }

    #[test]
    fn coupling_follows_the_algorithm() {
        // LIA's alpha is refreshed for LIA endpoints only; Reno ignores it.
        for algorithm in [CcAlgorithm::Reno, CcAlgorithm::Lia] {
            let cfg = TcpConfig {
                algorithm,
                ..TcpConfig::default()
            };
            let mut p = Pair::with_config(&[IfaceKind::Wifi, IfaceKind::CellularLte], cfg);
            p.server.write(1_000_000);
            p.rounds(6);
            let refreshed = p.server.lia_refreshed_at > SimTime::ZERO;
            assert_eq!(refreshed, algorithm == CcAlgorithm::Lia, "{algorithm:?}");
        }
    }

    #[test]
    fn established_requires_handshake() {
        let mut p = Pair::new(&[IfaceKind::Wifi]);
        assert!(!p.client.established());
        p.flow(false); // SYN
        p.flow(true); // SYN-ACK
        assert!(p.client.established());
    }

    /// Blackhole subflow 1 after warm-up; return the completion time.
    fn blackhole_run(opportunistic: bool) -> SimTime {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        p.client.set_opportunistic(opportunistic);
        p.server.set_opportunistic(opportunistic);
        p.server.write(1_000_000);
        p.rounds(6);
        p.dead = Some(SubflowId(1));
        p.run_until_delivered(1_000_000, 6000);
        p.now
    }

    #[test]
    fn opportunistic_reinjection_beats_rto_only() {
        let with = blackhole_run(true);
        let without = blackhole_run(false);
        assert!(
            with <= without,
            "opportunistic {with} should not be slower than RTO-only {without}"
        );
    }

    /// The stall clock starts when data enters an empty pipe, not when a
    /// sweep last saw `snd_una` move: bursty traffic (web pages, streaming
    /// chunks) must not have every post-idle burst duplicated onto the
    /// other radio.
    #[test]
    fn an_idle_gap_then_a_small_write_is_not_reinjected() {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        p.server.write(200_000);
        p.run_until_delivered(200_000, 1000);
        p.rounds(4);
        assert_eq!(p.server.bytes_acked(), 200_000);
        let before = p.server.recovery_stats().bytes_reinjected;
        p.now += SimDuration::from_secs(2);
        p.server.write(8_000);
        p.run_until_delivered(208_000, 100);
        let reinjected = p.server.recovery_stats().bytes_reinjected - before;
        assert_eq!(reinjected, 0, "freshly sent data was reinjected");
    }

    #[test]
    fn a_segment_for_an_unknown_subflow_is_counted_and_dropped() {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        p.server.write(50_000);
        p.run_until_delivered(50_000, 500);
        // Nothing but the counter may move.
        let mut expected = p.client.clone();
        expected.unknown_subflow_segments = 1;
        let outcome = p
            .client
            .on_segment(p.now, SubflowId(7), Segment::empty(p.now));
        assert_eq!(outcome.delivered_bytes, 0);
        assert!(!outcome.established_now && outcome.mp_prio.is_none());
        assert_eq!(p.client.unknown_subflow_segments(), 1);
        assert_eq!(format!("{:?}", p.client), format!("{expected:?}"));
    }

    #[test]
    fn graceful_close_exchanges_fins() {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        p.server.write(300_000);
        p.server.close();
        p.client.close();
        p.run_until_delivered(300_000, 1000);
        // A few extra rounds for the data-acks and FINs to settle.
        p.rounds(30);
        assert!(p.server.close_sent());
        assert!(p.client.peer_closed(), "client never saw the server FINs");
        assert!(p.server.peer_closed(), "server never saw the client FINs");
    }

    #[test]
    #[should_panic(expected = "write after close")]
    fn write_after_close_rejected() {
        let mut c = MpConnection::new(Role::Server, TcpConfig::default());
        c.close();
        c.write(1);
    }

    #[test]
    fn rto_threshold_declares_subflow_dead_and_promotes_backup() {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        // Two consecutive RTOs (~0.6 s with the default RTO schedule) must
        // land inside the transfer so promotion happens mid-stream.
        p.server.set_failure_threshold(2);
        // Handshake both subflows and mark LTE backup *before* any data
        // exists, so the whole transfer runs under the blackhole below.
        p.rounds(3);
        p.client.set_subflow_priority(p.now, SubflowId(1), true);
        p.rounds(3);
        assert!(p.server.subflow(SubflowId(1)).backup);
        p.server.write(2_000_000);
        // Blackhole WiFi in both directions: the server's RTOs pile up
        // until failure detection declares sf0 dead and promotes sf1.
        p.dead = Some(SubflowId(0));
        p.run_until_delivered(2_000_000, 8000);
        let stats = *p.server.recovery_stats();
        assert!(stats.subflow_failures >= 1, "sf0 never declared dead");
        assert_eq!(
            stats.backup_promotions, 1,
            "backup not promoted exactly once"
        );
        assert!(stats.bytes_reinjected > 0, "no bytes reinjected");
        assert!(
            stats.worst_recovery_latency().is_some(),
            "recovery latency not measured"
        );
        assert!(p.server.subflow(SubflowId(0)).dead);
        assert!(!p.server.subflow(SubflowId(1)).backup, "sf1 still backup");
    }

    #[test]
    fn link_down_promotes_backup_and_link_up_revives() {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        p.server.write(200_000);
        p.rounds(6);
        p.server.set_subflow_priority(p.now, SubflowId(1), true);
        // WiFi association lost: sf0 down, sf1 must be promoted locally.
        p.server.set_subflow_link_up(p.now, SubflowId(0), false);
        assert_eq!(p.server.recovery_stats().link_down_events, 1);
        assert_eq!(p.server.recovery_stats().backup_promotions, 1);
        assert!(!p.server.subflow(SubflowId(1)).backup);
        // Restoration clears the failure state.
        p.server.set_subflow_link_up(p.now, SubflowId(0), true);
        assert!(!p.server.subflow(SubflowId(0)).link_down);
        p.run_until_delivered(200_000, 2000);
    }

    #[test]
    fn recovery_stats_absorb_merges_and_keeps_worst_latency() {
        let mut a = RecoveryStats {
            subflow_failures: 1,
            bytes_reinjected: 100,
            worst_recovery_latency_ns: Some(5),
            ..RecoveryStats::default()
        };
        let b = RecoveryStats {
            subflow_failures: 2,
            backup_promotions: 1,
            worst_recovery_latency_ns: Some(9),
            ..RecoveryStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.subflow_failures, 3);
        assert_eq!(a.bytes_reinjected, 100);
        assert_eq!(a.backup_promotions, 1);
        assert_eq!(a.worst_recovery_latency_ns, Some(9));
    }

    #[test]
    fn reinjection_rescues_stuck_data() {
        let mut p = Pair::new(&[IfaceKind::Wifi, IfaceKind::CellularLte]);
        p.server.write(1_000_000);
        // Run a few rounds so both subflows carry data.
        p.rounds(6);
        // Kill the LTE subflow: drop everything it emits (and the acks
        // coming back on it) from now on.
        p.dead = Some(SubflowId(1));
        p.run_until_delivered(1_000_000, 4000);
    }
}
