//! The TCP endpoint state machine.
//!
//! One [`TcpEndpoint`] is one side of one (sub)flow. It is driven entirely
//! by the host:
//!
//! ```text
//! host event                 endpoint call                 emissions
//! ------------------------   ---------------------------   -----------------
//! packet arrives             on_segment(now, seg)          -> delivered range
//! timer fires                on_deadline(now)
//! app writes                 write(bytes)
//! any of the above           poll_transmit(now) until None -> segments to send
//! (re-arm timers from next_deadline())
//! ```
//!
//! Segments carry byte counts, not bytes. Sequence space: the SYN occupies
//! seq 0, stream byte `i` occupies seq `1 + i`, the FIN occupies
//! `1 + app_bytes`.
//!
//! Loss recovery is split in two: the endpoint holds the policy (the
//! dupack count, `recovery_high`, `high_sacked`, the SACK trigger, and when
//! holes are queued) and its [`SendQueue`] the scoreboard, the one writer
//! of every segment's loss marks, of the totals [`pipe`](TcpEndpoint::pipe)
//! reads and of the retransmission order. An ACK above `snd_nxt` is dropped
//! and answered, so `snd_una <= snd_nxt` always holds.

use crate::cc::{CcAlgorithm, CongestionCtrl};
use crate::ranges::RangeSet;
use crate::rtt::RttEstimator;
use crate::segment::{Segment, DEFAULT_MSS, DELACK_TIMEOUT, INIT_CWND_SEGMENTS};
use crate::sendq::{SendQueue, SentSeg};
use emptcp_sim::SimTime;
use emptcp_telemetry::{TelemetryScope, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Endpoint configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes).
    pub mss: u32,
    /// Receive buffer: the advertised window ceiling.
    pub rwnd_bytes: u64,
    /// RFC 2861 congestion-window validation after idle. eMPTCP disables
    /// this on resumed subflows (§3.6).
    pub cwnd_validation: bool,
    /// Congestion-avoidance increase rule.
    pub algorithm: CcAlgorithm,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: DEFAULT_MSS,
            rwnd_bytes: 4 * 1024 * 1024,
            cwnd_validation: true,
            algorithm: CcAlgorithm::Reno,
        }
    }
}

/// Connection state (handshake-centric; teardown is tracked by flags).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TcpState {
    /// Not yet started.
    Closed,
    /// Passive open, waiting for a SYN.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Handshake complete; data flows.
    Established,
}

impl TcpState {
    /// Stable name used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            TcpState::Closed => "Closed",
            TcpState::Listen => "Listen",
            TcpState::SynSent => "SynSent",
            TcpState::SynRcvd => "SynRcvd",
            TcpState::Established => "Established",
        }
    }
}

/// A contiguous run of payload delivered in order to the application (or to
/// the MPTCP reassembly layer above).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeliveredRange {
    /// Subflow sequence of the first byte.
    pub seq: u64,
    /// Length in bytes.
    pub len: u32,
}

/// What [`TcpEndpoint::on_segment`] observed.
#[derive(Clone, Debug, Default)]
pub struct SegmentOutcome {
    /// Payload newly delivered in order by this segment, including any
    /// out-of-order backlog it unlocked: always the one range from the old
    /// `rcv_nxt` to the new one, FIN excluded.
    pub delivered: Option<DeliveredRange>,
    /// An MP_PRIO option arrived: the peer asks that this subflow be
    /// treated as backup (`true`) or normal (`false`).
    pub mp_prio: Option<bool>,
    /// The handshake completed during this call.
    pub established_now: bool,
    /// The peer's FIN has now been fully received.
    pub fin_received: bool,
}

/// An endpoint's metric keys, formatted at its first report instead of on
/// every ACK. An endpoint that never reports formats none, and holding a
/// name adds no key to any registry.
#[derive(Clone, Debug)]
struct MetricNames {
    rtt_ms: String,
    rto: String,
    retransmits: String,
}

impl MetricNames {
    fn of(scope: &TelemetryScope) -> Box<MetricNames> {
        let key = |field: &str| format!("tcp.conn{}.sf{}.{field}", scope.conn, scope.subflow);
        Box::new(MetricNames {
            rtt_ms: key("rtt_ms"),
            rto: key("rto"),
            retransmits: key("retransmits"),
        })
    }
}

/// One side of a TCP (sub)flow.
#[derive(Clone, Debug)]
pub struct TcpEndpoint {
    cfg: TcpConfig,
    state: TcpState,

    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    app_bytes: u64,
    fin_queued: bool,
    /// The scoreboard: every segment in flight, its loss marks and their
    /// totals, and the retransmission order.
    inflight: SendQueue,
    cc: CongestionCtrl,
    rtt: RttEstimator,
    rto_deadline: Option<SimTime>,
    dupacks: u32,
    recovery_high: Option<u64>,
    /// Highest sequence covered by any SACK block seen this recovery.
    high_sacked: u64,
    peer_rwnd: u64,
    syn_sent_at: Option<SimTime>,
    bytes_acked_total: u64,
    retransmissions: u64,
    timeouts: u64,
    /// First transmissions that carried payload.
    data_segments: u64,
    /// Of those, the ones shorter than the MSS that did not end the
    /// stream as written so far (sender-side silly-window output).
    runts: u64,

    // --- receive side ---
    rcv_nxt: u64,
    /// Out-of-order payload, coalesced: `start -> end` (exclusive).
    ooo: RangeSet,
    fin_rcv_seq: Option<u64>,
    fin_received: bool,
    bytes_delivered_total: u64,
    pending_acks: u32,
    delack_deadline: Option<SimTime>,
    ts_to_echo: Option<SimTime>,
    /// Rotation cursor (a sequence number) over the out-of-order ranges
    /// reported in SACK blocks, so successive ACKs cover the whole
    /// scoreboard (real stacks achieve this by reporting the newest block
    /// first; rotation has the same coverage effect).
    sack_cursor: u64,

    // --- emissions & options ---
    /// Segments awaiting `poll_transmit`. Every driver drains it after each
    /// call, so it is built with room for one and grows only when a second
    /// is queued.
    out: VecDeque<Segment>,
    pending_mp_prio: Option<bool>,
    last_activity: SimTime,

    // --- observability ---
    scope: TelemetryScope,
    metric_names: Option<Box<MetricNames>>,
    /// Payload bytes first-transmitted (excludes retransmissions); the
    /// `acked ≤ sent` conservation invariant compares against this.
    bytes_sent_total: u64,
    /// Last cwnd/ssthresh reported to the trace, for coalescing.
    last_traced_cwnd: u64,
    last_traced_ssthresh: u64,
}

impl TcpEndpoint {
    fn new(cfg: TcpConfig, state: TcpState) -> Self {
        TcpEndpoint {
            cfg,
            state,
            snd_una: 0,
            snd_nxt: 0,
            app_bytes: 0,
            fin_queued: false,
            inflight: SendQueue::new(),
            cc: CongestionCtrl::new(cfg.algorithm, cfg.mss, INIT_CWND_SEGMENTS),
            rtt: RttEstimator::new(),
            rto_deadline: None,
            dupacks: 0,
            recovery_high: None,
            high_sacked: 0,
            peer_rwnd: 64 * 1024,
            syn_sent_at: None,
            bytes_acked_total: 0,
            retransmissions: 0,
            timeouts: 0,
            data_segments: 0,
            runts: 0,
            rcv_nxt: 0,
            ooo: RangeSet::new(),
            fin_rcv_seq: None,
            fin_received: false,
            bytes_delivered_total: 0,
            pending_acks: 0,
            delack_deadline: None,
            ts_to_echo: None,
            sack_cursor: 0,
            out: VecDeque::with_capacity(1),
            pending_mp_prio: None,
            last_activity: SimTime::ZERO,
            scope: TelemetryScope::disabled(),
            metric_names: None,
            bytes_sent_total: 0,
            last_traced_cwnd: 0,
            last_traced_ssthresh: 0,
        }
    }

    /// Attach a telemetry scope; events and metrics from this endpoint are
    /// labelled with the scope's connection/subflow ids.
    pub fn set_telemetry(&mut self, scope: TelemetryScope) {
        self.scope = scope;
        self.metric_names = None;
    }

    /// Transition the connection state, tracing the edge.
    fn set_state(&mut self, now: SimTime, to: TcpState) {
        let from = self.state;
        self.state = to;
        self.scope.emit(now, |s| TraceEvent::TcpState {
            conn: s.conn,
            subflow: s.subflow,
            from: from.name(),
            to: to.name(),
        });
    }

    /// Trace a congestion-window change, coalesced to one event per MSS of
    /// cwnd movement (or any ssthresh change) to bound trace volume.
    fn trace_cwnd(&mut self, now: SimTime, reason: &'static str) {
        if !self.scope.tracing_active() {
            return;
        }
        let cwnd = self.cc.cwnd();
        let ssthresh = self.cc.ssthresh();
        if cwnd.abs_diff(self.last_traced_cwnd) >= self.cfg.mss as u64
            || ssthresh != self.last_traced_ssthresh
        {
            self.last_traced_cwnd = cwnd;
            self.last_traced_ssthresh = ssthresh;
            self.scope.emit(now, |s| TraceEvent::CwndChange {
                conn: s.conn,
                subflow: s.subflow,
                cwnd,
                ssthresh,
                reason,
            });
        }
    }

    /// An active opener; call [`connect`](Self::connect) to start.
    pub fn client(cfg: TcpConfig) -> Self {
        Self::new(cfg, TcpState::Closed)
    }

    /// A passive opener, waiting for a SYN.
    pub fn listener(cfg: TcpConfig) -> Self {
        Self::new(cfg, TcpState::Listen)
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// The configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// RTT estimator (srtt, rto, handshake RTT).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Congestion controller.
    pub fn cc(&self) -> &CongestionCtrl {
        &self.cc
    }

    /// Refresh LIA coupling (forwarded from the MPTCP connection).
    pub fn set_lia(&mut self, alpha: f64, total_cwnd: u64) {
        self.cc.set_lia(alpha, total_cwnd);
    }

    /// Total payload bytes cumulatively acknowledged by the peer.
    pub fn bytes_acked_total(&self) -> u64 {
        self.bytes_acked_total
    }

    /// Total payload bytes delivered in order to the layer above.
    pub fn bytes_delivered_total(&self) -> u64 {
        self.bytes_delivered_total
    }

    /// Total payload bytes transmitted for the first time (retransmissions
    /// excluded). Cumulative ACKed bytes can never exceed this.
    pub fn bytes_sent_total(&self) -> u64 {
        self.bytes_sent_total
    }

    /// Count of retransmitted segments.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Count of first transmissions that carried payload.
    pub fn data_segments(&self) -> u64 {
        self.data_segments
    }

    /// Count of those data segments that were runts: shorter than the MSS
    /// without reaching the end of the stream written so far.
    pub fn runts(&self) -> u64 {
        self.runts
    }

    /// Count of retransmission timeouts; the MPTCP layer watches this to
    /// trigger opportunistic reinjection on another subflow.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// First unacknowledged sequence number.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Bytes currently unacknowledged.
    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// RFC 6675-style pipe estimate: unacknowledged bytes minus those the
    /// peer has selectively acknowledged and those deemed lost (lost bytes
    /// re-enter the pipe when retransmitted).
    pub fn pipe(&self) -> u64 {
        self.bytes_in_flight()
            .saturating_sub(self.inflight.sacked_bytes())
            .saturating_sub(self.inflight.lost_bytes())
    }

    /// The send window: the congestion window capped by the peer's
    /// advertised receive window.
    pub fn send_window(&self) -> u64 {
        self.cc.cwnd().min(self.peer_rwnd)
    }

    /// Bytes written by the application but not yet sent.
    pub fn send_backlog(&self) -> u64 {
        (1 + self.app_bytes).saturating_sub(self.snd_nxt)
    }

    /// True once our FIN is queued/sent and all data plus FIN are acked and
    /// the peer's FIN arrived.
    #[cfg(test)]
    fn fully_closed(&self) -> bool {
        self.snd_nxt > 1 + self.app_bytes && self.inflight.is_empty() && self.fin_received
    }

    /// Peer FIN received.
    pub fn fin_received(&self) -> bool {
        self.fin_received
    }

    /// Last send-or-receive activity; eMPTCP's idle test (§3.5) compares
    /// this against an estimated RTT.
    pub fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// §3.6 resume tweaks: zero the measured RTT (so the minRTT scheduler
    /// probes this subflow) and disable RFC 2861 cwnd validation (so the
    /// window survives the suspension).
    pub fn prepare_resume(&mut self) {
        self.rtt.reset_for_resume();
        self.cfg.cwnd_validation = false;
    }

    /// Queue an MP_PRIO option onto the next outgoing segment; if nothing
    /// else is pending a pure carrier segment is emitted.
    pub fn send_mp_prio(&mut self, now: SimTime, backup: bool) {
        self.pending_mp_prio = Some(backup);
        // Ensure something leaves soon: schedule a pure ACK carrier.
        if self.out.is_empty() {
            let seg = self.make_ack(now);
            self.out.push_back(seg);
        }
    }

    // ------------------------------------------------------------------
    // application interface
    // ------------------------------------------------------------------

    /// Begin the active open.
    pub fn connect(&mut self, now: SimTime) {
        assert_eq!(self.state, TcpState::Closed, "connect() once, from Closed");
        self.set_state(now, TcpState::SynSent);
        self.syn_sent_at = Some(now);
        let mut seg = Segment::empty(now);
        seg.seq = 0;
        seg.flags.syn = true;
        seg.rwnd = self.advertised_rwnd();
        self.inflight.push(0, SentSeg::new(0, true, false, now));
        self.snd_nxt = 1;
        self.out.push_back(seg);
        self.arm_rto(now);
        self.last_activity = now;
    }

    /// Append `bytes` of application data to the send stream.
    pub fn write(&mut self, bytes: u64) {
        assert!(!self.fin_queued, "write after close");
        self.app_bytes += bytes;
    }

    /// Queue a FIN after all written data.
    pub fn close(&mut self) {
        self.fin_queued = true;
    }

    /// True once [`close`](Self::close) was called.
    pub fn fin_queued(&self) -> bool {
        self.fin_queued
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    /// Earliest pending timer, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        SimTime::earliest(self.rto_deadline, self.delack_deadline)
    }

    /// Fire any timers due at `now`; returns whether the retransmission
    /// timer expired (the MPTCP layer reinjects the victim's data then).
    /// With nothing due this changes no state, and a due timer is consumed:
    /// afterwards [`next_deadline`](Self::next_deadline) is `None` or later
    /// than `now`.
    pub fn on_deadline(&mut self, now: SimTime) -> bool {
        if let Some(d) = self.delack_deadline {
            if now >= d {
                self.delack_deadline = None;
                self.pending_acks = 0;
                let seg = self.make_ack(now);
                self.out.push_back(seg);
            }
        }
        if let Some(d) = self.rto_deadline {
            if now >= d && !self.inflight.is_empty() {
                // Retransmission timeout (RFC 5681 §5): every unacked,
                // un-SACKed segment is presumed lost and re-sent in order,
                // clocked by slow start from one MSS (go-back-N).
                self.cc.on_timeout();
                self.rtt.backoff();
                self.timeouts += 1;
                self.scope.emit(now, |s| TraceEvent::RtoFired {
                    conn: s.conn,
                    subflow: s.subflow,
                    rto_ns: self.rtt.rto().as_nanos(),
                });
                self.scope.with_metrics(|s, m| {
                    let names = self.metric_names.get_or_insert_with(|| MetricNames::of(s));
                    m.counter_add(&names.rto, 1)
                });
                self.trace_cwnd(now, "rto");
                self.dupacks = 0;
                self.recovery_high = None;
                self.high_sacked = 0;
                self.inflight.rto_sweep();
                self.arm_rto(now);
                return true;
            } else if now >= d {
                self.rto_deadline = None;
            }
        }
        false
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = if self.inflight.is_empty() {
            None
        } else {
            Some(now + self.rtt.rto())
        };
    }

    // ------------------------------------------------------------------
    // receive path
    // ------------------------------------------------------------------

    /// Process an arriving segment.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) -> SegmentOutcome {
        if self.state == TcpState::Established && seg.flags.ack && seg.ack > self.snd_nxt {
            // An ACK of data never sent is dropped and answered with an ACK
            // (RFC 9293 §3.10.7.4).
            let ack = self.make_ack(now);
            self.out.push_back(ack);
            return SegmentOutcome::default();
        }
        let mut outcome = SegmentOutcome {
            mp_prio: seg.mp_prio,
            ..SegmentOutcome::default()
        };
        self.last_activity = now;
        self.peer_rwnd = seg.rwnd;

        match self.state {
            TcpState::Listen => {
                if seg.flags.syn {
                    self.rcv_nxt = 1;
                    self.ts_to_echo = Some(seg.ts_val);
                    self.set_state(now, TcpState::SynRcvd);
                    let mut synack = Segment::empty(now);
                    synack.seq = 0;
                    synack.flags.syn = true;
                    synack.flags.ack = true;
                    synack.ack = 1;
                    synack.ts_ecr = Some(seg.ts_val);
                    synack.rwnd = self.advertised_rwnd();
                    self.inflight.push(0, SentSeg::new(0, true, false, now));
                    self.snd_nxt = 1;
                    self.out.push_back(synack);
                    self.arm_rto(now);
                }
                return outcome;
            }
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == 1 {
                    self.snd_una = 1;
                    self.inflight.ack(1);
                    self.rto_deadline = None;
                    self.rcv_nxt = 1;
                    if let Some(sent) = self.syn_sent_at {
                        self.rtt.on_handshake(now.saturating_since(sent));
                    }
                    self.ts_to_echo = Some(seg.ts_val);
                    self.set_state(now, TcpState::Established);
                    outcome.established_now = true;
                    let ack = self.make_ack(now);
                    self.out.push_back(ack);
                }
                return outcome;
            }
            TcpState::SynRcvd => {
                if seg.flags.ack && seg.ack == 1 {
                    self.snd_una = 1;
                    self.inflight.ack(1);
                    self.rto_deadline = None;
                    if let Some(ecr) = seg.ts_ecr {
                        self.rtt.on_handshake(now.saturating_since(ecr));
                    }
                    self.set_state(now, TcpState::Established);
                    outcome.established_now = true;
                    // Fall through: the completing ACK may carry data.
                } else {
                    return outcome;
                }
            }
            TcpState::Closed => return outcome,
            TcpState::Established => {}
        }

        // --- ACK processing (send side) ---
        if seg.flags.ack {
            self.process_ack(now, &seg);
        }

        // --- data processing (receive side) ---
        if seg.seq_space() > 0 {
            self.process_data(now, &seg, &mut outcome);
        }
        outcome.fin_received = self.fin_received;
        outcome
    }

    /// Queue the holes below the highest SACKed sequence for
    /// retransmission (the core of SACK-based loss recovery); with no SACK
    /// above `snd_una`, the segment there, deemed lost if `head_lost`.
    fn fill_holes(&mut self, head_lost: bool) {
        if self.high_sacked > self.snd_una {
            self.inflight.queue_holes(self.high_sacked);
        } else {
            self.inflight.queue(self.snd_una, head_lost);
        }
    }

    fn enter_recovery(&mut self, now: SimTime) {
        self.cc.on_fast_retransmit();
        self.trace_cwnd(now, "fast_retransmit");
        self.recovery_high = Some(self.snd_nxt);
        self.fill_holes(true);
    }

    fn process_ack(&mut self, now: SimTime, seg: &Segment) {
        for (start, end) in seg.sack_blocks() {
            self.high_sacked = self.high_sacked.max(end);
            self.inflight.sack(start, end);
        }
        if seg.ack > self.snd_una {
            let newly_acked = seg.ack - self.snd_una;
            self.bytes_acked_total += self.inflight.ack(seg.ack);
            self.snd_una = seg.ack;
            self.dupacks = 0;

            // RTT sample via timestamp echo.
            if let Some(ecr) = seg.ts_ecr {
                let sample = now.saturating_since(ecr);
                self.rtt.on_sample(sample);
                self.scope.with_metrics(|s, m| {
                    let names = self.metric_names.get_or_insert_with(|| MetricNames::of(s));
                    m.observe(&names.rtt_ms, sample.as_millis_f64())
                });
            }

            match self.recovery_high {
                Some(high) if seg.ack < high => {
                    // Partial ACK during recovery: fill the remaining holes
                    // (SACK-guided if blocks were seen, else the next hole)
                    // without growing the window.
                    self.fill_holes(false);
                }
                Some(_) => {
                    self.recovery_high = None;
                    self.high_sacked = 0;
                    self.cc.on_ack(newly_acked);
                }
                None => {
                    self.cc.on_ack(newly_acked);
                }
            }
            self.trace_cwnd(now, "ack");
            self.arm_rto(now);
        } else if seg.ack == self.snd_una && !self.inflight.is_empty() && seg.is_pure_ack() {
            self.dupacks += 1;
            // RFC 6675: enter recovery on three dupacks or once SACK shows
            // more than three segments' worth of out-of-order delivery.
            let sack_trigger = self.inflight.sacked_bytes() > 3 * self.cfg.mss as u64;
            if self.recovery_high.is_none() && (self.dupacks >= 3 || sack_trigger) {
                self.enter_recovery(now);
            } else if self.recovery_high.is_some() && self.high_sacked > self.snd_una {
                // More SACK information arrived mid-recovery.
                self.inflight.queue_holes(self.high_sacked);
            }
        }
    }

    fn process_data(&mut self, now: SimTime, seg: &Segment, outcome: &mut SegmentOutcome) {
        if seg.flags.fin {
            self.fin_rcv_seq = Some(seg.seq + seg.payload as u64);
        }
        let seg_end = seg.seq_end();
        if seg_end <= self.rcv_nxt {
            // Stale duplicate: re-ACK immediately so the peer converges.
            self.ts_to_echo = Some(seg.ts_val);
            let ack = self.make_ack(now);
            self.out.push_back(ack);
            return;
        }
        if seg.seq == self.rcv_nxt {
            self.ts_to_echo = Some(seg.ts_val);
            let had_ooo = !self.ooo.is_empty();
            // Advance past the payload only; the FIN (if any) is consumed
            // below once the stream is contiguous up to it.
            self.rcv_nxt = seg.seq + seg.payload as u64;
            // Drain any out-of-order backlog now contiguous.
            while let Some((_, end)) = self.ooo.pop_reaching(self.rcv_nxt) {
                self.rcv_nxt = self.rcv_nxt.max(end);
            }
            let fresh = self.rcv_nxt - seg.seq;
            if fresh > 0 {
                outcome.delivered = Some(DeliveredRange {
                    seq: seg.seq,
                    len: fresh as u32,
                });
                self.bytes_delivered_total += fresh;
            }
            // FIN consumption.
            if let Some(fs) = self.fin_rcv_seq {
                if self.rcv_nxt == fs {
                    self.rcv_nxt += 1;
                    self.fin_received = true;
                }
            }
            // Filling a hole must be acknowledged at once (RFC 5681 §4.2) so
            // the sender exits recovery promptly.
            if had_ooo {
                self.pending_acks = 0;
                self.delack_deadline = None;
                let ack = self.make_ack(now);
                self.out.push_back(ack);
            } else {
                self.schedule_ack(now, seg.payload);
            }
        } else {
            // Out of order: buffer (coalescing) and send an immediate
            // duplicate ACK.
            self.ooo.insert(seg.seq, seg.seq + seg.payload as u64);
            let ack = self.make_ack(now);
            self.out.push_back(ack);
        }
    }

    fn schedule_ack(&mut self, now: SimTime, _payload: u32) {
        self.pending_acks += 1;
        let force =
            self.pending_acks >= 2 || self.fin_received || self.state != TcpState::Established;
        if force {
            self.pending_acks = 0;
            self.delack_deadline = None;
            let ack = self.make_ack(now);
            self.out.push_back(ack);
        } else if self.delack_deadline.is_none() {
            self.delack_deadline = Some(now + DELACK_TIMEOUT);
        }
    }

    fn advertised_rwnd(&self) -> u64 {
        self.cfg.rwnd_bytes.saturating_sub(self.ooo.bytes())
    }

    /// Pick three SACK ranges from the (already coalesced) out-of-order
    /// store, rotating a sequence-number cursor across ACKs so the sender's
    /// scoreboard converges even when the store holds many more ranges than
    /// fit in the option space.
    fn sack_blocks(&mut self) -> [Option<(u64, u64)>; 3] {
        let mut blocks: [Option<(u64, u64)>; 3] = [None; 3];
        if self.ooo.is_empty() {
            return blocks;
        }
        let mut cursor = self.sack_cursor;
        for i in 0..3 {
            let next = self
                .ooo
                .first_from(cursor)
                .or_else(|| self.ooo.first_from(0));
            match next {
                Some((s, e)) => {
                    // Wrapped onto a range already picked: fewer than three
                    // distinct ranges exist.
                    if blocks.iter().flatten().any(|&(bs, _)| bs == s) {
                        break;
                    }
                    blocks[i] = Some((s, e));
                    cursor = e + 1;
                }
                None => break,
            }
        }
        self.sack_cursor = cursor;
        blocks
    }

    fn make_ack(&mut self, now: SimTime) -> Segment {
        let mut seg = Segment::empty(now);
        seg.seq = self.snd_nxt;
        seg.flags.ack = true;
        seg.ack = self.rcv_nxt;
        seg.rwnd = self.advertised_rwnd();
        seg.ts_ecr = self.ts_to_echo;
        for (start, end) in self.sack_blocks().into_iter().flatten() {
            // Only a peer sending beyond the window can leave a range more
            // than 4 GiB above the cumulative ack; that block is omitted.
            let _ = seg.push_sack(start, end);
        }
        seg
    }

    // ------------------------------------------------------------------
    // transmit path
    // ------------------------------------------------------------------

    /// Next segment to put on the wire, or `None` when the endpoint has
    /// nothing (sendable) pending. Call repeatedly after every event.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Segment> {
        // 1. Queued control segments (ACKs, handshake).
        if let Some(mut seg) = self.out.pop_front() {
            seg.rwnd = self.advertised_rwnd();
            if seg.mp_prio.is_none() {
                seg.mp_prio = self.pending_mp_prio.take();
            }
            return Some(seg);
        }
        // 2. Retransmissions — including SYN/SYN-ACK retransmissions while
        //    the handshake is still in flight. The first hole always goes
        //    out; the rest respect the SACK pipe so a large recovery
        //    doesn't re-burst into the bottleneck queue. Nothing SACKed or
        //    acknowledged since it was queued is still queued, so the lowest
        //    queued sequence is either sent or left exactly where it is.
        let ready = self
            .inflight
            .next_retx()
            .filter(|&seq| seq <= self.snd_una || self.pipe() < self.cc.cwnd());
        if let Some((seq, entry)) = ready.and_then(|_| self.inflight.retransmit(now)) {
            let mut seg = Segment::empty(now);
            seg.seq = seq;
            seg.payload = entry.payload;
            seg.flags.syn = entry.syn;
            seg.flags.fin = entry.fin;
            seg.flags.ack = true;
            seg.ack = self.rcv_nxt;
            seg.rwnd = self.advertised_rwnd();
            seg.ts_ecr = self.ts_to_echo;
            seg.retransmit = true;
            seg.mp_prio = self.pending_mp_prio.take();
            self.retransmissions += 1;
            self.scope.emit(now, |s| TraceEvent::Retransmit {
                conn: s.conn,
                subflow: s.subflow,
                seq: seg.seq,
                len: seg.payload,
                kind: if self.recovery_high.is_some() {
                    "fast"
                } else {
                    "rto"
                },
            });
            self.scope.with_metrics(|s, m| {
                let names = self.metric_names.get_or_insert_with(|| MetricNames::of(s));
                m.counter_add(&names.retransmits, 1)
            });
            self.last_activity = now;
            if self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
            return Some(seg);
        }

        if self.state != TcpState::Established {
            return None;
        }

        // 3. New data, within min(cwnd, peer window). RFC 2861 validation
        //    decays a copy of the controller over the whole idle interval
        //    and the copy is committed only together with an emission, so a
        //    poll that returns `None` leaves the endpoint untouched.
        let stream_end = 1 + self.app_bytes;
        let can_send_fin = self.fin_queued && self.snd_nxt == stream_end;
        if self.snd_nxt < stream_end || can_send_fin {
            let cc = self.cc_after_idle(now);
            let window = cc.cwnd().min(self.peer_rwnd);
            let in_flight = self.pipe();
            if in_flight >= window && !can_send_fin {
                return None;
            }
            let budget = window.saturating_sub(in_flight);
            let available = stream_end - self.snd_nxt;
            let payload = available.min(self.cfg.mss as u64).min(budget) as u32;
            // Sender-side SWS avoidance (RFC 1122 §4.2.3.4): a segment is
            // short only as the last of the data written or into an empty
            // pipe. Otherwise it waits for the next ACK, which the data in
            // flight guarantees, to make room for a whole one.
            if payload < self.cfg.mss && (payload as u64) < available && in_flight > 0 {
                return None;
            }
            let fin_now = self.fin_queued && self.snd_nxt + payload as u64 == stream_end;
            if payload == 0 && !fin_now {
                return None;
            }
            self.cc = cc;
            let mut seg = Segment::empty(now);
            seg.seq = self.snd_nxt;
            seg.payload = payload;
            seg.flags.ack = true;
            seg.flags.fin = fin_now;
            seg.ack = self.rcv_nxt;
            seg.rwnd = self.advertised_rwnd();
            seg.ts_ecr = self.ts_to_echo;
            seg.mp_prio = self.pending_mp_prio.take();
            self.inflight
                .push(self.snd_nxt, SentSeg::new(payload, false, fin_now, now));
            self.snd_nxt += seg.seq_space();
            self.bytes_sent_total += payload as u64;
            if payload > 0 {
                self.data_segments += 1;
                self.runts += u64::from(payload < self.cfg.mss && (payload as u64) < available);
            }
            if self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
            self.last_activity = now;
            return Some(seg);
        }
        None
    }

    /// RFC 2861 congestion-window validation: the controller as it stands
    /// once the idle interval ending at `now` is accounted for — halved
    /// once per RTO since the last send or receive, while nothing is in
    /// flight. A pure function of elapsed time; the one caller commits it
    /// at the moment new data leaves.
    fn cc_after_idle(&self, now: SimTime) -> CongestionCtrl {
        let mut cc = self.cc;
        if self.cfg.cwnd_validation && self.inflight.is_empty() && self.bytes_sent_total > 0 {
            let idle = now.saturating_since(self.last_activity);
            let rto = self.rtt.rto();
            if idle > rto {
                let periods = (idle.as_nanos() / rto.as_nanos().max(1)).min(u32::MAX as u64);
                cc.restart_after_idle(periods as u32);
            }
        }
        cc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimDuration;

    /// Deliver every pending segment of `from` into `to`, stepping time by
    /// `half_rtt` per direction; returns segments moved.
    fn pump(
        now: &mut SimTime,
        half_rtt: SimDuration,
        from: &mut TcpEndpoint,
        to: &mut TcpEndpoint,
    ) -> usize {
        let mut moved = 0;
        from.on_deadline(*now);
        let mut segs = Vec::new();
        while let Some(seg) = from.poll_transmit(*now) {
            segs.push(seg);
        }
        *now += half_rtt;
        to.on_deadline(*now);
        for seg in segs {
            to.on_segment(*now, seg);
            moved += 1;
        }
        moved
    }

    fn handshake(now: &mut SimTime, client: &mut TcpEndpoint, server: &mut TcpEndpoint) {
        let half = SimDuration::from_millis(10);
        client.connect(*now);
        pump(now, half, client, server); // SYN
        pump(now, half, server, client); // SYN-ACK
        pump(now, half, client, server); // ACK
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
    }

    #[test]
    fn three_way_handshake() {
        let mut now = SimTime::ZERO;
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        // Handshake RTT (20 ms round trip) recorded at the client.
        let hs = c.rtt().handshake_rtt().unwrap();
        assert_eq!(hs, SimDuration::from_millis(20));
        assert!(s.rtt().handshake_rtt().is_some());
    }

    #[test]
    fn bulk_transfer_delivers_everything() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(10);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);

        let total: u64 = 1_000_000;
        s.write(total);
        let mut delivered = 0u64;
        for _ in 0..200 {
            s.on_deadline(now);
            c.on_deadline(now);
            let mut segs = Vec::new();
            while let Some(seg) = s.poll_transmit(now) {
                segs.push(seg);
            }
            now += half;
            for seg in segs {
                let out = c.on_segment(now, seg);
                delivered += out.delivered.iter().map(|r| r.len as u64).sum::<u64>();
            }
            pump(&mut now, half, &mut c, &mut s); // ACKs back
            if delivered == total {
                break;
            }
        }
        // Flush the final delayed ACK.
        now += SimDuration::from_millis(50);
        pump(&mut now, half, &mut c, &mut s);
        assert_eq!(delivered, total);
        assert_eq!(c.bytes_delivered_total(), total);
        assert_eq!(s.bytes_acked_total(), total);
        assert_eq!(s.retransmissions(), 0);
    }

    #[test]
    fn a_short_segment_is_the_end_of_the_data_never_the_window() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(10);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        // An open window: the short segment is the end of what was written.
        s.write(3_000);
        let segs: Vec<Segment> = std::iter::from_fn(|| s.poll_transmit(now)).collect();
        assert_eq!(
            segs.iter().map(|seg| seg.payload).collect::<Vec<_>>(),
            [1428, 1428, 144]
        );
        assert_eq!((s.data_segments(), s.runts()), (3, 0));

        // From here the peer offers 10 000 B: seven segments and 4 B over.
        // The 4 B are never filled while data is in flight, and refusing
        // them changes nothing.
        let total = 3_000 + 200_000;
        s.write(200_000);
        let mut down = segs;
        let mut payloads = Vec::new();
        while c.bytes_delivered_total() < total {
            now += half;
            for seg in down.drain(..) {
                c.on_segment(now, seg);
            }
            c.on_deadline(now);
            for mut ack in std::iter::from_fn(|| c.poll_transmit(now)) {
                ack.rwnd = 10_000;
                s.on_segment(now + half, ack);
            }
            now += half;
            s.on_deadline(now);
            down.extend(std::iter::from_fn(|| s.poll_transmit(now)));
            payloads.extend(down.iter().map(|seg| seg.payload).filter(|&n| n > 0));
            let refused = format!("{s:?}");
            assert!(s.poll_transmit(now).is_none());
            assert_eq!(format!("{s:?}"), refused);
            assert!(now < SimTime::from_secs(60), "stalled");
        }
        let (tail, body) = payloads.split_last().expect("data was sent");
        assert!(body.iter().all(|&n| n == 1428), "{body:?}");
        assert_eq!(*tail as u64, 200_000 % 1428);
        assert_eq!(s.runts(), 0);
        assert_eq!(s.data_segments(), 3 + 200_000u64.div_ceil(1428));
    }

    #[test]
    fn slow_start_growth_visible() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(10);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(10_000_000);
        let w0 = s.cc().cwnd();
        for _ in 0..6 {
            pump(&mut now, half, &mut s, &mut c);
            pump(&mut now, half, &mut c, &mut s);
        }
        assert!(s.cc().cwnd() > 4 * w0, "cwnd didn't grow in slow start");
    }

    #[test]
    fn fast_retransmit_recovers_single_loss() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(5);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(200_000);

        let mut first_data = true;
        let mut delivered = 0u64;
        for _round in 0..400 {
            s.on_deadline(now);
            c.on_deadline(now);
            let mut segs = Vec::new();
            while let Some(seg) = s.poll_transmit(now) {
                segs.push(seg);
            }
            now += half;
            for seg in segs {
                if first_data && seg.payload > 0 {
                    first_data = false; // drop the very first data segment
                    continue;
                }
                let out = c.on_segment(now, seg);
                delivered += out.delivered.iter().map(|r| r.len as u64).sum::<u64>();
            }
            pump(&mut now, half, &mut c, &mut s);
            if delivered == 200_000 {
                break;
            }
        }
        assert_eq!(delivered, 200_000);
        assert!(s.retransmissions() >= 1);
    }

    #[test]
    fn rto_recovers_total_blackout_of_window() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(5);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(20_000);

        // Drop the entire first flight.
        while s.poll_transmit(now).is_some() {}
        // Let the RTO fire.
        let deadline = s.next_deadline().expect("rto armed");
        now = deadline;
        s.on_deadline(now);
        let mut delivered = 0u64;
        for _ in 0..400 {
            s.on_deadline(now);
            c.on_deadline(now);
            let mut segs = Vec::new();
            while let Some(seg) = s.poll_transmit(now) {
                segs.push(seg);
            }
            now += half;
            for seg in segs {
                let out = c.on_segment(now, seg);
                delivered += out.delivered.iter().map(|r| r.len as u64).sum::<u64>();
            }
            pump(&mut now, half, &mut c, &mut s);
            if delivered == 20_000 {
                break;
            }
            // Fire timers if the connection stalls.
            if let Some(d) = s.next_deadline() {
                if d > now {
                    now = d;
                }
                s.on_deadline(now);
            }
        }
        assert_eq!(delivered, 20_000);
        assert!(s.retransmissions() >= 1);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(5);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(5 * 1428);
        let mut segs = Vec::new();
        while let Some(seg) = s.poll_transmit(now) {
            segs.push(seg);
        }
        assert!(segs.len() >= 3);
        segs.reverse(); // deliver in reverse order
        now += half;
        let mut delivered = 0u64;
        for seg in segs {
            let out = c.on_segment(now, seg);
            delivered += out.delivered.iter().map(|r| r.len as u64).sum::<u64>();
        }
        assert_eq!(delivered, 5 * 1428);
    }

    #[test]
    fn each_arrival_delivers_one_range_the_rcv_nxt_advance_less_the_fin() {
        let mut now = SimTime::ZERO;
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(6 * 1428);
        s.close();
        let segs: Vec<Segment> = std::iter::from_fn(|| s.poll_transmit(now)).collect();
        assert_eq!(segs.len(), 6);
        assert!(segs[5].flags.fin, "the last segment carries the FIN");
        now += SimDuration::from_millis(5);
        // Holes at 1 and 4; segment 1 releases 2 and 3, segment 4 releases
        // 5 and the FIN; a duplicate of 0 delivers nothing.
        let mut lens = Vec::new();
        for idx in [0usize, 2, 3, 5, 1, 0, 4] {
            let before = c.rcv_nxt;
            let fin_before = c.fin_received();
            let out = c.on_segment(now, segs[idx]);
            let advance = c.rcv_nxt - before - u64::from(c.fin_received() && !fin_before);
            match out.delivered {
                Some(range) => {
                    assert_eq!(
                        (range.seq, range.len as u64),
                        (before, advance),
                        "segment {idx}"
                    );
                    lens.push(range.len);
                }
                None => assert_eq!(advance, 0, "segment {idx}"),
            }
        }
        assert_eq!(lens, [1428, 3 * 1428, 2 * 1428]);
        assert!(c.fin_received());
        assert_eq!(c.bytes_delivered_total(), 6 * 1428);
    }

    #[test]
    fn fin_closes_cleanly() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(5);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(1000);
        s.close();
        c.close();
        for _ in 0..20 {
            pump(&mut now, half, &mut s, &mut c);
            pump(&mut now, half, &mut c, &mut s);
        }
        assert!(c.fin_received());
        assert_eq!(c.bytes_delivered_total(), 1000);
        assert!(s.fully_closed());
    }

    #[test]
    fn mp_prio_rides_next_segment() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(5);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        c.send_mp_prio(now, true);
        let seg = c.poll_transmit(now).expect("carrier segment");
        assert_eq!(seg.mp_prio, Some(true));
        now += half;
        let out = s.on_segment(now, seg);
        assert_eq!(out.mp_prio, Some(true));
    }

    /// Run a 500 kB transfer and stop the instant everything is acked,
    /// returning the grown congestion window.
    fn transfer_until_acked(
        now: &mut SimTime,
        c: &mut TcpEndpoint,
        s: &mut TcpEndpoint,
        total: u64,
    ) -> u64 {
        let half = SimDuration::from_millis(10);
        s.write(total);
        for _ in 0..500 {
            pump(now, half, s, c);
            pump(now, half, c, s);
            if s.bytes_acked_total() == total {
                break;
            }
        }
        assert_eq!(s.bytes_acked_total(), total, "transfer must finish");
        s.cc().cwnd()
    }

    #[test]
    fn cwnd_validation_resets_after_idle() {
        let mut now = SimTime::ZERO;
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        let grown = transfer_until_acked(&mut now, &mut c, &mut s, 500_000);
        assert!(grown > s.cc().initial_cwnd());
        // Idle for much longer than the RTO, then offer new data.
        now += SimDuration::from_secs(30);
        s.write(1428);
        let _ = s.poll_transmit(now);
        assert_eq!(s.cc().cwnd(), s.cc().initial_cwnd(), "cwnd restarted");
    }

    #[test]
    fn resume_disables_validation_and_zeroes_rtt() {
        let mut now = SimTime::ZERO;
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        let grown = transfer_until_acked(&mut now, &mut c, &mut s, 500_000);
        assert!(grown > s.cc().initial_cwnd());
        s.prepare_resume();
        assert_eq!(s.rtt().srtt_or_zero(), SimDuration::ZERO);
        now += SimDuration::from_secs(30);
        s.write(1428);
        let _ = s.poll_transmit(now);
        assert_eq!(s.cc().cwnd(), grown, "cwnd preserved across idle");
    }

    #[test]
    fn receiver_window_respected() {
        let mut now = SimTime::ZERO;
        let _half = SimDuration::from_millis(10);
        let cfg_small = TcpConfig {
            rwnd_bytes: 10_000,
            ..TcpConfig::default()
        };
        let mut c = TcpEndpoint::client(cfg_small);
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(1_000_000);
        let mut burst = 0u64;
        while let Some(seg) = s.poll_transmit(now) {
            burst += seg.payload as u64;
        }
        assert!(
            burst <= 10_000 + 1428,
            "sender overran peer window: {burst}"
        );
    }

    #[test]
    fn delayed_ack_coalesces() {
        let mut now = SimTime::ZERO;
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        let half = SimDuration::from_millis(5);
        handshake(&mut now, &mut c, &mut s);
        s.write(2 * 1428);
        let mut segs = Vec::new();
        while let Some(seg) = s.poll_transmit(now) {
            segs.push(seg);
        }
        now += half;
        for seg in segs {
            c.on_segment(now, seg);
        }
        // Two full segments ⇒ exactly one ACK.
        let mut acks = 0;
        while let Some(seg) = c.poll_transmit(now) {
            assert!(seg.is_pure_ack());
            acks += 1;
        }
        assert_eq!(acks, 1);
    }

    /// Drive a transfer where a known run of segments is dropped, then
    /// inspect the SACK-level mechanics directly.
    #[test]
    fn sack_blocks_report_coalesced_ranges() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(5);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(8 * 1428);
        let mut segs = Vec::new();
        while let Some(seg) = s.poll_transmit(now) {
            segs.push(seg);
        }
        assert_eq!(segs.len(), 8);
        now += half;
        // Deliver segments 2,3 and 6 only: two out-of-order islands.
        for idx in [2usize, 3, 6] {
            c.on_segment(now, segs[idx]);
        }
        // One duplicate ACK per out-of-order arrival; the last one carries
        // the complete picture.
        let mut last_ack = None;
        while let Some(a) = c.poll_transmit(now) {
            last_ack = Some(a);
        }
        let ack = last_ack.expect("dup acks");
        let mut blocks: Vec<(u64, u64)> = ack.sack_blocks().collect();
        blocks.sort_unstable();
        // Segments 2..=3 coalesce into one block; 6 stands alone. (The
        // rotation cursor means the on-wire order varies.)
        assert_eq!(
            blocks,
            vec![(1 + 2 * 1428, 1 + 4 * 1428), (1 + 6 * 1428, 1 + 7 * 1428)]
        );
    }

    #[test]
    fn sack_marks_and_pipe_shrink() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(5);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(6 * 1428);
        let mut segs = Vec::new();
        while let Some(seg) = s.poll_transmit(now) {
            segs.push(seg);
        }
        let inflight = s.bytes_in_flight();
        assert_eq!(s.pipe(), inflight);
        now += half;
        // Lose segment 0; deliver 1..=5.
        for seg in &segs[1..] {
            c.on_segment(now, *seg);
        }
        let mut acks = Vec::new();
        while let Some(a) = c.poll_transmit(now) {
            acks.push(a);
        }
        now += half;
        for a in acks {
            s.on_segment(now, a);
        }
        // Everything but the lost head is SACKed; recovery marked the head
        // lost, so the pipe excludes both.
        assert!(s.pipe() < inflight / 3, "pipe {} of {}", s.pipe(), inflight);
        assert!(
            s.bytes_in_flight() == inflight,
            "cumulative ack must not move"
        );
    }

    #[test]
    fn sack_recovery_retransmits_only_the_hole() {
        let mut now = SimTime::ZERO;
        let half = SimDuration::from_millis(5);
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        handshake(&mut now, &mut c, &mut s);
        s.write(6 * 1428);
        let mut segs = Vec::new();
        while let Some(seg) = s.poll_transmit(now) {
            segs.push(seg);
        }
        now += half;
        for seg in &segs[1..] {
            c.on_segment(now, *seg);
        }
        let mut acks = Vec::new();
        while let Some(a) = c.poll_transmit(now) {
            acks.push(a);
        }
        now += half;
        for a in acks {
            s.on_segment(now, a);
        }
        // The retransmission must be exactly the missing head segment.
        let retx = s.poll_transmit(now).expect("hole retransmission");
        assert!(retx.retransmit);
        assert_eq!(retx.seq, segs[0].seq);
        assert_eq!(retx.payload, segs[0].payload);
        // And nothing else needs retransmitting.
        let next = s.poll_transmit(now);
        assert!(
            next.is_none() || !next.unwrap().retransmit,
            "spurious extra retransmission"
        );
        assert_eq!(s.retransmissions(), 1);
    }

    #[test]
    fn single_segment_ack_is_delayed_until_timer() {
        let mut now = SimTime::ZERO;
        let mut c = TcpEndpoint::client(TcpConfig::default());
        let mut s = TcpEndpoint::listener(TcpConfig::default());
        let half = SimDuration::from_millis(5);
        handshake(&mut now, &mut c, &mut s);
        s.write(100);
        let seg = s.poll_transmit(now).unwrap();
        now += half;
        c.on_segment(now, seg);
        assert!(c.poll_transmit(now).is_none(), "ack must be delayed");
        let d = c.next_deadline().expect("delack timer armed");
        c.on_deadline(d);
        let ack = c.poll_transmit(d).expect("delayed ack fires");
        assert!(ack.is_pure_ack());
    }
}
