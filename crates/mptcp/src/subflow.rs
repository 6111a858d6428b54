//! One subflow: a TCP endpoint plus MPTCP bookkeeping.
//!
//! A subflow owns its [`TcpEndpoint`] and the two mapping tables that tie
//! the subflow byte stream to the connection-level data stream (both
//! run-length, see [`crate::mapping`]):
//!
//! * `tx_mappings` — mappings this side created when scheduling data onto
//!   the subflow (consulted when a segment is emitted, to attach its DSS);
//! * `rx_mappings` — mappings received in DSS options (consulted when the
//!   TCP layer delivers subflow bytes in order, to translate them back to
//!   data sequence space).

use crate::mapping::{RxMappings, TxMappings};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::{Dss, Segment, TcpConfig, TcpEndpoint, TcpState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a subflow within one MPTCP connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct SubflowId(pub u8);

impl fmt::Display for SubflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sf{}", self.0)
    }
}

/// One side's view of one subflow.
#[derive(Clone, Debug)]
pub struct Subflow {
    /// Subflow identity (same on both ends).
    pub id: SubflowId,
    /// The interface this subflow rides on (device side).
    pub iface: IfaceKind,
    /// The TCP machinery.
    pub tcp: TcpEndpoint,
    /// Local view of the subflow's priority: backup subflows receive no new
    /// data while a regular subflow is available.
    pub backup: bool,
    /// The underlying interface is down (e.g. the WiFi association was
    /// lost). A down subflow is never scheduled; its in-flight data is
    /// rescued by RTO-triggered reinjection.
    pub link_down: bool,
    /// Failure detection declared this subflow dead: its retransmission
    /// timer expired [`MpConnection::set_failure_threshold`] times in a row
    /// without `snd_una` moving. A dead subflow is never scheduled, but its
    /// TCP machine keeps probing — an acknowledgement revives it.
    pub dead: bool,
    /// Sender-side: subflow-seq → data-seq for data scheduled here.
    tx_mappings: TxMappings,
    /// Receiver-side: mappings learned from arriving DSS options.
    pub(crate) rx_mappings: RxMappings,
    /// The most runs either table ever held at once.
    mapping_high_water: usize,
    /// Next subflow stream position for newly scheduled data
    /// (1 = first byte after the SYN).
    push_seq: u64,
    /// RTO expirations since `snd_una` last advanced (failure detection).
    pub(crate) consecutive_rtos: u64,
    /// The stall clock for opportunistic reinjection, stamped where the
    /// facts occur: when an ACK advances `snd_una`, and when an emission
    /// puts data in flight on an empty pipe.
    pub(crate) stall_since: SimTime,
    /// This stall already reinjected (once per stall; cleared by the next
    /// `snd_una` advance).
    pub(crate) stall_reinjected: bool,
}

impl Subflow {
    /// A client-side (active-open) subflow.
    pub fn client(id: SubflowId, iface: IfaceKind, cfg: TcpConfig) -> Self {
        Self::new(id, iface, TcpEndpoint::client(cfg))
    }

    /// A server-side (passive-open) subflow.
    pub fn listener(id: SubflowId, iface: IfaceKind, cfg: TcpConfig) -> Self {
        Self::new(id, iface, TcpEndpoint::listener(cfg))
    }

    fn new(id: SubflowId, iface: IfaceKind, tcp: TcpEndpoint) -> Self {
        Subflow {
            id,
            iface,
            tcp,
            backup: false,
            link_down: false,
            dead: false,
            tx_mappings: TxMappings::default(),
            rx_mappings: RxMappings::default(),
            mapping_high_water: 0,
            push_seq: 1,
            consecutive_rtos: 0,
            stall_since: SimTime::ZERO,
            stall_reinjected: false,
        }
    }

    /// Schedule `len` connection bytes starting at `data_seq` onto this
    /// subflow; the TCP layer will emit them as soon as its window allows.
    pub fn push_data(&mut self, data_seq: u64, len: u32) {
        self.tx_mappings.push(self.push_seq, data_seq, len);
        self.mapping_high_water = self.mapping_high_water.max(self.tx_mappings.len());
        self.push_seq += len as u64;
        self.tcp.write(len as u64);
    }

    /// Record a mapping received in a DSS option.
    pub fn learn_mapping(&mut self, subflow_seq: u64, dss: Dss) {
        self.rx_mappings.learn(subflow_seq, dss);
        self.mapping_high_water = self.mapping_high_water.max(self.rx_mappings.len());
    }

    /// The most entries either mapping table ever held at once: O(scheduler
    /// bursts in flight), not O(segments in flight).
    pub fn mapping_high_water(&self) -> usize {
        self.mapping_high_water
    }

    /// The DSS for an outgoing data segment covering `[seq, seq+len)`.
    fn dss_for_tx(&self, seq: u64, len: u32, data_ack: u64) -> Option<Dss> {
        self.tx_mappings.dss(seq, len, data_ack)
    }

    /// Call `visit(data_seq, len)` for each data range scheduled here but
    /// not yet acknowledged at the subflow level, chunked as it was
    /// scheduled — the candidates for reinjection when this subflow
    /// times out.
    pub fn for_each_unacked(&self, visit: impl FnMut(u64, u32)) {
        self.tx_mappings.for_each_unacked(self.tcp.snd_una(), visit);
    }

    /// Drop sender mappings fully acknowledged at the subflow level, and
    /// receiver mappings fully delivered.
    pub fn gc_mappings(&mut self) {
        self.tx_mappings.gc(self.tcp.snd_una());
        self.rx_mappings.gc(1 + self.tcp.bytes_delivered_total());
    }

    /// Window room: how many more bytes TCP could take right now.
    pub fn send_room(&self) -> u64 {
        self.tcp
            .send_window()
            .saturating_sub(self.tcp.bytes_in_flight())
    }

    /// The subflow is usable for traffic: established, link up, and not
    /// declared dead by failure detection.
    pub fn usable(&self) -> bool {
        !self.link_down && !self.dead && self.tcp.state() == TcpState::Established
    }

    /// Eligible to be handed new data: usable, its scheduled backlog fully
    /// emitted, and — the whole-segment rule (RFC 1122 §4.2.3.4) — room
    /// for a full segment, or an empty pipe, or room for all `left` bytes
    /// the connection still has to schedule. Otherwise the data waits for
    /// the next ACK, which the bytes in flight guarantee.
    pub fn can_take_data(&self, left: u64) -> bool {
        let room = self.send_room();
        self.usable()
            && self.tcp.send_backlog() == 0
            && room > 0
            && (room >= self.tcp.config().mss as u64
                || self.tcp.bytes_in_flight() == 0
                || left <= room)
    }

    /// Apply the §3.6 resume tweaks to this side's endpoint.
    pub fn prepare_resume(&mut self) {
        self.tcp.prepare_resume();
    }

    /// Decorate an outgoing segment: attach the DSS (mapping for data, or a
    /// bare data-ack), honoring `mp_prio` already set by the TCP layer.
    fn decorate(&mut self, seg: &mut Segment, data_ack: u64) {
        if seg.payload > 0 {
            seg.dss = self.dss_for_tx(seg.seq, seg.payload, data_ack);
            debug_assert!(
                seg.dss.is_some() || seg.flags.syn,
                "data segment without a mapping: seq={} len={}",
                seg.seq,
                seg.payload
            );
        } else if !seg.flags.syn {
            // Pure ACKs still carry the connection-level data ack.
            seg.dss = Some(Dss {
                data_seq: 0,
                len: 0,
                data_ack,
            });
        }
    }

    /// The TCP layer's next segment, decorated. An emission that puts data
    /// in flight on an empty pipe starts the stall clock: nothing was
    /// waiting for an ACK before it, however long ago the last one came.
    pub(crate) fn emit(&mut self, now: SimTime, data_ack: u64) -> Option<Segment> {
        let pipe_was_empty = self.tcp.bytes_in_flight() == 0;
        let mut seg = self.tcp.poll_transmit(now)?;
        if pipe_was_empty && self.tcp.bytes_in_flight() > 0 {
            self.restart_stall_clock(now);
        }
        self.decorate(&mut seg, data_ack);
        Some(seg)
    }

    /// Start a new stall: called when `snd_una` advances and when data
    /// enters an empty pipe.
    pub(crate) fn restart_stall_clock(&mut self, now: SimTime) {
        self.stall_since = now;
        self.stall_reinjected = false;
    }

    /// When this subflow's unacknowledged data will have gone two of its
    /// RTTs (at least 300 ms) without `snd_una` moving; `None` while it
    /// holds no unacked data or once this stall has reinjected.
    pub(crate) fn stall_expiry(&self) -> Option<SimTime> {
        let stalling = self.tcp.state() == TcpState::Established
            && self.tcp.bytes_in_flight() > 0
            && !self.stall_reinjected;
        let threshold = (self.tcp.rtt().srtt_or_zero() * 2).max(SimDuration::from_millis(300));
        stalling.then(|| self.stall_since + threshold)
    }

    /// Timestamp of the last TCP-level activity.
    pub fn last_activity(&self) -> SimTime {
        self.tcp.last_activity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subflow() -> Subflow {
        Subflow::client(SubflowId(0), IfaceKind::Wifi, TcpConfig::default())
    }

    #[test]
    fn push_creates_contiguous_mappings() {
        let mut sf = subflow();
        sf.push_data(0, 1000);
        sf.push_data(1000, 500);
        let dss = sf.dss_for_tx(1, 1000, 7).unwrap();
        assert_eq!(dss.data_seq, 0);
        assert_eq!(dss.data_ack, 7);
        let dss2 = sf.dss_for_tx(1001, 500, 7).unwrap();
        assert_eq!(dss2.data_seq, 1000);
    }

    #[test]
    fn tx_lookup_with_offset() {
        let mut sf = subflow();
        sf.push_data(5000, 1428);
        // A partial segment in the middle of the mapping.
        let dss = sf.dss_for_tx(1 + 400, 500, 0).unwrap();
        assert_eq!(dss.data_seq, 5400);
        assert_eq!(dss.len, 500);
        // Beyond the mapping: None.
        assert!(sf.dss_for_tx(1 + 1000, 1000, 0).is_none());
    }

    #[test]
    fn rx_translation() {
        let mut sf = subflow();
        sf.learn_mapping(
            1,
            Dss {
                data_seq: 9000,
                len: 1428,
                data_ack: 0,
            },
        );
        assert_eq!(sf.rx_mappings.translated(1, 1428), vec![(9000, 1428)]);
        assert_eq!(sf.rx_mappings.translated(101, 100), vec![(9100, 100)]);
        assert!(sf.rx_mappings.translated(2000, 10).is_empty());
    }

    #[test]
    fn rx_translation_spans_mappings() {
        let mut sf = subflow();
        sf.learn_mapping(
            1,
            Dss {
                data_seq: 9000,
                len: 1000,
                data_ack: 0,
            },
        );
        // Non-contiguous data sequence for the adjacent subflow range
        // (e.g. a reinjected chunk).
        sf.learn_mapping(
            1001,
            Dss {
                data_seq: 50_000,
                len: 500,
                data_ack: 0,
            },
        );
        let ranges = sf.rx_mappings.translated(1, 1500);
        assert_eq!(ranges, vec![(9000, 1000), (50_000, 500)]);
    }

    #[test]
    fn zero_length_dss_not_learned() {
        let mut sf = subflow();
        sf.learn_mapping(
            1,
            Dss {
                data_seq: 0,
                len: 0,
                data_ack: 55,
            },
        );
        assert!(sf.rx_mappings.translated(1, 1).is_empty());
    }

    #[test]
    fn unacked_ranges_track_snd_una() {
        let mut sf = subflow();
        sf.push_data(0, 1000);
        sf.push_data(1000, 1000);
        // Nothing sent yet: snd_una = 0 (pre-handshake), everything unacked.
        let mut ranges = Vec::new();
        sf.for_each_unacked(|seq, len| ranges.push((seq, len)));
        assert_eq!(ranges, [(0, 1000), (1000, 1000)]);
    }

    #[test]
    fn decorate_pure_ack_carries_data_ack() {
        let mut sf = subflow();
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.flags.ack = true;
        sf.decorate(&mut seg, 12345);
        assert_eq!(seg.dss.unwrap().data_ack, 12345);
        assert_eq!(seg.dss.unwrap().len, 0);
    }
}
