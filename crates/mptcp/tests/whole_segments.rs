//! The whole-segment rule's three admitting conditions, one case each on
//! a loopback pair: room for less than one MSS behind data in flight is
//! refused — even when every other subflow is window-full, as a `None`
//! poll that changes nothing — and the next ACK releases a whole segment;
//! an empty pipe sends into a window below one MSS; the last bytes of
//! the stream leave without waiting.

use emptcp_mptcp::{MpConnection, Role, SubflowId};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::{Segment, TcpConfig};

const HALF: SimDuration = SimDuration::from_millis(10);

/// Client and server connections whose segments cross with a fixed
/// one-way delay.
struct Pair {
    now: SimTime,
    client: MpConnection,
    server: MpConnection,
}

impl Pair {
    fn new(ifaces: &[IfaceKind]) -> Pair {
        let mut client = MpConnection::new(Role::Client, TcpConfig::default());
        let mut server = MpConnection::new(Role::Server, TcpConfig::default());
        for &iface in ifaces {
            client.add_subflow(SimTime::ZERO, iface);
            server.add_subflow(SimTime::ZERO, iface);
        }
        Pair {
            now: SimTime::ZERO,
            client,
            server,
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
        let segs: Vec<_> = std::iter::from_fn(|| a.poll_transmit(self.now)).collect();
        self.now += HALF;
        b.on_deadline(self.now);
        for (id, seg) in segs {
            b.on_segment(self.now, id, seg);
        }
    }

    /// `n` round trips: server to client, then back.
    fn rounds(&mut self, n: usize) {
        for _ in 0..n {
            self.flow(true);
            self.flow(false);
        }
    }

    fn run_until_delivered(&mut self, total: u64) {
        while self.client.bytes_delivered() < total {
            self.rounds(1);
            assert!(self.now < SimTime::from_secs(60), "stalled");
        }
    }
}

/// Established subflows with grown windows and empty pipes, the
/// server holding `written` bytes to send.
fn warmed_pair(ifaces: &[IfaceKind], written: u64) -> Pair {
    let mut p = Pair::new(ifaces);
    p.server.write(300_000);
    p.run_until_delivered(300_000);
    p.rounds(4);
    assert_eq!(p.server.bytes_acked(), 300_000);
    p.server.write(written);
    p
}

/// Poll the server dry; the payloads it emitted per subflow.
fn burst(p: &mut Pair) -> Vec<(SubflowId, Segment)> {
    std::iter::from_fn(|| p.server.poll_transmit(p.now)).collect()
}

/// Hand `id`'s sender an ACK of everything in `burst` that rode it,
/// advertising `rwnd`.
fn ack_burst(p: &mut Pair, id: SubflowId, burst: &[(SubflowId, Segment)], rwnd: u64) {
    let last = burst
        .iter()
        .rfind(|(sf, _)| *sf == id)
        .expect("data on id")
        .1;
    let mut ack = Segment::empty(p.now);
    ack.flags.ack = true;
    ack.seq = 1;
    ack.ack = last.seq_end();
    ack.rwnd = rwnd;
    p.server.on_segment(p.now, id, ack);
}

/// A window update reaches the server on every path: the peer now
/// offers `rwnd` bytes on each.
fn offer_window(p: &mut Pair, rwnd: u64) {
    for id in (0..p.server.subflows().len()).map(|i| SubflowId(i as u8)) {
        let mut ack = Segment::empty(p.now);
        ack.flags.ack = true;
        ack.seq = 1;
        ack.ack = p.server.subflow(id).tcp.snd_una();
        ack.rwnd = rwnd;
        p.server.on_segment(p.now, id, ack);
    }
}

#[test]
fn sub_mss_room_behind_data_in_flight_waits_for_the_next_ack() {
    let mss = TcpConfig::default().mss as u64;
    let mut p = warmed_pair(&[IfaceKind::Wifi, IfaceKind::CellularLte], 10_000_000);
    let first = burst(&mut p);
    let (a, b) = (SubflowId(0), SubflowId(1));
    assert!(first.iter().any(|(id, _)| *id == a) && first.iter().any(|(id, _)| *id == b));
    // Both windows are full. Subflow A's peer acknowledges its first
    // two segments and shrinks its window to leave 1 000 B of room.
    p.now += HALF;
    let on_a: Vec<_> = first.iter().filter(|(id, _)| *id == a).copied().collect();
    let in_flight = on_a[2..].iter().map(|(_, s)| s.payload as u64).sum::<u64>();
    ack_burst(&mut p, a, &on_a[..2], in_flight + 1_000);
    let sf_a = p.server.subflow(a);
    assert_eq!(sf_a.send_room(), 1_000);
    assert!(sf_a.tcp.bytes_in_flight() > 0);
    assert_eq!(p.server.subflow(b).send_room(), 0, "B is window-full");
    // A runt would fit; the scheduler declines, and changes nothing.
    let before = format!("{:?}", p.server);
    assert!(p.server.poll_transmit(p.now).is_none());
    assert_eq!(format!("{:?}", p.server), before);
    // The next ACK on either subflow releases a whole segment.
    for id in [a, b] {
        let mut q = Pair {
            now: p.now,
            client: p.client.clone(),
            server: p.server.clone(),
        };
        let rest: Vec<_> = first.iter().filter(|(sf, _)| *sf == id).copied().collect();
        ack_burst(&mut q, id, &rest[..3], 4 * 1024 * 1024);
        let (on, seg) = q.server.poll_transmit(q.now).expect("an ACK made room");
        assert_eq!((on, seg.payload as u64), (id, mss));
        assert_eq!(q.server.runt_chunks(), 0);
    }
}

#[test]
fn a_window_below_one_segment_still_makes_progress() {
    let mut p = warmed_pair(&[IfaceKind::Wifi, IfaceKind::CellularLte], 5_000);
    // The peer's window on both paths shrinks to 500 B while the
    // pipes are empty: short segments are all that can ever leave.
    offer_window(&mut p, 500);
    let mut delivered = 300_000;
    while delivered < 305_000 {
        let down = burst(&mut p);
        assert!(!down.is_empty(), "an empty pipe refused to send");
        assert!(down.iter().all(|(_, seg)| seg.payload <= 500));
        p.now += HALF;
        for (id, seg) in down {
            p.client.on_segment(p.now, id, seg);
        }
        delivered = p.client.bytes_delivered();
        p.now += SimDuration::from_millis(50); // past the delayed ACK
        p.client.on_deadline(p.now);
        for (id, mut ack) in std::iter::from_fn(|| p.client.poll_transmit(p.now)) {
            ack.rwnd = 500;
            p.server.on_segment(p.now + HALF, id, ack);
        }
        p.now += HALF;
        assert!(p.now < SimTime::from_secs(60), "stalled");
    }
}

#[test]
fn the_last_bytes_of_the_stream_leave_without_waiting() {
    let mss = TcpConfig::default().mss as u64;
    let mut p = warmed_pair(&[IfaceKind::Wifi], 3 * mss + 300);
    // The peer offers three segments and 1 000 B of window: the 300 B
    // tail fits the room behind the data in flight.
    offer_window(&mut p, 3 * mss + 1_000);
    let sent: Vec<u64> = burst(&mut p)
        .iter()
        .map(|(_, seg)| seg.payload as u64)
        .collect();
    assert_eq!(sent, [mss, mss, mss, 300]);
    assert_eq!(p.server.runt_chunks(), 0);
}
