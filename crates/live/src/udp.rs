//! Real-socket transport: one non-blocking UDP socket per path.
//!
//! This is the cross-process flavor of [`Transport`]: each eMPTCP path
//! rides its own UDP 4-tuple (path *i* binds local port `port_base + i`),
//! so the two subflows of a transfer are separately visible to tcpdump,
//! netem, or a real bottleneck. Frames are the same codec frames the
//! duplex transport carries, padded to the modeled wire size.
//!
//! Shaping happens **sender-side**: the loss/dup/jitter draws and the
//! base-delay holdback run against the same [`ChaosPath`] vocabulary the
//! simulator uses, with delayed egress parked in an
//! [`EventQueue`](emptcp_sim::EventQueue) until the wall clock passes the
//! departure instant. A `FaultPlan` therefore shapes a live localhost
//! transfer through exactly the machinery that shapes a simulated one. A
//! frame shaped to leave at once — every frame of an unshaped path — skips
//! the wheel: it is encoded into one reused buffer and handed to the
//! socket, after whatever parked frames are already due.
//!
//! Peers are preset (client) or learned from the source address of the
//! first well-formed datagram per path (server) — the usual UDP
//! rendezvous — and once a path has a peer, datagrams from anyone else are
//! counted (`foreign`) and dropped. Malformed datagrams, and well-formed
//! ones whose `path` byte is not the socket they arrived on, are counted
//! and skipped, never panicked on and never learned from; a socket error
//! on send is counted (`send_errors`) and the frame is lost like any other
//! datagram. A socket is a public interface.

use crate::codec::{decode_frame, encode_frame_into};
use crate::transport::Transport;
use emptcp_faults::ChaosPath;
use emptcp_sim::{EventQueue, SimDuration, SimRng, SimTime};
use emptcp_tcp::Segment;
use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Largest datagram we accept; comfortably above the modeled MTU.
const RECV_BUF: usize = 2048;

/// One local endpoint of a live transfer: a socket per path plus
/// sender-side shaping state.
pub struct UdpTransport {
    /// Socket for path `i`, bound to `port_base + i`.
    sockets: Vec<UdpSocket>,
    /// Peer address per path: preset for the connecting side, learned
    /// from the first arrival for the serving side.
    peers: Vec<Option<SocketAddr>>,
    /// Shaped-egress holdback: `(path, frame)` keyed by departure time.
    egress: EventQueue<(u8, Vec<u8>)>,
    paths: Vec<ChaosPath>,
    rng: SimRng,
    /// Round-robin receive cursor so one busy path cannot starve another.
    rr: usize,
    /// Encode buffer of the unshaped send path, reused frame to frame.
    tx_buf: Vec<u8>,
    /// Receive buffer, reused call to call.
    rx_buf: Box<[u8; RECV_BUF]>,
    /// Datagrams sent on the wire (post-shaping).
    pub datagrams_sent: u64,
    /// Datagrams received and decoded.
    pub datagrams_received: u64,
    /// Frames shaped away before the wire (loss draw or downed path).
    pub frames_shaped_away: u64,
    /// Arrivals that failed to decode or named a path other than the
    /// socket they arrived on (skipped, never fatal).
    pub malformed: u64,
    /// Egress frames dropped because no peer was known yet.
    pub unroutable: u64,
    /// Egress frames the socket refused with an error other than a full
    /// buffer (dropped, like a lost datagram).
    pub send_errors: u64,
    /// Arrivals from a source other than the path's known peer (dropped
    /// undecoded).
    pub foreign: u64,
}

impl UdpTransport {
    /// Bind one non-blocking socket per path at `port_base`, `port_base +
    /// 1`, ... on localhost.
    pub fn bind(port_base: u16, paths: Vec<ChaosPath>, seed: u64) -> io::Result<UdpTransport> {
        let mut sockets = Vec::with_capacity(paths.len());
        for i in 0..paths.len() {
            let sock = UdpSocket::bind(("127.0.0.1", port_base + i as u16))?;
            sock.set_nonblocking(true)?;
            sockets.push(sock);
        }
        let peers = vec![None; paths.len()];
        Ok(UdpTransport {
            sockets,
            peers,
            egress: EventQueue::new(),
            paths,
            rng: SimRng::new(seed).fork_labeled("traffic"),
            rr: 0,
            tx_buf: Vec::with_capacity(RECV_BUF),
            rx_buf: Box::new([0; RECV_BUF]),
            datagrams_sent: 0,
            datagrams_received: 0,
            frames_shaped_away: 0,
            malformed: 0,
            unroutable: 0,
            send_errors: 0,
            foreign: 0,
        })
    }

    /// Preset the peer for `path` (the connecting side knows the server).
    pub fn set_peer(&mut self, path: usize, addr: SocketAddr) {
        self.peers[path] = Some(addr);
    }

    /// True once every path has a peer (all rendezvous complete).
    pub fn all_peers_known(&self) -> bool {
        self.peers.iter().all(Option::is_some)
    }

    /// Put one encoded frame on `path`'s socket, now.
    fn emit(&mut self, path: u8, frame: &[u8]) {
        let Some(peer) = self.peers[path as usize] else {
            // No rendezvous on this path yet; the stack will
            // retransmit, so dropping here is safe and simple.
            self.unroutable += 1;
            return;
        };
        match self.sockets[path as usize].send_to(frame, peer) {
            Ok(_) => self.datagrams_sent += 1,
            // A full socket buffer behaves like a droptail queue;
            // the protocol's loss recovery owns this case.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.frames_shaped_away += 1,
            // Anything else (an ICMP error surfacing, a vanished
            // interface) loses this datagram, not the process.
            Err(_) => self.send_errors += 1,
        }
    }

    /// Push every egress frame whose departure time has passed onto its
    /// socket.
    fn flush_egress(&mut self, now: SimTime) {
        while self.egress.peek_time().is_some_and(|t| t <= now) {
            let (_, (path, frame)) = self.egress.pop().expect("peeked");
            self.emit(path, &frame);
        }
    }
}

impl Transport for UdpTransport {
    fn endpoints(&self) -> usize {
        1
    }

    fn send(&mut self, now: SimTime, _from: usize, path: u8, seg: &Segment) {
        // Parked frames already due leave first, so a frame that skips
        // the wheel below keeps its place behind them.
        self.flush_egress(now);
        let mut shaped_away = true;
        for delay in self.paths[path as usize].shape(&mut self.rng) {
            shaped_away = false;
            let mut frame = std::mem::take(&mut self.tx_buf);
            encode_frame_into(path, seg, &mut frame);
            if delay == SimDuration::ZERO {
                self.emit(path, &frame);
                self.tx_buf = frame;
            } else {
                self.egress.schedule(now + delay, (path, frame));
            }
        }
        self.frames_shaped_away += shaped_away as u64;
    }

    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)> {
        self.flush_egress(now);
        // One sweep over the sockets starting at the cursor; at most one
        // frame returned, keeping the reactor's settle discipline.
        for off in 0..self.sockets.len() {
            let idx = (self.rr + off) % self.sockets.len();
            match self.sockets[idx].recv_from(&mut self.rx_buf[..]) {
                Ok((n, from)) => {
                    self.rr = (idx + 1) % self.sockets.len();
                    if self.peers[idx].is_some_and(|peer| peer != from) {
                        self.foreign += 1;
                        continue;
                    }
                    match decode_frame(&self.rx_buf[..n]) {
                        // A frame names the path it travels; one that
                        // arrives on another path's socket is not ours.
                        Ok((path, seg)) if path as usize == idx => {
                            self.peers[idx].get_or_insert(from);
                            self.datagrams_received += 1;
                            return Some((0, path, seg));
                        }
                        _ => {
                            self.malformed += 1;
                            continue;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                // Linux may surface async ICMP errors (e.g. port
                // unreachable before the peer binds) on the next call;
                // treat like loss and let retransmission cover it.
                Err(_) => continue,
            }
        }
        None
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        // Only the shaped-egress flush is knowable; socket arrivals are
        // covered by the reactor's idle backoff.
        self.egress.peek_time()
    }

    fn paths_mut(&mut self) -> &mut [ChaosPath] {
        &mut self.paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_frame;

    fn two_paths() -> Vec<ChaosPath> {
        vec![
            ChaosPath::new(0.0, SimDuration::ZERO, 0),
            ChaosPath::new(0.0, SimDuration::ZERO, 0),
        ]
    }

    #[test]
    fn localhost_round_trip_and_peer_learning() {
        let mut a = UdpTransport::bind(46200, two_paths(), 1).expect("bind a");
        let mut b = UdpTransport::bind(46210, two_paths(), 2).expect("bind b");
        // a knows b; b learns a from the first datagram.
        a.set_peer(0, "127.0.0.1:46210".parse().unwrap());
        a.set_peer(1, "127.0.0.1:46211".parse().unwrap());
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.payload = 7;
        a.send(SimTime::ZERO, 0, 1, &seg);
        let got = (0..200).find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            b.poll_recv(SimTime::ZERO)
        });
        let (_, path, seg) = got.expect("datagram crossed localhost");
        assert_eq!((path, seg.payload), (1, 7));
        assert!(b.peers[1].is_some(), "server learned the peer");
        // And the learned peer routes the reply back.
        b.send(SimTime::ZERO, 0, 1, &Segment::empty(SimTime::ZERO));
        let reply = (0..200).find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            a.poll_recv(SimTime::ZERO)
        });
        assert!(reply.is_some(), "reply arrived");
    }

    #[test]
    fn malformed_datagrams_are_skipped() {
        let mut t = UdpTransport::bind(46220, two_paths(), 3).expect("bind");
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        raw.send_to(&[0xAB; 32], "127.0.0.1:46220").expect("send");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(t.poll_recv(SimTime::ZERO).is_none());
        assert_eq!(t.malformed, 1);
        assert!(t.peers[0].is_none(), "no peer learned from garbage");
    }

    #[test]
    fn a_frame_for_another_path_is_rejected_not_delivered() {
        let mut t = UdpTransport::bind(46240, two_paths(), 5).expect("bind");
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        // Well-formed, but claims subflow 7 on path 0's socket: delivered,
        // it would index past the connection's subflows.
        let frame = encode_frame(7, &Segment::empty(SimTime::ZERO));
        raw.send_to(&frame, "127.0.0.1:46240").expect("send");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(t.poll_recv(SimTime::ZERO).is_none());
        assert_eq!((t.malformed, t.datagrams_received), (1, 0));
        assert!(
            t.peers[0].is_none(),
            "no peer learned from a rejected frame"
        );
    }

    #[test]
    fn a_known_peer_shuts_out_every_other_source() {
        let mut t = UdpTransport::bind(46250, two_paths(), 6).expect("bind");
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        let stranger = UdpSocket::bind("127.0.0.1:0").expect("bind stranger");
        let frame = encode_frame(0, &Segment::empty(SimTime::ZERO));
        let poll_after_send = |t: &mut UdpTransport, from: &UdpSocket, bytes: &[u8]| {
            from.send_to(bytes, "127.0.0.1:46250").expect("send");
            std::thread::sleep(std::time::Duration::from_millis(20));
            t.poll_recv(SimTime::ZERO)
        };
        // The first accepted frame makes its sender the path's peer.
        assert!(poll_after_send(&mut t, &peer, &frame).is_some());
        assert_eq!(t.peers[0], Some(peer.local_addr().unwrap()));
        // From then on a well-formed frame from elsewhere is not delivered
        // and does not re-point the path; garbage from elsewhere is foreign
        // before it is malformed.
        assert!(poll_after_send(&mut t, &stranger, &frame).is_none());
        assert!(poll_after_send(&mut t, &stranger, &[0xAB; 32]).is_none());
        assert_eq!((t.foreign, t.malformed, t.datagrams_received), (2, 0, 1));
        assert_eq!(t.peers[0], Some(peer.local_addr().unwrap()));
        // The peer itself still gets through.
        assert!(poll_after_send(&mut t, &peer, &frame).is_some());
    }

    #[test]
    fn a_socket_error_on_send_is_counted_not_fatal() {
        let mut t = UdpTransport::bind(46260, two_paths(), 7).expect("bind");
        // Port 0 is not a destination: the kernel refuses the send.
        t.set_peer(0, "127.0.0.1:0".parse().unwrap());
        t.send(SimTime::ZERO, 0, 0, &Segment::empty(SimTime::ZERO));
        assert_eq!((t.send_errors, t.datagrams_sent), (1, 0));
    }

    #[test]
    fn an_unshaped_frame_leaves_at_once_behind_parked_ones_already_due() {
        let mut t = UdpTransport::bind(46270, two_paths(), 8).expect("bind");
        let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
        sink.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        t.set_peer(0, sink.local_addr().unwrap());
        let seg = |payload| {
            let mut s = Segment::empty(SimTime::ZERO);
            s.payload = payload;
            s
        };
        // Park one frame behind a 5 ms delay, then lift the delay.
        t.paths_mut()[0].base_delay = SimDuration::from_millis(5);
        t.send(SimTime::ZERO, 0, 0, &seg(1));
        t.paths_mut()[0].base_delay = SimDuration::ZERO;
        // Before the parked frame is due, an unshaped one overtakes it
        // without touching the wheel ...
        t.send(SimTime::from_millis(1), 0, 0, &seg(2));
        assert_eq!(t.datagrams_sent, 1);
        assert_eq!(t.next_wakeup(), Some(SimTime::from_millis(5)));
        // ... and once it is due, it leaves ahead of the next one.
        t.send(SimTime::from_millis(5), 0, 0, &seg(3));
        assert_eq!((t.datagrams_sent, t.next_wakeup()), (3, None));
        let mut buf = [0u8; RECV_BUF];
        let order: Vec<u32> = (0..3)
            .map(|_| {
                let n = sink.recv(&mut buf).expect("datagram");
                decode_frame(&buf[..n]).expect("decodes").1.payload
            })
            .collect();
        assert_eq!(order, [2, 1, 3]);
    }

    #[test]
    fn shaped_egress_holds_frames_until_departure() {
        let mut t = UdpTransport::bind(46230, two_paths(), 4).expect("bind");
        t.paths_mut()[0].base_delay = SimDuration::from_millis(50);
        t.set_peer(0, "127.0.0.1:46231".parse().unwrap());
        t.send(SimTime::ZERO, 0, 0, &Segment::empty(SimTime::ZERO));
        assert_eq!(t.datagrams_sent, 0, "held back");
        assert_eq!(t.next_wakeup(), Some(SimTime::from_millis(50)));
        t.flush_egress(SimTime::from_millis(50));
        assert_eq!(t.datagrams_sent, 1, "departed on time");
    }
}
