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
//! transfer through exactly the machinery that shapes a simulated one.
//!
//! Peers are preset (client) or learned from the source address of the
//! first well-formed datagram per path (server) — the usual UDP
//! rendezvous. Malformed datagrams, and well-formed ones whose `path` byte
//! is not the socket they arrived on, are counted and skipped, never
//! panicked on and never learned from: a socket is a public interface.

use crate::codec::{decode_frame, encode_frame};
use crate::transport::Transport;
use emptcp_faults::ChaosPath;
use emptcp_sim::{EventQueue, SimRng, SimTime};
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
            datagrams_sent: 0,
            datagrams_received: 0,
            frames_shaped_away: 0,
            malformed: 0,
            unroutable: 0,
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

    /// Push every egress frame whose departure time has passed onto its
    /// socket.
    fn flush_egress(&mut self, now: SimTime) {
        while self.egress.peek_time().is_some_and(|t| t <= now) {
            let (_, (path, frame)) = self.egress.pop().expect("peeked");
            let Some(peer) = self.peers[path as usize] else {
                // No rendezvous on this path yet; the stack will
                // retransmit, so dropping here is safe and simple.
                self.unroutable += 1;
                continue;
            };
            match self.sockets[path as usize].send_to(&frame, peer) {
                Ok(_) => self.datagrams_sent += 1,
                // A full socket buffer behaves like a droptail queue;
                // the protocol's loss recovery owns this case.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.frames_shaped_away += 1,
                Err(e) => panic!("udp send_to failed: {e}"),
            }
        }
    }
}

impl Transport for UdpTransport {
    fn endpoints(&self) -> usize {
        1
    }

    fn send(&mut self, now: SimTime, _from: usize, path: u8, seg: &Segment) {
        let mut shaped_away = true;
        for delay in self.paths[path as usize].shape(&mut self.rng) {
            self.egress
                .schedule(now + delay, (path, encode_frame(path, seg)));
            shaped_away = false;
        }
        self.frames_shaped_away += shaped_away as u64;
        self.flush_egress(now);
    }

    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)> {
        self.flush_egress(now);
        let mut buf = [0u8; RECV_BUF];
        // One sweep over the sockets starting at the cursor; at most one
        // frame returned, keeping the reactor's settle discipline.
        for off in 0..self.sockets.len() {
            let idx = (self.rr + off) % self.sockets.len();
            match self.sockets[idx].recv_from(&mut buf) {
                Ok((n, from)) => {
                    self.rr = (idx + 1) % self.sockets.len();
                    match decode_frame(&buf[..n]) {
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
        // covered by the reactor's bounded wall sleep.
        self.egress.peek_time()
    }

    fn paths_mut(&mut self) -> &mut [ChaosPath] {
        &mut self.paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimDuration;

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
