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
//! departure instant. A fault plan therefore shapes a live localhost
//! transfer through exactly the machinery that shapes a simulated one. A
//! frame shaped to leave at once — every frame of an unshaped path — skips
//! the queue: it is encoded into one reused buffer and handed to the
//! socket, after whatever parked frames are already due.
//!
//! Peers are preset (client) or learned from the source address of the
//! first well-formed datagram per path (server) — the usual UDP
//! rendezvous — and once a path has a peer, datagrams from anyone else are
//! counted (`foreign`) and dropped. Malformed datagrams (any
//! [`CodecError`](crate::codec::CodecError), `BadSack` and `SeqOverflow` included), and
//! well-formed ones whose `path` byte is not the socket they arrived on,
//! are counted once in `malformed` and skipped, never panicked on and never learned from; a socket error
//! on send is counted (`send_errors`) and the frame is lost like any other
//! datagram, and one on receive is counted (`recv_errors`) and skipped. A
//! socket is a public interface.
//!
//! **The receive window is the socket's, not the stack's.** The stacks
//! advertise `TcpConfig::rwnd_bytes` (4 MiB) per subflow, but what a peer
//! has in flight towards this endpoint queues in a kernel socket buffer of
//! `rmem_default` bytes (208 KiB stock: ~92 full frames, each charged
//! ~2.3 kB of buffer accounting whatever its payload). Left alone, loss
//! based congestion control grows into the advertised window, overflows
//! that drop-tail queue every few milliseconds and recovers by RTO. So
//! every frame that leaves through [`Transport::send`] carries
//! `min(seg.rwnd, rx_window)`, where [`UdpTransport::rx_window`] is a
//! third of the capacity learned once at [`bind`](UdpTransport::bind): the
//! peer's flight then always fits the buffer, and nothing is lost that the
//! path did not lose. The rule sits at frame egress because that is the
//! one place both a session and a bare `Reactor<UdpTransport>` pass
//! through; the stacks, the simulator and the duplex transport never see
//! it. Its price is the usual one: a path with real delay carries at most
//! `rx_window / RTT` (about 69 KiB per round trip on a stock Linux box).
//! [`UdpTransport::rcvbuf_drops`] reads back what the kernel dropped
//! anyway.

use crate::codec::{decode_frame, encode_frame_into};
use crate::transport::Transport;
use emptcp_faults::ChaosPath;
use emptcp_sim::{EventQueue, SimDuration, SimRng, SimTime};
use emptcp_tcp::segment::DEFAULT_MSS;
use emptcp_tcp::Segment;
use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Largest datagram we accept; comfortably above the modeled MTU.
const RECV_BUF: usize = 2048;

/// Where Linux publishes the receive-buffer size a new socket gets;
/// `std` exposes no `SO_RCVBUF`, and every socket here takes the default.
const RMEM_DEFAULT: &str = "/proc/sys/net/core/rmem_default";

/// Per-socket receive statistics; the last column counts the datagrams
/// the kernel dropped because the socket's buffer was full.
const PROC_NET_UDP: &str = "/proc/net/udp";

/// Receive capacity assumed where [`RMEM_DEFAULT`] cannot be read: the
/// smallest default among the common platforms.
const FALLBACK_RCVBUF: u64 = 64 * 1024;

/// The share of a socket's receive buffer its path's window may promise.
/// A full frame is charged about 1.6x its size and shorter ones
/// proportionally more: measured, the kernel drops nothing with up to 46%
/// of the buffer promised and starts to at 61% (EXPERIMENTS, "Live
/// receive window").
const RX_WINDOW_DIVISOR: u64 = 3;

const MSS: u64 = DEFAULT_MSS as u64;

/// No capacity reading takes the window below this: enough segments in
/// flight for fast retransmit and delayed ACKs to work.
const MIN_RX_WINDOW: u64 = 8 * MSS;

/// The window one path may advertise, from what [`RMEM_DEFAULT`] read
/// (`None` where it could not be).
fn rx_window_from(rmem_default: Option<&str>) -> u64 {
    let capacity = rmem_default
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(FALLBACK_RCVBUF);
    (capacity / RX_WINDOW_DIVISOR).max(MIN_RX_WINDOW)
}

/// Sum of the `drops` column of a [`PROC_NET_UDP`] table over the sockets
/// bound to `ports`.
fn drops_for_ports(table: &str, ports: &[u16]) -> u64 {
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let mut cols = line.split_whitespace();
            let (_, port) = cols.nth(1)?.rsplit_once(':')?;
            let port = u16::from_str_radix(port, 16).ok()?;
            let drops = cols.last()?.parse::<u64>().ok()?;
            ports.contains(&port).then_some(drops)
        })
        .sum()
}

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
    /// The most any frame leaving here advertises per path: a share of
    /// what one socket's kernel buffer holds, learned at bind.
    rx_window: u64,
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
    /// Receive calls the socket failed with an error other than an empty
    /// buffer (skipped; retransmission covers whatever they stood for).
    pub recv_errors: u64,
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
            rx_window: rx_window_from(std::fs::read_to_string(RMEM_DEFAULT).ok().as_deref()),
            datagrams_sent: 0,
            datagrams_received: 0,
            frames_shaped_away: 0,
            malformed: 0,
            unroutable: 0,
            send_errors: 0,
            foreign: 0,
            recv_errors: 0,
        })
    }

    /// The receive window, in bytes, that frames leaving this endpoint
    /// advertise at most on each path.
    pub fn rx_window(&self) -> u64 {
        self.rx_window
    }

    /// Datagrams the kernel dropped at this endpoint's sockets because
    /// their receive buffers were full, since bind; 0 where the platform
    /// does not say.
    pub fn rcvbuf_drops(&self) -> u64 {
        let ports: Vec<u16> = self
            .sockets
            .iter()
            .filter_map(|s| s.local_addr().ok())
            .map(|a| a.port())
            .collect();
        std::fs::read_to_string(PROC_NET_UDP).map_or(0, |table| drops_for_ports(&table, &ports))
    }

    /// Preset the peer for `path` (the connecting side knows the server).
    pub fn set_peer(&mut self, path: usize, addr: SocketAddr) {
        self.peers[path] = Some(addr);
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
        // the queue below keeps its place behind them.
        self.flush_egress(now);
        // Promise the peer no more than this path's socket can queue.
        let mut seg = *seg;
        seg.rwnd = seg.rwnd.min(self.rx_window);
        let mut shaped_away = true;
        for delay in self.paths[path as usize].shape(&mut self.rng) {
            shaped_away = false;
            let mut frame = std::mem::take(&mut self.tx_buf);
            encode_frame_into(path, &seg, &mut frame);
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
                Err(_) => self.recv_errors += 1,
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

    /// A transport on `port_base` whose path 0 sends to a raw socket, and
    /// that socket: what arrives there is what went on the wire.
    fn transport_and_sink(port_base: u16, seed: u64) -> (UdpTransport, UdpSocket) {
        let mut t = UdpTransport::bind(port_base, two_paths(), seed).expect("bind");
        let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
        sink.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        t.set_peer(0, sink.local_addr().unwrap());
        (t, sink)
    }

    fn next_frame(sink: &UdpSocket) -> Segment {
        let mut buf = [0u8; RECV_BUF];
        let n = sink.recv(&mut buf).expect("datagram");
        decode_frame(&buf[..n]).expect("decodes").1
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
    fn a_sack_block_out_of_range_of_the_ack_is_malformed() {
        let mut t = UdpTransport::bind(46330, two_paths(), 14).expect("bind");
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        // A block 4 GiB above the ack: a segment cannot hold it.
        let frame = crate::codec::frame_with_sack(1000, 1000, 1000 + (1 << 32));
        raw.send_to(&frame, "127.0.0.1:46330").expect("send");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(t.poll_recv(SimTime::ZERO).is_none());
        assert_eq!((t.malformed, t.datagrams_received), (1, 0));
        assert!(
            t.peers[0].is_none(),
            "no peer learned from a rejected frame"
        );
    }

    #[test]
    fn a_sequence_range_past_the_top_of_the_space_is_malformed() {
        let mut t = UdpTransport::bind(46340, two_paths(), 15).expect("bind");
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        // Delivered, its end would overflow in the endpoint.
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.seq = u64::MAX - 5;
        seg.payload = 100;
        raw.send_to(&encode_frame(0, &seg), "127.0.0.1:46340")
            .expect("send");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(t.poll_recv(SimTime::ZERO).is_none());
        assert_eq!((t.malformed, t.datagrams_received), (1, 0));
        assert!(
            t.peers[0].is_none(),
            "no peer learned from a rejected frame"
        );
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
        let (mut t, sink) = transport_and_sink(46270, 8);
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
        // without touching the queue ...
        t.send(SimTime::from_millis(1), 0, 0, &seg(2));
        assert_eq!(t.datagrams_sent, 1);
        assert_eq!(t.next_wakeup(), Some(SimTime::from_millis(5)));
        // ... and once it is due, it leaves ahead of the next one.
        t.send(SimTime::from_millis(5), 0, 0, &seg(3));
        assert_eq!((t.datagrams_sent, t.next_wakeup()), (3, None));
        let order: Vec<u32> = (0..3).map(|_| next_frame(&sink).payload).collect();
        assert_eq!(order, [2, 1, 3]);
    }

    /// A data segment, a pure ACK and a SYN, as the stacks would build
    /// them with `TcpConfig::default().rwnd_bytes` to offer.
    fn data_ack_and_syn(rwnd: u64) -> [Segment; 3] {
        let mut data = Segment::empty(SimTime::ZERO);
        data.flags.ack = true;
        data.payload = MSS as u32;
        let mut ack = Segment::empty(SimTime::ZERO);
        ack.flags.ack = true;
        let mut syn = Segment::empty(SimTime::ZERO);
        syn.flags.syn = true;
        [data, ack, syn].map(|mut seg| {
            seg.rwnd = rwnd;
            seg
        })
    }

    #[test]
    fn every_frame_advertises_at_most_what_the_socket_holds() {
        let (mut t, sink) = transport_and_sink(46280, 9);
        for seg in data_ack_and_syn(4 << 20) {
            t.send(SimTime::ZERO, 0, 0, &seg);
            let wire = next_frame(&sink);
            assert_eq!(wire.rwnd, t.rx_window());
            // Nothing else about the segment changed on the way out.
            let mut restored = wire;
            restored.rwnd = seg.rwnd;
            assert_eq!(restored, seg);
        }
    }

    #[test]
    fn a_window_already_smaller_crosses_unchanged() {
        let (mut t, sink) = transport_and_sink(46290, 10);
        for rwnd in [t.rx_window() - 1, 1000, 0] {
            for seg in data_ack_and_syn(rwnd) {
                t.send(SimTime::ZERO, 0, 0, &seg);
                assert_eq!(next_frame(&sink), seg);
            }
        }
    }

    #[test]
    fn a_parked_frame_carries_the_same_bound_as_one_that_left_at_once() {
        let (mut t, sink) = transport_and_sink(46300, 11);
        let [data, ..] = data_ack_and_syn(4 << 20);
        t.send(SimTime::ZERO, 0, 0, &data);
        let at_once = next_frame(&sink);
        t.paths_mut()[0].base_delay = SimDuration::from_millis(5);
        t.send(SimTime::ZERO, 0, 0, &data);
        assert_eq!(t.datagrams_sent, 1, "held back");
        t.flush_egress(SimTime::from_millis(5));
        let parked = next_frame(&sink);
        assert_eq!(parked, at_once);
        assert_eq!(parked.rwnd, t.rx_window());
    }

    #[test]
    fn the_window_has_a_floor_whatever_the_capacity_source_said() {
        // Stock Linux: a third of 208 KiB, 49 segments and a remainder.
        assert_eq!(rx_window_from(Some("212992\n")), 70_997);
        // Unreadable, garbage, negative, empty: the fallback capacity.
        for source in [None, Some("garbage"), Some("-1"), Some("")] {
            assert_eq!(rx_window_from(source), FALLBACK_RCVBUF / 3);
        }
        // Tiny or zero: never below eight segments, never zero.
        for source in ["0", "1", "4096", "34271"] {
            assert_eq!(rx_window_from(Some(source)), 8 * MSS);
        }
        // Huge: the stack's own offer becomes the lesser one again.
        assert!(rx_window_from(Some("26214400")) > 4 << 20);
        // And whatever this machine says, a bound transport obeys it.
        let t = UdpTransport::bind(46310, two_paths(), 12).expect("bind");
        assert!(t.rx_window() >= MIN_RX_WINDOW);
    }

    #[test]
    fn drops_are_summed_over_our_ports_only() {
        let table = "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n\
   77: 0100007F:B93A 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 1234 2 0000000000000000 41\n\
   78: 0100007F:B93B 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 1235 2 0000000000000000 7\n\
   99: 00000000:0044 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 1236 2 0000000000000000 1000\n\
  bogus line\n";
        assert_eq!(drops_for_ports(table, &[0xB93A, 0xB93B]), 48);
        assert_eq!(drops_for_ports(table, &[0xB93B]), 7);
        assert_eq!(drops_for_ports(table, &[1]), 0);
        assert_eq!(drops_for_ports("", &[0xB93A]), 0);
    }

    #[test]
    fn a_flooded_socket_reports_what_the_kernel_dropped() {
        if !std::path::Path::new(PROC_NET_UDP).exists() {
            return;
        }
        let t = UdpTransport::bind(46320, two_paths(), 13).expect("bind");
        assert_eq!(t.rcvbuf_drops(), 0);
        // Never polled, so path 1's buffer fills and the rest is dropped:
        // twice the buffer's bytes cannot all fit it.
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        let datagrams = 2 * RX_WINDOW_DIVISOR * t.rx_window() / 1480;
        for _ in 0..datagrams {
            raw.send_to(&[0xAB; 1480], "127.0.0.1:46321").expect("send");
        }
        let drops = t.rcvbuf_drops();
        assert!(
            drops > 0 && drops < datagrams,
            "{drops} of {datagrams} dropped"
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
