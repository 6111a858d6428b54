//! Transports: how encoded frames move between endpoints.
//!
//! A [`Transport`] carries wire frames (see [`crate::codec`]) between the
//! reactor's endpoints over a set of shaped paths. The shaping state is
//! [`ChaosPath`] — the simulator's own loss/delay/blackhole vocabulary —
//! so a fault plan (a list of [`FaultSpec`](emptcp_faults::FaultSpec)s)
//! applies to a live transfer through exactly the machinery it applies to
//! a simulated one.
//!
//! Two hermetic, in-process transports sit behind the trait. The
//! simulator's [`ChaosNet`] carries segments by value. [`DuplexTransport`]
//! is the same thing with the wire in the middle: the codec over a
//! `ChaosNet` of encoded frames. Built from one seed they therefore
//! agree draw for draw — which is what lets the parity harness demand
//! event-for-event equality between them rather than merely statistical
//! agreement.

use crate::codec::{decode_frame, encode_frame};
use emptcp_faults::{ChaosNet, ChaosPath};
use emptcp_sim::SimTime;
use emptcp_tcp::Segment;

/// Frame movement between reactor endpoints over shaped paths.
pub trait Transport {
    /// Number of endpoints this transport connects locally (a duplex pair
    /// hosts both ends; a UDP transport hosts one, the peer being another
    /// process).
    fn endpoints(&self) -> usize;

    /// Offer `seg` from endpoint `from` onto `path`. The transport
    /// encodes, shapes (loss / delay / blackhole) and queues or emits the
    /// frame; a shaped-away frame disappears silently, exactly like a
    /// lost datagram.
    fn send(&mut self, now: SimTime, from: usize, path: u8, seg: &Segment);

    /// At most one frame deliverable at `now`: `(endpoint, path,
    /// segment)`. One frame per call by design — the reactor settles all
    /// connections between arrivals, matching the simulator's
    /// one-packet-per-iteration drain discipline.
    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)>;

    /// Earliest instant at which the transport knows it will have work
    /// (in-flight frame arrival or a delayed egress flush). `None` for
    /// transports that cannot know (real sockets). Takes `&mut self`
    /// because the event queue drops cancelled entries on peek.
    fn next_wakeup(&mut self) -> Option<SimTime>;

    /// The shaped paths, for fault application.
    fn paths_mut(&mut self) -> &mut [ChaosPath];
}

/// Which way a frame from endpoint `from` travels: endpoint 0 is the
/// client side of a [`ChaosNet`], endpoint 1 the server side.
fn to_client(from: usize) -> bool {
    debug_assert!(from < 2, "pair endpoints are 0 and 1");
    from == 1
}

/// The simulator's network as a transport: segments cross by value.
impl Transport for ChaosNet {
    fn endpoints(&self) -> usize {
        2
    }

    fn send(&mut self, now: SimTime, from: usize, path: u8, seg: &Segment) {
        ChaosNet::send(self, now, to_client(from), path, *seg);
    }

    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)> {
        let (to_client, path, seg) = self.pop_due(now)?;
        Some((!to_client as usize, path, seg))
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        self.peek_time()
    }

    fn paths_mut(&mut self) -> &mut [ChaosPath] {
        &mut self.paths
    }
}

/// In-process duplex byte pair: the wire codec over a [`ChaosNet`] of
/// encoded frames. Built from the same seed and paths as a by-value
/// `ChaosNet`, it shapes draw for draw like it — all the two runs can
/// differ by is the codec round trip.
pub struct DuplexTransport {
    net: ChaosNet<Vec<u8>>,
    /// Frames accepted onto a path (post-shaping copies included).
    pub frames_queued: u64,
    /// Frames shaped away (loss draw or downed path).
    pub frames_dropped: u64,
    /// Bytes of frame payload carried end to end.
    pub bytes_carried: u64,
}

impl DuplexTransport {
    /// A duplex pair over `paths`, seeded deterministically.
    pub fn new(seed: u64, paths: Vec<ChaosPath>) -> DuplexTransport {
        DuplexTransport {
            net: ChaosNet::new(seed, paths),
            frames_queued: 0,
            frames_dropped: 0,
            bytes_carried: 0,
        }
    }

    /// Frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.net.in_flight()
    }
}

impl Transport for DuplexTransport {
    fn endpoints(&self) -> usize {
        2
    }

    fn send(&mut self, now: SimTime, from: usize, path: u8, seg: &Segment) {
        let frame = encode_frame(path, seg);
        let copies = self.net.send(now, to_client(from), path, frame) as u64;
        self.frames_queued += copies;
        self.frames_dropped += (copies == 0) as u64;
    }

    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)> {
        let (to_client, path, frame) = self.net.pop_due(now)?;
        self.bytes_carried += frame.len() as u64;
        // A duplex channel is a private interface: a frame that fails to
        // decode is a codec bug, not peer hostility.
        let (decoded_path, seg) = decode_frame(&frame).expect("duplex frame decodes");
        debug_assert_eq!(decoded_path, path);
        Some((!to_client as usize, path, seg))
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        self.net.peek_time()
    }

    fn paths_mut(&mut self) -> &mut [ChaosPath] {
        &mut self.net.paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimDuration;

    fn paths() -> Vec<ChaosPath> {
        vec![
            ChaosPath::new(0.0, SimDuration::from_millis(10), 0),
            ChaosPath::new(0.0, SimDuration::from_millis(30), 0),
        ]
    }

    #[test]
    fn frames_cross_with_path_delay() {
        let mut t = DuplexTransport::new(7, paths());
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.payload = 99;
        t.send(SimTime::ZERO, 0, 1, &seg);
        assert_eq!(t.next_wakeup(), Some(SimTime::from_millis(30)));
        assert!(t.poll_recv(SimTime::from_millis(29)).is_none());
        let (to, path, got) = t.poll_recv(SimTime::from_millis(30)).expect("arrived");
        assert_eq!((to, path, got.payload), (1, 1, 99));
    }

    #[test]
    fn downed_path_drops_silently() {
        let mut t = DuplexTransport::new(7, paths());
        t.paths_mut()[0].apply(emptcp_faults::FaultAction::IfaceDown);
        t.send(SimTime::ZERO, 1, 0, &Segment::empty(SimTime::ZERO));
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.frames_dropped, 1);
    }
}
