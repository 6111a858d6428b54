//! The shared chaos-test network.
//!
//! A [`ChaosNet`] of [`ChaosPath`]s is the one "lossy network" every
//! chaos suite and shaped transport rides: an event queue of in-flight
//! segments plus per-path drop/dup/jitter draws, all of which happen in
//! one place, [`ChaosPath::shape`]. It has no event loop of its own — the
//! TCP suite pumps it by hand, and `emptcp-live`'s reactor drives it as a
//! transport (its `MpChaosRig`), applying [`FaultSpec`](crate::FaultSpec)
//! plans through [`ChaosPath::apply`].
//!
//! Randomness discipline: the net's seed is split with
//! [`SimRng::fork_labeled`] into independent streams (`"traffic"` for the
//! channel draws; callers fork more, e.g. `"faults"`, for their own use),
//! so adding a new consumer never shifts an existing stream.
//!
//! Fidelity note: paths here are delay-based, not rate-serialized — the
//! full queueing [`emptcp_phy::Link`] model lives in the experiment host.
//! A path keeps its faults in a [`FaultState`] like every other surface,
//! but with no serializer a rate fault only distinguishes `Some(0)` (a
//! silent blackhole) from everything else (the path passes traffic);
//! intermediate rates are a no-op here.

use crate::plan::{FaultAction, FaultPart, FaultState};
use emptcp_phy::{LossModel, LossProcess};
use emptcp_sim::{EventQueue, SimDuration, SimRng, SimTime};
use emptcp_tcp::Segment;

/// One bidirectional path through the chaos network.
#[derive(Clone, Debug)]
pub struct ChaosPath {
    /// The channel loss process in force (shared semantics with
    /// [`emptcp_phy::Link`]).
    loss: LossProcess,
    /// The i.i.d. loss probability the path was built with: the nominal
    /// a loss restore returns to.
    loss_prob: f64,
    /// Probability an accepted packet is duplicated.
    pub dup: f64,
    /// Base one-way delay.
    pub base_delay: SimDuration,
    /// Uniform random extra delay up to this many ms (reordering source).
    pub jitter_ms: u64,
    /// What the faults applied so far hold over the path.
    fault: FaultState,
}

impl ChaosPath {
    /// A path with i.i.d. loss, a base delay and a jitter bound.
    pub fn new(loss: f64, base_delay: SimDuration, jitter_ms: u64) -> ChaosPath {
        ChaosPath {
            loss: LossProcess::new(LossModel::Bernoulli(loss)),
            loss_prob: loss,
            dup: 0.0,
            base_delay,
            jitter_ms,
            fault: FaultState::default(),
        }
    }

    /// Add a duplication probability.
    pub fn with_dup(mut self, dup: f64) -> ChaosPath {
        self.dup = dup;
        self
    }

    /// Whether the path currently passes traffic at all: not down and not
    /// a rate-0 blackhole.
    fn passes_traffic(&self) -> bool {
        // No serializer: any nominal rate passes, only a zero stops it.
        self.fault.rate_bps(u64::MAX) > 0
    }

    /// The loss model in force.
    pub fn loss_model(&self) -> LossModel {
        self.loss.model()
    }

    /// Apply a fault action to both directions and say which part of the
    /// path's state it changed. Up/down, rate and delay change what
    /// [`shape`](Self::shape) reads; a loss action installs its model, or
    /// the nominal one, at once.
    pub fn apply(&mut self, action: FaultAction) -> FaultPart {
        let part = self.fault.apply(action);
        if part == FaultPart::Loss {
            let nominal = LossModel::Bernoulli(self.loss_prob);
            self.loss.set_model(self.fault.loss.unwrap_or(nominal));
        }
        part
    }

    /// Shape one offered packet: the one-way delay of each copy that gets
    /// through — none when the path is down or the loss draw eats it, two
    /// when the duplication draw fires. Every shaped transport calls this,
    /// so the draw order (loss gate, duplication gate, one jitter draw per
    /// copy) is one stream discipline everywhere.
    pub fn shape(&mut self, rng: &mut SimRng) -> impl Iterator<Item = SimDuration> {
        let mut copies = [None; 2];
        if self.passes_traffic() && !self.loss.lost(rng) {
            let n = if self.dup > 0.0 && rng.chance(self.dup) {
                2
            } else {
                1
            };
            let delay = self.fault.delay(self.base_delay);
            for copy in &mut copies[..n] {
                let jitter = SimDuration::from_millis(rng.below(self.jitter_ms + 1));
                *copy = Some(delay + jitter);
            }
        }
        copies.into_iter().flatten()
    }
}

/// A multi-path lossy, jittery, duplicating network between two endpoints,
/// carrying packets of type `P`: [`Segment`]s by value for the simulator,
/// encoded frames for the live backend's duplex channel.
#[derive(Debug)]
pub struct ChaosNet<P = Segment> {
    queue: EventQueue<(bool, u8, P)>,
    /// The seed RNG; never drawn from directly, only forked by label.
    root: SimRng,
    /// The `"traffic"` stream: loss, duplication and jitter draws.
    rng: SimRng,
    /// The paths, indexed by [`FaultTarget::path_index`](crate::FaultTarget::path_index)
    /// convention.
    pub paths: Vec<ChaosPath>,
}

impl<P: Clone> ChaosNet<P> {
    /// A network over the given paths, seeded deterministically.
    pub fn new(seed: u64, paths: Vec<ChaosPath>) -> ChaosNet<P> {
        let root = SimRng::new(seed);
        let rng = root.fork_labeled("traffic");
        ChaosNet {
            queue: EventQueue::new(),
            root,
            rng,
            paths,
        }
    }

    /// An independent RNG stream derived from the rig seed; drawing from it
    /// never perturbs the traffic stream (or any other fork).
    pub fn fork(&self, label: &str) -> SimRng {
        self.root.fork_labeled(label)
    }

    /// Offer a packet to `path` at `now`, heading to the client or server;
    /// returns how many copies the path let through (0 = shaped away).
    pub fn send(&mut self, now: SimTime, to_client: bool, path: u8, packet: P) -> usize {
        let mut copies = 0;
        for delay in self.paths[path as usize].shape(&mut self.rng) {
            self.queue
                .schedule(now + delay, (to_client, path, packet.clone()));
            copies += 1;
        }
        copies
    }

    /// When the next packet lands, if any is in flight.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The next in-flight packet: `(arrival, (to_client, path, packet))`.
    pub fn pop(&mut self) -> Option<(SimTime, (bool, u8, P))> {
        self.queue.pop()
    }

    /// The next in-flight packet, if it has landed by `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(bool, u8, P)> {
        if self.queue.peek_time()? > now {
            return None;
        }
        self.queue.pop().map(|(_, packet)| packet)
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_paths() -> Vec<ChaosPath> {
        vec![
            ChaosPath::new(0.0, SimDuration::from_millis(12), 0),
            ChaosPath::new(0.0, SimDuration::from_millis(35), 0),
        ]
    }

    #[test]
    fn forked_streams_are_independent_of_extra_consumers() {
        let net_a: ChaosNet = ChaosNet::new(77, two_paths());
        let net_b: ChaosNet = ChaosNet::new(77, two_paths());
        // Net B hands out a fault stream before traffic runs; the traffic
        // stream must be unaffected.
        let mut faults_rng = net_b.fork("faults");
        let _ = faults_rng.below(1000);
        let mut a = net_a.rng.clone();
        let mut b = net_b.rng.clone();
        for _ in 0..64 {
            assert_eq!(a.below(u64::MAX), b.below(u64::MAX));
        }
    }

    #[test]
    fn shape_draws_loss_then_dup_then_one_jitter_per_copy() {
        let mut path = ChaosPath::new(0.3, SimDuration::from_millis(10), 4).with_dup(0.5);
        let mut rng = SimRng::new(9);
        let mut model = rng.clone();
        for _ in 0..200 {
            let got: Vec<SimDuration> = path.shape(&mut rng).collect();
            // The same stream, drawn by hand in the documented order.
            let mut want = Vec::new();
            if !model.chance(0.3) {
                let copies = if model.chance(0.5) { 2 } else { 1 };
                for _ in 0..copies {
                    want.push(SimDuration::from_millis(10 + model.below(5)));
                }
            }
            assert_eq!(got, want);
        }
        path.apply(FaultAction::IfaceDown);
        let before = rng.clone().next_u64();
        assert_eq!(path.shape(&mut rng).count(), 0);
        assert_eq!(rng.next_u64(), before, "a downed path draws nothing");
    }
}
