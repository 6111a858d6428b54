//! A rate-limited, queueing, lossy point-to-point link.
//!
//! Each direction of a network path is one `Link`: packets are serialized at
//! the link's current rate behind a drop-tail queue, then experience the
//! propagation delay. Random (wireless) loss is applied on entry, congestion
//! loss comes from the finite queue — which is what makes the TCP models
//! upstairs regulate themselves realistically.
//!
//! The link is poll-less: [`Link::enqueue`] immediately returns the delivery
//! time (or the drop), and the host schedules the arrival event. A rate
//! change re-serializes the queued backlog at the new rate from the change
//! instant, so queue occupancy (and therefore drop-tail behaviour) always
//! reflects the current rate; delivery times already handed out for
//! committed packets are unaffected.
//!
//! Loss is a pluggable [`LossModel`]: the classic i.i.d. Bernoulli channel,
//! or a Gilbert–Elliott two-state chain whose bad state produces the
//! correlated burst losses real radios exhibit during fades.

use emptcp_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static configuration of a link.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Serialization rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Drop-tail queue capacity in bytes (wire bytes awaiting serialization).
    pub queue_capacity: u64,
    /// Probability that an entering packet is lost to the channel
    /// (independent of queue state).
    pub loss_prob: f64,
}

impl LinkConfig {
    /// A generous wired backbone hop: used for the server's Ethernet side
    /// and for ACK-carrying reverse channels that are never the bottleneck.
    pub fn backbone(prop_delay: SimDuration) -> Self {
        LinkConfig {
            rate_bps: 1_000_000_000,
            prop_delay,
            queue_capacity: 4 * 1024 * 1024,
            loss_prob: 0.0,
        }
    }
}

/// Parameters of the Gilbert–Elliott two-state burst-loss channel. All
/// probabilities are per offered packet: the chain first takes one
/// transition step, then the packet is lost with the loss probability of
/// the state it landed in.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct GeParams {
    /// P(good -> bad) per packet.
    pub p_good_to_bad: f64,
    /// P(bad -> good) per packet.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GeParams {
    /// Long-run marginal loss probability of the chain.
    #[cfg(test)]
    fn steady_state_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_good_to_bad / denom;
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// How a link loses packets to the channel (independent of queue state).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum LossModel {
    /// Independent loss with a fixed probability (the historical model).
    Bernoulli(f64),
    /// Two-state burst loss: long good stretches punctuated by short bad
    /// bursts where most packets die, as produced by fades and contention.
    GilbertElliott(GeParams),
}

/// A [`LossModel`] plus its channel state. Shared by [`Link`] and by the
/// test rigs in `emptcp-faults`, so burst-loss semantics are identical in
/// both places.
#[derive(Clone, Debug)]
pub struct LossProcess {
    model: LossModel,
    in_bad: bool,
}

impl LossProcess {
    /// A process starting in the good state.
    pub fn new(model: LossModel) -> Self {
        LossProcess {
            model,
            in_bad: false,
        }
    }

    /// Replace the model; the burst state restarts in "good".
    pub fn set_model(&mut self, model: LossModel) {
        self.model = model;
        self.in_bad = false;
    }

    /// The model the process draws from.
    pub fn model(&self) -> LossModel {
        self.model
    }

    /// Loss probability the *next* packet would face before its transition
    /// step.
    #[cfg(test)]
    fn instantaneous_loss(&self) -> f64 {
        match self.model {
            LossModel::Bernoulli(p) => p,
            LossModel::GilbertElliott(g) => {
                if self.in_bad {
                    g.loss_bad
                } else {
                    g.loss_good
                }
            }
        }
    }

    /// Offer one packet: advance the chain, return whether it is lost.
    /// A `Bernoulli(0.0)` model consumes no randomness, preserving the
    /// historical stream positions of loss-free links.
    pub fn lost(&mut self, rng: &mut SimRng) -> bool {
        match self.model {
            LossModel::Bernoulli(p) => p > 0.0 && rng.chance(p),
            LossModel::GilbertElliott(g) => {
                let flip = if self.in_bad {
                    g.p_bad_to_good
                } else {
                    g.p_good_to_bad
                };
                if rng.chance(flip) {
                    self.in_bad = !self.in_bad;
                }
                let p = if self.in_bad { g.loss_bad } else { g.loss_good };
                p > 0.0 && rng.chance(p)
            }
        }
    }
}

/// Why a packet failed to enter the link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Lost to random channel error.
    Channel,
    /// Tail-dropped by the full queue.
    QueueFull,
    /// The link is administratively down (zero rate / out of range).
    LinkDown,
}

/// Result of offering a packet to the link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnqueueOutcome {
    /// Accepted; the packet arrives at the far end at this time.
    Delivered(SimTime),
    /// Dropped.
    Dropped(DropReason),
}

/// One direction of a point-to-point pipe.
#[derive(Clone, Debug)]
pub struct Link {
    /// What the link was built with: its nominal values.
    config: LinkConfig,
    rate_bps: u64,
    prop_delay: SimDuration,
    loss: LossProcess,
    /// When the serializer frees up.
    busy_until: SimTime,
    /// Wire bytes whose serialization completes in the future, for backlog
    /// accounting: `(serialization_end, bytes)`.
    backlog: VecDeque<(SimTime, u64)>,
    backlog_bytes: u64,
    /// Counters for diagnostics and tests.
    delivered_packets: u64,
    dropped_channel: u64,
    dropped_queue: u64,
}

impl Link {
    /// A link with the given configuration, idle at time zero.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            rate_bps: config.rate_bps,
            prop_delay: config.prop_delay,
            loss: LossProcess::new(LossModel::Bernoulli(config.loss_prob)),
            busy_until: SimTime::ZERO,
            backlog: VecDeque::new(),
            backlog_bytes: 0,
            delivered_packets: 0,
            dropped_channel: 0,
            dropped_queue: 0,
        }
    }

    /// The configuration the link was built with (its nominal values;
    /// the setters below move the current ones away from it).
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Current serialization rate.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Change the serialization rate (bandwidth modulation, contention,
    /// mobility, fault injection). Zero means the link is down.
    ///
    /// The still-queued backlog is re-serialized at the new rate starting at
    /// `now`: without this, a rate collapse would leave serialization-end
    /// times computed at the old (fast) rate — or, worse, a later rate
    /// *recovery* would leave far-future end times computed at the collapsed
    /// rate, permanently stranding the queue at full occupancy so every new
    /// packet tail-drops. Delivery times already returned for committed
    /// packets are unaffected; only queue accounting is rewritten.
    pub fn set_rate_bps(&mut self, now: SimTime, rate_bps: u64) {
        if rate_bps == self.rate_bps {
            return;
        }
        self.rate_bps = rate_bps;
        self.backlog_bytes(now); // drop the already-serialized prefix
        if rate_bps == 0 {
            // Down: new packets are refused before touching the serializer;
            // packets already committed keep their old drain schedule.
            return;
        }
        let mut cursor = now;
        for entry in self.backlog.iter_mut() {
            cursor += SimDuration::transmission(entry.1, rate_bps);
            entry.0 = cursor;
        }
        self.busy_until = cursor;
    }

    /// Change the random loss probability (contention raises it). This
    /// installs an i.i.d. [`LossModel::Bernoulli`] channel, replacing any
    /// burst-loss model.
    pub fn set_loss_prob(&mut self, p: f64) {
        self.loss.set_model(LossModel::Bernoulli(p.clamp(0.0, 1.0)));
    }

    /// Install an arbitrary loss model (fault injection uses this to toggle
    /// Gilbert–Elliott burst loss). The burst state restarts in "good".
    pub fn set_loss_model(&mut self, model: LossModel) {
        self.loss.set_model(model);
    }

    /// The loss model currently installed.
    pub fn loss_model(&self) -> LossModel {
        self.loss.model()
    }

    /// One-way propagation delay.
    pub fn prop_delay(&self) -> SimDuration {
        self.prop_delay
    }

    /// Drop-tail queue capacity in bytes.
    pub fn queue_capacity(&self) -> u64 {
        self.config.queue_capacity
    }

    /// Change the propagation delay (e.g. a different server location).
    pub fn set_prop_delay(&mut self, d: SimDuration) {
        self.prop_delay = d;
    }

    /// Bytes queued ahead of a packet arriving at `now`.
    pub fn backlog_bytes(&mut self, now: SimTime) -> u64 {
        while let Some(&(end, bytes)) = self.backlog.front() {
            if end <= now {
                self.backlog.pop_front();
                self.backlog_bytes -= bytes;
            } else {
                break;
            }
        }
        self.backlog_bytes
    }

    /// Offer a packet of `wire_bytes` to the link at `now`.
    pub fn enqueue(&mut self, now: SimTime, wire_bytes: u64, rng: &mut SimRng) -> EnqueueOutcome {
        if self.rate_bps == 0 {
            return EnqueueOutcome::Dropped(DropReason::LinkDown);
        }
        if self.loss.lost(rng) {
            self.dropped_channel += 1;
            return EnqueueOutcome::Dropped(DropReason::Channel);
        }
        if self.backlog_bytes(now) + wire_bytes > self.config.queue_capacity {
            self.dropped_queue += 1;
            return EnqueueOutcome::Dropped(DropReason::QueueFull);
        }
        let start = self.busy_until.max(now);
        let tx = SimDuration::transmission(wire_bytes, self.rate_bps);
        let serialized = start + tx;
        self.busy_until = serialized;
        self.backlog.push_back((serialized, wire_bytes));
        self.backlog_bytes += wire_bytes;
        self.delivered_packets += 1;
        EnqueueOutcome::Delivered(serialized + self.prop_delay)
    }

    /// Packets accepted so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Packets lost to channel error so far.
    pub fn dropped_channel(&self) -> u64 {
        self.dropped_channel
    }

    /// Packets tail-dropped so far.
    pub fn dropped_queue(&self) -> u64 {
        self.dropped_queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless(rate_bps: u64, delay_ms: u64) -> Link {
        Link::new(LinkConfig {
            rate_bps,
            prop_delay: SimDuration::from_millis(delay_ms),
            queue_capacity: 64 * 1024,
            loss_prob: 0.0,
        })
    }

    #[test]
    fn single_packet_latency() {
        let mut link = lossless(12_000_000, 10); // 1500 B = 1 ms serialization
        let mut rng = SimRng::new(1);
        match link.enqueue(SimTime::ZERO, 1500, &mut rng) {
            EnqueueOutcome::Delivered(t) => assert_eq!(t, SimTime::from_millis(11)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serialization_queues_back_to_back() {
        let mut link = lossless(12_000_000, 0);
        let mut rng = SimRng::new(1);
        let t1 = match link.enqueue(SimTime::ZERO, 1500, &mut rng) {
            EnqueueOutcome::Delivered(t) => t,
            _ => unreachable!(),
        };
        let t2 = match link.enqueue(SimTime::ZERO, 1500, &mut rng) {
            EnqueueOutcome::Delivered(t) => t,
            _ => unreachable!(),
        };
        assert_eq!(t1, SimTime::from_millis(1));
        assert_eq!(t2, SimTime::from_millis(2));
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = Link::new(LinkConfig {
            rate_bps: 1_000_000,
            prop_delay: SimDuration::ZERO,
            queue_capacity: 3000,
            loss_prob: 0.0,
        });
        let mut rng = SimRng::new(1);
        assert!(matches!(
            link.enqueue(SimTime::ZERO, 1500, &mut rng),
            EnqueueOutcome::Delivered(_)
        ));
        assert!(matches!(
            link.enqueue(SimTime::ZERO, 1500, &mut rng),
            EnqueueOutcome::Delivered(_)
        ));
        assert_eq!(
            link.enqueue(SimTime::ZERO, 1500, &mut rng),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        assert_eq!(link.dropped_queue(), 1);
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut link = Link::new(LinkConfig {
            rate_bps: 12_000_000,
            prop_delay: SimDuration::ZERO,
            queue_capacity: 4500,
            loss_prob: 0.0,
        });
        let mut rng = SimRng::new(1);
        for _ in 0..3 {
            assert!(matches!(
                link.enqueue(SimTime::ZERO, 1500, &mut rng),
                EnqueueOutcome::Delivered(_)
            ));
        }
        assert_eq!(link.backlog_bytes(SimTime::ZERO), 4500);
        // After 2 ms, two packets have serialized.
        assert_eq!(link.backlog_bytes(SimTime::from_millis(2)), 1500);
        assert!(matches!(
            link.enqueue(SimTime::from_millis(2), 1500, &mut rng),
            EnqueueOutcome::Delivered(_)
        ));
    }

    #[test]
    fn channel_loss_rate_is_respected() {
        let mut link = Link::new(LinkConfig {
            rate_bps: 1_000_000_000,
            prop_delay: SimDuration::ZERO,
            queue_capacity: u64::MAX,
            loss_prob: 0.1,
        });
        let mut rng = SimRng::new(5);
        let mut t = SimTime::ZERO;
        let mut lost = 0;
        for _ in 0..50_000 {
            if matches!(
                link.enqueue(t, 1500, &mut rng),
                EnqueueOutcome::Dropped(DropReason::Channel)
            ) {
                lost += 1;
            }
            t += SimDuration::from_micros(100);
        }
        let rate = lost as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn zero_rate_means_down() {
        let mut link = lossless(1_000_000, 0);
        link.set_rate_bps(SimTime::ZERO, 0);
        let mut rng = SimRng::new(1);
        assert_eq!(
            link.enqueue(SimTime::ZERO, 100, &mut rng),
            EnqueueOutcome::Dropped(DropReason::LinkDown)
        );
    }

    #[test]
    fn rate_change_reserializes_backlog() {
        let mut link = lossless(12_000_000, 0);
        let mut rng = SimRng::new(1);
        link.enqueue(SimTime::ZERO, 1500, &mut rng); // would serialize by 1 ms
        link.set_rate_bps(SimTime::ZERO, 1_200_000); // 10x slower
                                                     // The queued packet now occupies the serializer until 10 ms, so the
                                                     // next packet waits behind it and takes another 10 ms itself.
        match link.enqueue(SimTime::ZERO, 1500, &mut rng) {
            EnqueueOutcome::Delivered(t) => assert_eq!(t, SimTime::from_millis(20)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rate_recovery_does_not_strand_queue() {
        // Regression: fill the queue at a collapsed rate, restore the rate,
        // and verify the queue drains instead of tail-dropping forever
        // behind serialization-end times computed at the slow rate.
        let mut link = Link::new(LinkConfig {
            rate_bps: 10_000, // collapsed: 1500 B takes 1.2 s
            prop_delay: SimDuration::ZERO,
            queue_capacity: 6000,
            loss_prob: 0.0,
        });
        let mut rng = SimRng::new(1);
        for _ in 0..4 {
            assert!(matches!(
                link.enqueue(SimTime::ZERO, 1500, &mut rng),
                EnqueueOutcome::Delivered(_)
            ));
        }
        assert_eq!(
            link.enqueue(SimTime::ZERO, 1500, &mut rng),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        // Recover to 12 Mbps at t = 100 ms: the backlog re-serializes at
        // 1 ms per packet, so by t = 105 ms the queue must be empty again.
        let t = SimTime::from_millis(100);
        link.set_rate_bps(t, 12_000_000);
        assert_eq!(link.backlog_bytes(SimTime::from_millis(105)), 0);
        assert!(matches!(
            link.enqueue(SimTime::from_millis(105), 1500, &mut rng),
            EnqueueOutcome::Delivered(_)
        ));
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same marginal loss, radically different clustering: measure the
        // mean run length of consecutive losses under GE vs Bernoulli.
        let ge = GeParams {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.1,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        let marginal = ge.steady_state_loss();
        let mean_run = |mut process: LossProcess, seed: u64| {
            let mut rng = SimRng::new(seed);
            let (mut runs, mut losses, mut in_run) = (0u64, 0u64, false);
            for _ in 0..200_000 {
                if process.lost(&mut rng) {
                    losses += 1;
                    if !in_run {
                        runs += 1;
                        in_run = true;
                    }
                } else {
                    in_run = false;
                }
            }
            (losses as f64 / 200_000.0, losses as f64 / runs as f64)
        };
        let (ge_rate, ge_run) = mean_run(LossProcess::new(LossModel::GilbertElliott(ge)), 31);
        let (_, iid_run) = mean_run(LossProcess::new(LossModel::Bernoulli(marginal)), 31);
        assert!((ge_rate - marginal).abs() < 0.01, "marginal {ge_rate}");
        assert!(
            ge_run > 1.5 * iid_run,
            "GE run {ge_run} should exceed iid run {iid_run}"
        );
    }

    #[test]
    fn loss_model_switch_resets_burst_state() {
        let ge = GeParams {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut p = LossProcess::new(LossModel::GilbertElliott(ge));
        let mut rng = SimRng::new(3);
        assert!(p.lost(&mut rng)); // first packet flips to bad and dies
        assert_eq!(p.instantaneous_loss(), 1.0);
        p.set_model(LossModel::GilbertElliott(ge));
        assert_eq!(p.instantaneous_loss(), 0.0, "back in the good state");
    }

    #[test]
    fn backbone_config_is_forgiving() {
        let cfg = LinkConfig::backbone(SimDuration::from_millis(5));
        let mut link = Link::new(cfg);
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            assert!(matches!(
                link.enqueue(SimTime::ZERO, 1500, &mut rng),
                EnqueueOutcome::Delivered(_)
            ));
        }
        assert_eq!(link.dropped_queue() + link.dropped_channel(), 0);
    }
}
