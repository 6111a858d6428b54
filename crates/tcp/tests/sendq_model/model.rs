//! Reference model for `emptcp_tcp::SendQueue` and a seeded script that
//! drives queue and model side by side.
//!
//! The reference is the scoreboard `TcpEndpoint` kept before the queue
//! owned it: a `BTreeMap` keyed by sequence whose entries carry their own
//! marks, a cumulative ACK taken with `split_off` and the one straddling
//! entry put back, and a sorted set of the sequences awaiting
//! retransmission beside it. The SACKed and lost totals are folded from
//! the marks after every step rather than kept, so a total the queue lets
//! drift from its marks shows. Kept only here, as what the queue must
//! agree with.

// The trees are the reference, not the segment path the lint guards.
#![allow(clippy::disallowed_types)]

use emptcp_sim::{SimRng, SimTime};
use emptcp_tcp::{SendQueue, SentSeg};
use std::collections::{BTreeMap, BTreeSet};

const MSS: u64 = 1428;

/// One segment and its marks, as the endpoint kept them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    seg: SentSeg,
    retransmitted: bool,
    sacked: bool,
    lost: bool,
}

#[derive(Default)]
struct Tree {
    segs: BTreeMap<u64, Entry>,
    /// Sequences awaiting retransmission.
    queued: BTreeSet<u64>,
}

impl Tree {
    /// Detach everything the cumulative `ack` fully covers and forget
    /// every queued sequence below it; returns the payload acknowledged.
    fn ack(&mut self, ack: u64) -> u64 {
        let keep = self.segs.split_off(&ack);
        let mut acked = std::mem::replace(&mut self.segs, keep);
        if let Some((&s, e)) = acked.last_key_value() {
            if s + e.seg.space() > ack {
                let (s, e) = acked.pop_last().expect("entry just observed");
                self.segs.insert(s, e);
            }
        }
        self.queued = self.queued.split_off(&ack);
        acked.values().map(|e| e.seg.payload as u64).sum()
    }

    fn sack(&mut self, start: u64, end: u64) {
        for (&s, e) in self.segs.range_mut(start..end) {
            if !e.sacked && s + e.seg.space() <= end {
                e.sacked = true;
                e.lost = false;
                self.queued.remove(&s);
            }
        }
    }

    fn queue_holes(&mut self, below: u64) {
        for (&s, e) in self.segs.range_mut(..below) {
            if !e.sacked && !e.retransmitted && self.queued.insert(s) {
                e.lost = true;
            }
        }
    }

    fn queue(&mut self, seq: u64, lost: bool) {
        if let Some(e) = self.segs.get_mut(&seq) {
            e.lost |= lost;
            self.queued.insert(seq);
        }
    }

    fn rto_sweep(&mut self) {
        self.queued.clear();
        for (&s, e) in &mut self.segs {
            e.retransmitted = false;
            e.lost = !e.sacked;
            if e.lost {
                self.queued.insert(s);
            }
        }
    }

    fn retransmit(&mut self, now: SimTime) -> Option<(u64, SentSeg)> {
        let seq = self.queued.pop_first()?;
        let e = self.segs.get_mut(&seq).expect("queued sequences are held");
        e.retransmitted = true;
        e.lost = false;
        e.seg.ts = now;
        Some((seq, e.seg))
    }

    /// Sequence space of the entries `mark` picks.
    fn total(&self, mark: impl Fn(&Entry) -> bool) -> u64 {
        self.segs
            .values()
            .filter(|e| mark(e))
            .map(|e| e.seg.space())
            .sum()
    }
}

/// What a script exercised, so the property can insist on coverage.
#[derive(Debug, Default)]
pub struct Coverage {
    /// Segments acknowledged.
    pub acked: usize,
    /// ACKs that landed inside a queued segment.
    pub straddled_queued: usize,
    /// RTO sweeps.
    pub rto_sweeps: usize,
    /// Retransmissions taken.
    pub retransmits: usize,
    /// Lost bytes taken back by a SACK.
    pub sacked_lost: usize,
}

/// The queue's segment with its marks, in the reference's shape.
fn observed(seg: SentSeg) -> (Entry, bool) {
    let entry = Entry {
        seg: SentSeg::new(seg.payload, seg.syn, seg.fin, seg.ts),
        retransmitted: seg.retransmitted(),
        sacked: seg.sacked(),
        lost: seg.lost(),
    };
    (entry, seg.queued())
}

/// Drive a [`SendQueue`] and the reference through `steps` random
/// operations; panics on the first disagreement.
pub fn check(seed: u64, steps: usize) -> Coverage {
    let mut rng = SimRng::new(seed);
    let (mut queue, mut tree) = (SendQueue::new(), Tree::default());
    let (mut snd_una, mut snd_nxt) = (0u64, 0u64);
    let mut seen = Coverage::default();

    let send = |queue: &mut SendQueue, tree: &mut Tree, seq: u64, seg: SentSeg| {
        queue.push(seq, seg);
        let entry = Entry {
            seg,
            retransmitted: false,
            sacked: false,
            lost: false,
        };
        tree.segs.insert(seq, entry);
    };

    // The handshake: a SYN at 0, taken off by the ACK of 1 — sometimes
    // only after the RTO swept it onto the retransmission queue.
    send(
        &mut queue,
        &mut tree,
        0,
        SentSeg::new(0, true, false, SimTime::ZERO),
    );
    snd_nxt += 1;
    let mut syn_pending = true;

    for step in 0..steps {
        let at = |what: &str| format!("seed {seed} step {step}: {what}");
        let now = SimTime::from_nanos(step as u64);
        match rng.below(12) {
            // Send: one segment at snd_nxt, short ones and a FIN included.
            0..=2 if !syn_pending => {
                let payload = if rng.chance(0.7) {
                    MSS
                } else {
                    1 + rng.below(MSS)
                } as u32;
                let seg = SentSeg::new(payload, false, rng.chance(0.02), now);
                send(&mut queue, &mut tree, snd_nxt, seg);
                snd_nxt += seg.space();
            }
            // The handshake's ACK.
            0..=3 if syn_pending => {
                assert_eq!(queue.ack(1), tree.ack(1), "{}", at("ack(1)"));
                (syn_pending, snd_una) = (false, 1);
            }
            // Cumulative ACK: to a segment boundary or into a segment.
            3 | 4 => {
                let ack = snd_una + rng.below(snd_nxt - snd_una + 1).min(rng.below(8 * MSS));
                let straddled = tree.segs.range(..ack).next_back();
                if straddled.is_some_and(|(&s, e)| s + e.seg.space() > ack) {
                    let &s = straddled.expect("just observed").0;
                    seen.straddled_queued += usize::from(tree.queued.contains(&s));
                }
                let before = tree.segs.len();
                assert_eq!(
                    queue.ack(ack),
                    tree.ack(ack),
                    "{}",
                    at(&format!("ack {ack}"))
                );
                seen.acked += before - tree.segs.len();
                snd_una = snd_una.max(ack);
            }
            // SACK block: mark what it wholly covers.
            5 | 6 => {
                let start = snd_una + rng.below(snd_nxt - snd_una + 1);
                let end = start + rng.below(6 * MSS);
                let lost_before = tree.total(|e| e.lost);
                queue.sack(start, end);
                tree.sack(start, end);
                seen.sacked_lost += usize::from(tree.total(|e| e.lost) < lost_before);
            }
            // Queue the holes below a SACK high-water mark.
            7 => {
                let below = snd_una + rng.below(snd_nxt - snd_una + 1);
                queue.queue_holes(below);
                tree.queue_holes(below);
            }
            // Queue one segment (the one at snd_una, or a miss), lost or not.
            8 => {
                let seq = snd_una + rng.below(2) * rng.below(2 * MSS);
                let lost = rng.chance(0.5);
                queue.queue(seq, lost);
                tree.queue(seq, lost);
            }
            // RTO sweep: everything un-SACKed is lost and queued.
            9 => {
                queue.rto_sweep();
                tree.rto_sweep();
                seen.rto_sweeps += 1;
            }
            // Take the next retransmission.
            _ => {
                let got = queue.retransmit(now).map(|(s, e)| (s, observed(e).0.seg));
                assert_eq!(got, tree.retransmit(now), "{}", at("retransmit"));
                seen.retransmits += usize::from(got.is_some());
            }
        }
        // The segments, their marks, both totals and the next
        // retransmission agree after every step.
        assert_eq!(queue.is_empty(), tree.segs.is_empty(), "{}", at("is_empty"));
        let got: Vec<(u64, (Entry, bool))> = queue.iter().map(|(s, e)| (s, observed(e))).collect();
        let expect: Vec<(u64, (Entry, bool))> = tree
            .segs
            .iter()
            .map(|(&s, &e)| (s, (e, tree.queued.contains(&s))))
            .collect();
        assert_eq!(got, expect, "{}", at("scoreboard"));
        assert_eq!(
            queue.sacked_bytes(),
            tree.total(|e| e.sacked),
            "{}",
            at("sacked bytes")
        );
        assert_eq!(
            queue.lost_bytes(),
            tree.total(|e| e.lost),
            "{}",
            at("lost bytes")
        );
        assert_eq!(
            queue.next_retx(),
            tree.queued.first().copied(),
            "{}",
            at("next retransmission")
        );
    }
    seen
}
