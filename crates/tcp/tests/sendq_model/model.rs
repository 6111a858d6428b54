//! Reference model for `emptcp_tcp::SendQueue` and a seeded script that
//! drives queue and model side by side.
//!
//! The reference is the retransmission store `TcpEndpoint` held before
//! the queue: a `BTreeMap` keyed by sequence, a cumulative ACK taken with
//! `split_off` and the one straddling entry put back. Kept only here, as
//! what the queue must agree with.

// The tree is the reference, not the segment path the lint guards.
#![allow(clippy::disallowed_types)]

use emptcp_sim::{SimRng, SimTime};
use emptcp_tcp::{SendQueue, SentSeg};
use std::collections::BTreeMap;

const MSS: u64 = 1428;

#[derive(Default)]
struct Tree(BTreeMap<u64, SentSeg>);

impl Tree {
    /// Detach everything the cumulative `ack` fully covers, in order.
    fn take_acked(&mut self, ack: u64) -> Vec<SentSeg> {
        let keep = self.0.split_off(&ack);
        let mut acked = std::mem::replace(&mut self.0, keep);
        if let Some((&s, e)) = acked.last_key_value() {
            if s + e.space() > ack {
                let (s, e) = acked.pop_last().expect("entry just observed");
                self.0.insert(s, e);
            }
        }
        acked.into_values().collect()
    }
}

fn seg(payload: u32, syn: bool, fin: bool, at: u64) -> SentSeg {
    SentSeg {
        payload,
        syn,
        fin,
        ts: SimTime::from_nanos(at),
        retransmitted: false,
        sacked: false,
        lost: false,
    }
}

/// Drive a [`SendQueue`] and the tree through `steps` random operations;
/// panics on the first disagreement. Returns `(segments acknowledged,
/// ACKs that landed mid-segment)`.
pub fn check(seed: u64, steps: usize) -> (usize, usize) {
    let mut rng = SimRng::new(seed);
    let (mut queue, mut tree) = (SendQueue::new(), Tree::default());
    let (mut snd_una, mut snd_nxt) = (0u64, 0u64);
    let (mut acked_total, mut straddled) = (0usize, 0usize);

    // The handshake: a SYN at 0, removed by key when answered — sometimes
    // only after data was sent behind it (a SYN-ACK retransmitted late).
    queue.insert(0, seg(0, true, false, 0));
    tree.0.insert(0, seg(0, true, false, 0));
    snd_nxt += 1;
    let mut syn_pending = true;

    for step in 0..steps {
        let at = |what: &str| format!("seed {seed} step {step}: {what}");
        match rng.below(10) {
            // Send: one segment at snd_nxt, short ones and a FIN included.
            0..=3 => {
                let payload = if rng.chance(0.7) {
                    MSS
                } else {
                    1 + rng.below(MSS)
                } as u32;
                let s = seg(payload, false, rng.chance(0.02), step as u64);
                queue.insert(snd_nxt, s);
                tree.0.insert(snd_nxt, s);
                snd_nxt += s.space();
            }
            // Handshake removal.
            4 if syn_pending => {
                assert_eq!(queue.remove(0), tree.0.remove(&0), "{}", at("remove(0)"));
                syn_pending = false;
                snd_una = snd_una.max(1);
            }
            // Cumulative ACK: to a segment boundary or into a segment.
            4 | 5 if !syn_pending => {
                let ack = snd_una + rng.below(snd_nxt - snd_una + 1).min(rng.below(8 * MSS));
                let expect = tree.take_acked(ack);
                let mut got = Vec::new();
                while let Some(e) = queue.pop_acked(ack) {
                    got.push(e);
                }
                assert_eq!(got, expect, "{}", at(&format!("ack {ack}")));
                acked_total += got.len();
                straddled += usize::from(tree.0.range(..ack).next().is_some());
                snd_una = snd_una.max(ack);
            }
            // SACK block: mark what it wholly covers.
            6 | 7 => {
                let start = snd_una + rng.below(snd_nxt - snd_una + 1);
                let end = start + rng.below(6 * MSS);
                let mut got = Vec::new();
                for (s, e) in queue.range_mut(start, end) {
                    if !e.sacked && s + e.space() <= end {
                        e.sacked = true;
                        got.push(s);
                    }
                }
                let mut expect = Vec::new();
                for (&s, e) in tree.0.range_mut(start..end) {
                    if !e.sacked && s + e.space() <= end {
                        e.sacked = true;
                        expect.push(s);
                    }
                }
                assert_eq!(got, expect, "{}", at(&format!("sack {start}..{end}")));
            }
            // RTO sweep: everything un-SACKed is lost.
            8 => {
                let sweep = |e: &mut SentSeg| {
                    e.retransmitted = false;
                    e.lost = !e.sacked;
                };
                queue.iter_mut().for_each(|(_, e)| sweep(e));
                tree.0.values_mut().for_each(sweep);
            }
            // Re-record a live segment (a retransmission's new timestamp),
            // taken out and put back so it re-enters out of order.
            _ => {
                let keys: Vec<u64> = tree.0.keys().copied().collect();
                if let Some(&k) = keys.get(rng.below(keys.len().max(1) as u64) as usize) {
                    let stamp = |mut e: SentSeg| {
                        e.retransmitted = true;
                        e.ts = SimTime::from_nanos(step as u64);
                        e
                    };
                    if rng.chance(0.5) {
                        let (a, b) = (queue.remove(k), tree.0.remove(&k));
                        assert_eq!(a, b, "{}", at(&format!("remove({k})")));
                        assert!(!queue.contains_key(k), "{}", at("removed key answers"));
                        let e = stamp(a.expect("key taken from the tree"));
                        queue.insert(k, e);
                        tree.0.insert(k, e);
                    } else {
                        // Same key again: the entry is replaced.
                        let e = stamp(tree.0[&k]);
                        queue.insert(k, e);
                        tree.0.insert(k, e);
                    }
                }
            }
        }
        // Every lookup and the whole iteration agree after every step.
        assert_eq!(queue.is_empty(), tree.0.is_empty(), "{}", at("is_empty"));
        for _ in 0..4 {
            let probe = if rng.chance(0.5) {
                snd_una.saturating_sub(MSS) + rng.below(snd_nxt + 2 * MSS - snd_una)
            } else {
                let keys: Vec<u64> = tree.0.keys().copied().collect();
                keys.get(rng.below(keys.len().max(1) as u64) as usize)
                    .copied()
                    .unwrap_or(snd_nxt)
            };
            assert_eq!(
                queue.contains_key(probe),
                tree.0.contains_key(&probe),
                "{}",
                at(&format!("contains_key({probe})"))
            );
            assert_eq!(
                queue.get_mut(probe).copied(),
                tree.0.get_mut(&probe).copied(),
                "{}",
                at(&format!("get_mut({probe})"))
            );
        }
        let got: Vec<(u64, SentSeg)> = queue.iter_mut().map(|(s, e)| (s, *e)).collect();
        let expect: Vec<(u64, SentSeg)> = tree.0.iter().map(|(&s, &e)| (s, e)).collect();
        assert_eq!(got, expect, "{}", at("iteration"));
    }
    (acked_total, straddled)
}
