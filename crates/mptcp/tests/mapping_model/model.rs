//! Reference models for the run-length tables in `emptcp_mptcp::mapping`,
//! and seeded scripts that drive table and model side by side.
//!
//! The references are the tables `Subflow` and `MpConnection` held before
//! runs: one `BTreeMap` entry per push, one per arriving DSS, and a
//! byte-by-byte reorder set. The receive reference keeps the old `Vec`
//! form of translation, one delivered range at a time, which the
//! visitor over a whole arrival's range must agree with. They are O(window) in memory and kept only
//! here, as what the O(runs) tables must agree with. Shared with the root
//! package's `workspace_smoke` through `#[path]`.

// The tree is the reference, not the segment path the lint guards.
#![allow(clippy::disallowed_types)]

use emptcp_mptcp::{DataReassembly, RxMappings, TxMappings};
use emptcp_sim::SimRng;
use emptcp_tcp::Dss;
use std::collections::{BTreeMap, BTreeSet};

const MSS: u64 = 1428;

/// Sender-side reference: subflow-seq → (data-seq, len), one per push.
#[derive(Default)]
struct PerPushTx(BTreeMap<u64, (u64, u32)>);

impl PerPushTx {
    fn push(&mut self, subflow_seq: u64, data_seq: u64, len: u32) {
        self.0.insert(subflow_seq, (data_seq, len));
    }

    fn dss(&self, seq: u64, len: u32, data_ack: u64) -> Option<Dss> {
        let (&start, &(data_seq, map_len)) = self.0.range(..=seq).next_back()?;
        if seq + len as u64 > start + map_len as u64 {
            return None;
        }
        Some(Dss {
            data_seq: data_seq + (seq - start),
            len,
            data_ack,
        })
    }

    fn unacked(&self, una: u64) -> Vec<(u64, u32)> {
        self.0
            .iter()
            .filter_map(|(&start, &(data_seq, len))| {
                let end = start + len as u64;
                if end <= una {
                    None
                } else if start >= una {
                    Some((data_seq, len))
                } else {
                    let skip = una - start;
                    Some((data_seq + skip, (len as u64 - skip) as u32))
                }
            })
            .collect()
    }

    fn gc(&mut self, una: u64) {
        while let Some((&start, &(_, len))) = self.0.first_key_value() {
            if start + len as u64 > una {
                break;
            }
            self.0.remove(&start);
        }
    }
}

/// Receiver-side reference: one entry per DSS option seen.
#[derive(Default)]
struct PerSegmentRx(BTreeMap<u64, (u64, u32)>);

impl PerSegmentRx {
    fn learn(&mut self, subflow_seq: u64, dss: Dss) {
        if dss.len > 0 {
            self.0.insert(subflow_seq, (dss.data_seq, dss.len));
        }
    }

    fn translate(&self, seq: u64, len: u32) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut pos = seq;
        let end = seq + len as u64;
        while pos < end {
            let Some((&start, &(data_seq, map_len))) = self.0.range(..=pos).next_back() else {
                break;
            };
            let map_end = start + map_len as u64;
            if pos >= map_end {
                break;
            }
            let take = (end.min(map_end) - pos) as u32;
            out.push((data_seq + (pos - start), take));
            pos += take as u64;
        }
        out
    }

    fn gc(&mut self, delivered_to: u64) {
        while let Some((&start, &(_, len))) = self.0.first_key_value() {
            if start + len as u64 > delivered_to {
                break;
            }
            self.0.remove(&start);
        }
    }
}

/// What a scheduler does to one subflow: bursts of consecutive chunks,
/// mostly full-MSS with the odd window-limited one, the data sequence
/// jumping forward when another subflow took chunks in between and
/// backward when a stalled range is reinjected here.
struct Pusher {
    push_seq: u64,
    data_next: u64,
}

impl Pusher {
    fn next(&mut self, rng: &mut SimRng) -> (u64, u64, u32) {
        let len = match rng.below(10) {
            0..=6 => MSS,
            7 | 8 => 1 + rng.below(MSS),
            _ => 1 + rng.below(64),
        } as u32;
        let data_seq = match rng.below(12) {
            0 => self.data_next + MSS * (1 + rng.below(20)),
            1 => rng.below(self.data_next + 1),
            _ => self.data_next,
        };
        let at = self.push_seq;
        self.push_seq += len as u64;
        self.data_next = data_seq + len as u64;
        (at, data_seq, len)
    }
}

/// Drive [`TxMappings`] and the per-push reference through `steps` random
/// pushes, cumulative-ACK advances and lookups; panics on the first
/// answer that differs. Returns `(pushes made, most runs held)`.
pub fn check_tx(seed: u64, steps: usize) -> (usize, usize) {
    let mut rng = SimRng::new(seed);
    let (mut runs, mut model) = (TxMappings::default(), PerPushTx::default());
    let mut pusher = Pusher {
        push_seq: 1,
        data_next: 0,
    };
    let (mut una, mut pushes, mut high_water) = (1u64, 0usize, 0usize);
    let mut live: Vec<(u64, u32)> = Vec::new();
    for step in 0..steps {
        if rng.below(4) > 0 {
            let (at, data_seq, len) = pusher.next(&mut rng);
            runs.push(at, data_seq, len);
            model.push(at, data_seq, len);
            live.push((at, len));
            pushes += 1;
        } else {
            una += rng
                .below(pusher.push_seq - una + 1)
                .min(rng.below(12 * MSS));
            runs.gc(una);
            model.gc(una);
            live.retain(|&(at, len)| at + len as u64 > una);
        }
        high_water = high_water.max(runs.len());
        assert_eq!(
            runs.unacked(una),
            model.unacked(una),
            "seed {seed} step {step}: unacked ranges at una {una}"
        );
        for _ in 0..4 {
            // Half the lookups land inside a live push (a segment or a
            // retransmitted part of one), half anywhere near the table.
            let (seq, len) = if !live.is_empty() && rng.chance(0.5) {
                let (at, len) = live[rng.below(live.len() as u64) as usize];
                let off = rng.below(len as u64);
                (at + off, 1 + rng.below(len as u64 - off) as u32)
            } else {
                let lo = una.saturating_sub(2 * MSS);
                (
                    lo + rng.below(pusher.push_seq + MSS - lo),
                    1 + rng.below(MSS) as u32,
                )
            };
            assert_eq!(
                runs.dss(seq, len, 7),
                model.dss(seq, len, 7),
                "seed {seed} step {step}: dss({seq}, {len})"
            );
        }
    }
    (pushes, high_water)
}

/// What [`RxMappings::translate_each`] visits for `[seq, seq + len)`, in
/// order; its count of bytes visited must be what it visited.
fn visit(runs: &RxMappings, seq: u64, len: u32) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    let mapped = runs.translate_each(seq, len, |data_seq, len| out.push((data_seq, len)));
    assert_eq!(mapped, out.iter().map(|r| r.1 as u64).sum::<u64>());
    out
}

/// Ranges as a canonical byte set: sorted, touching ranges joined.
fn byte_set(ranges: &[(u64, u32)]) -> Vec<(u64, u64)> {
    let mut spans: Vec<(u64, u64)> = ranges.iter().map(|&(s, l)| (s, s + l as u64)).collect();
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in spans {
        match out.last_mut() {
            Some(last) if last.1 >= s => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Drive [`RxMappings`] and the per-segment reference through the DSS
/// options of `pushes` scheduled chunks arriving reordered, duplicated and
/// late (retransmitted), with in-order delivery advancing behind them;
/// panics when the byte sets of a translation differ. Returns `(DSS
/// options learned, most runs held)`.
pub fn check_rx(seed: u64, pushes: usize) -> (usize, usize) {
    let mut rng = SimRng::new(seed);
    let (mut runs, mut model) = (RxMappings::default(), PerSegmentRx::default());
    let mut pusher = Pusher {
        push_seq: 1,
        data_next: 0,
    };
    // One segment per push, as the connection emits them.
    let wire: Vec<(u64, Dss)> = (0..pushes)
        .map(|_| {
            let (at, data_seq, len) = pusher.next(&mut rng);
            (
                at,
                Dss {
                    data_seq,
                    len,
                    data_ack: 0,
                },
            )
        })
        .collect();
    let stream_end = pusher.push_seq;
    // Arrival order: local reordering, some segments held back a long way
    // (lost and retransmitted), some delivered twice.
    let mut arrivals = Vec::new();
    let mut late = Vec::new();
    for (i, seg) in wire.into_iter().enumerate() {
        if rng.chance(0.05) {
            late.push((i + 5 + rng.below(60) as usize, seg));
            continue;
        }
        arrivals.push(seg);
        if rng.chance(0.1) {
            arrivals.push(seg);
        }
        let n = arrivals.len();
        if n >= 2 && rng.chance(0.2) {
            arrivals.swap(n - 1, n - 2);
        }
        late.retain(|&(due, held)| {
            if due <= i {
                arrivals.push(held);
            }
            due > i
        });
    }
    arrivals.extend(late.into_iter().map(|(_, seg)| seg));

    let mut ends = BTreeMap::new(); // subflow start → end of what arrived
    let (mut delivered_to, mut learned, mut high_water) = (1u64, 0usize, 0usize);
    for (step, (seq, dss)) in arrivals.into_iter().enumerate() {
        runs.learn(seq, dss);
        model.learn(seq, dss);
        ends.insert(seq, seq + dss.len as u64);
        learned += 1;
        high_water = high_water.max(runs.len());
        // TCP delivers in order what has arrived contiguously.
        let mut contiguous = delivered_to;
        while let Some(&end) = ends.get(&contiguous) {
            contiguous = end;
        }
        if contiguous > delivered_to && rng.chance(0.6) {
            let to = delivered_to + 1 + rng.below(contiguous - delivered_to);
            // The endpoint hands over one range per arrival; the reference
            // translates range by range, the arriving segment first and the
            // backlog it released after, as the endpoint once reported them.
            let cut = ends.get(&delivered_to).map_or(to, |&end| end.min(to));
            let got = visit(&runs, delivered_to, (to - delivered_to) as u32);
            let mut want = model.translate(delivered_to, (cut - delivered_to) as u32);
            want.extend(model.translate(cut, (to - cut) as u32));
            assert_eq!(
                byte_set(&got),
                byte_set(&want),
                "seed {seed} step {step}: delivered [{delivered_to}, {to})"
            );
            assert_eq!(
                got.iter().map(|r| r.1 as u64).sum::<u64>(),
                to - delivered_to,
                "seed {seed} step {step}: every delivered byte is mapped once"
            );
            delivered_to = to;
            runs.gc(delivered_to);
            model.gc(delivered_to);
        }
        // And anywhere ahead of delivery, holes included.
        let from = delivered_to + rng.below(stream_end - delivered_to + MSS);
        let len = 1 + rng.below(6 * MSS) as u32;
        assert_eq!(
            byte_set(&visit(&runs, from, len)),
            byte_set(&model.translate(from, len)),
            "seed {seed} step {step}: lookahead [{from}, +{len})"
        );
    }
    (learned, high_water)
}

/// Drive [`DataReassembly`] and a byte-by-byte reorder set through `steps`
/// random ranges (overlapping, duplicated, ahead of and behind the
/// in-order point); panics when a return value, the in-order point or the
/// number of held ranges differs. Returns the most ranges held at once.
pub fn check_reassembly(seed: u64, steps: usize) -> usize {
    let mut rng = SimRng::new(seed);
    let mut set = DataReassembly::default();
    let (mut rcv_nxt, mut beyond) = (0u64, BTreeSet::new());
    for step in 0..steps {
        let seq = (rcv_nxt + rng.below(4000)).saturating_sub(rng.below(1200));
        let len = 1 + rng.below(600) as u32;
        // Naive: remember every byte, then walk the in-order point up.
        beyond.extend((seq..seq + len as u64).filter(|&b| b >= rcv_nxt));
        let before = rcv_nxt;
        while beyond.remove(&rcv_nxt) {
            rcv_nxt += 1;
        }
        assert_eq!(
            set.receive(seq, len),
            rcv_nxt - before,
            "seed {seed} step {step}: receive({seq}, {len})"
        );
        assert_eq!(set.rcv_nxt(), rcv_nxt, "seed {seed} step {step}");
        let islands = beyond
            .iter()
            .filter(|&&b| !beyond.contains(&(b - 1)))
            .count();
        assert_eq!(set.ooo_ranges(), islands, "seed {seed} step {step}");
    }
    set.ooo_high_water()
}
