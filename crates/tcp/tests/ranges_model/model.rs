//! Reference model for `emptcp_tcp::RangeSet` and a seeded script that
//! drives set and model side by side.
//!
//! The reference is the set as it stood before it was flattened: a
//! `BTreeMap` from start to end, extended by a remove and an insert. Kept
//! only here, as what the flat set must agree with. Shared with the root
//! package's `workspace_smoke` through `#[path]`.

// The tree is the reference, not the segment path the lint guards.
#![allow(clippy::disallowed_types)]

use emptcp_sim::SimRng;
use emptcp_tcp::RangeSet;
use std::collections::BTreeMap;

const MSS: u64 = 1428;

/// Disjoint, non-touching `[start, end)` ranges keyed by `start`.
#[derive(Default)]
struct Tree {
    ranges: BTreeMap<u64, u64>,
    bytes: u64,
}

impl Tree {
    fn insert(&mut self, mut start: u64, mut end: u64) {
        if start >= end {
            return;
        }
        if let Some((&ps, &pe)) = self.ranges.range(..=start).next_back() {
            if pe >= start {
                if pe >= end {
                    return;
                }
                self.ranges.remove(&ps);
                self.bytes -= pe - ps;
                start = ps;
            }
        }
        while let Some((&ns, &ne)) = self.ranges.range(start..).next() {
            if ns > end {
                break;
            }
            self.ranges.remove(&ns);
            self.bytes -= ne - ns;
            end = end.max(ne);
        }
        self.ranges.insert(start, end);
        self.bytes += end - start;
    }

    fn pop_reaching(&mut self, pos: u64) -> Option<(u64, u64)> {
        let (&start, &end) = self.ranges.first_key_value()?;
        if start > pos {
            return None;
        }
        self.ranges.remove(&start);
        self.bytes -= end - start;
        Some((start, end))
    }

    fn first_from(&self, cursor: u64) -> Option<(u64, u64)> {
        self.ranges.range(cursor..).next().map(|(&s, &e)| (s, e))
    }
}

/// Every range `set` holds, in order, walked with `first_from`.
fn held(set: &RangeSet) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = 0;
    while let Some((s, e)) = set.first_from(cursor) {
        out.push((s, e));
        cursor = e;
    }
    out
}

/// Drive a [`RangeSet`] and the tree through `steps` random operations;
/// panics on the first disagreement. Returns `(inserts that merged two
/// or more held ranges, ranges popped)`.
pub fn check(seed: u64, steps: usize) -> (usize, usize) {
    let mut rng = SimRng::new(seed);
    let (mut set, mut tree) = (RangeSet::new(), Tree::default());
    // Everything below `floor` has been delivered in order.
    let mut floor = 0u64;
    let (mut merges, mut pops) = (0usize, 0usize);

    for step in 0..steps {
        let at = |what: &str| format!("seed {seed} step {step}: {what}");
        let ranges: Vec<(u64, u64)> = tree.ranges.iter().map(|(&s, &e)| (s, e)).collect();
        let pick = |rng: &mut SimRng| ranges[rng.below(ranges.len() as u64) as usize];
        let top = ranges.last().map_or(floor, |&(_, e)| e);
        let len = rng.below(3 * MSS);
        let insert = match rng.below(12) {
            // The common arrival: right behind the last range, or a
            // segment beyond it.
            0..=2 => {
                let gap = if rng.chance(0.6) {
                    0
                } else {
                    rng.below(4 * MSS)
                };
                Some((top + gap, top + gap + MSS))
            }
            // Anywhere from the floor to past the top (out of order).
            3 | 4 => {
                let s = floor + rng.below(top - floor + 4 * MSS);
                Some((s, s + len))
            }
            // Touching a held range at either end.
            5 if !ranges.is_empty() => {
                let (s, e) = pick(&mut rng);
                Some(if rng.chance(0.5) {
                    (e, e + len)
                } else {
                    (s.saturating_sub(len), s)
                })
            }
            // Covered by a held range.
            6 if !ranges.is_empty() => {
                let (s, e) = pick(&mut rng);
                let a = s + rng.below(e - s);
                Some((a, a + rng.below(e - a + 1)))
            }
            // Straddling one end of a held range.
            7 if !ranges.is_empty() => {
                let (s, e) = pick(&mut rng);
                let a = s + rng.below(e - s);
                Some(if rng.chance(0.5) {
                    (a, e + 1 + rng.below(2 * MSS))
                } else {
                    (s.saturating_sub(1 + rng.below(2 * MSS)), a + 1)
                })
            }
            // Spanning several held ranges at once.
            8 if ranges.len() >= 2 => {
                let (a, _) = pick(&mut rng);
                let (_, b) = pick(&mut rng);
                Some((
                    a.min(b).saturating_sub(rng.below(MSS)),
                    a.max(b) + rng.below(MSS),
                ))
            }
            // An empty range.
            9 => {
                let s = floor + rng.below(top - floor + MSS);
                Some((s, s - rng.below(2).min(s)))
            }
            // In-order delivery reaches a point: drain what it reaches.
            10 => {
                let pos = floor + rng.below(top - floor + MSS);
                loop {
                    let got = set.pop_reaching(pos);
                    assert_eq!(
                        got,
                        tree.pop_reaching(pos),
                        "{}",
                        at(&format!("pop_reaching({pos})"))
                    );
                    let Some((_, e)) = got else { break };
                    pops += 1;
                    floor = floor.max(e);
                }
                floor = floor.max(pos);
                None
            }
            // A SACK cursor: up to three blocks from a cursor, wrapping
            // to the lowest range as the endpoint does.
            _ => {
                let mut cursor = floor + rng.below(top - floor + MSS);
                for _ in 0..3 {
                    let got = set.first_from(cursor).or_else(|| set.first_from(0));
                    let expect = tree.first_from(cursor).or_else(|| tree.first_from(0));
                    assert_eq!(got, expect, "{}", at(&format!("first_from({cursor})")));
                    let Some((_, e)) = got else { break };
                    cursor = e;
                }
                None
            }
        };
        if let Some((start, end)) = insert {
            let before = tree.ranges.len();
            set.insert(start, end);
            tree.insert(start, end);
            merges += usize::from(tree.ranges.len() + 1 < before);
        }
        let expect: Vec<(u64, u64)> = tree.ranges.iter().map(|(&s, &e)| (s, e)).collect();
        assert_eq!(
            held(&set),
            expect,
            "{}",
            at(&format!("ranges after {insert:?}"))
        );
        assert_eq!(set.len(), tree.ranges.len(), "{}", at("len"));
        assert_eq!(set.bytes(), tree.bytes, "{}", at("bytes"));
        assert_eq!(set.is_empty(), tree.ranges.is_empty(), "{}", at("is_empty"));
    }
    (merges, pops)
}
