//! The traced run's span store.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! pass it belongs to. Coarse spans (a pass, an exhibit job, a probe, a
//! fleet variant) are kept raw. Fine ones (one per frame, one per epoch
//! call) would be millions of records, so their owners fold them as they
//! happen into a [`Folded`] — count, total and a log2 histogram — and
//! hand that to the tracer once, under the coarse span they ran inside.
//! Everything stays in memory until [`Tracer::to_json`] at exit.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// log2 buckets of nanoseconds: bucket `i` holds durations in
/// `[2^i, 2^(i+1))`, bucket 0 also holds zero. 2^39 ns is nine minutes.
const BUCKETS: usize = 40;

/// Many spans of one name, folded as they happen.
#[derive(Clone, Debug)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    hist: [u64; BUCKETS],
}

impl Default for Folded {
    fn default() -> Folded {
        Folded {
            count: 0,
            total_ns: 0,
            hist: [0; BUCKETS],
        }
    }
}

impl Folded {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        let bucket = (63 - (ns | 1).leading_zeros()) as usize;
        self.hist[bucket.min(BUCKETS - 1)] += 1;
    }

    /// Time a call and fold it.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos() as u64);
        out
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean nanoseconds per span; zero when nothing was recorded.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn to_json(&self) -> Value {
        let hist: Vec<Value> = self
            .hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| json!({ "log2_ns": i as u64, "count": n }))
            .collect();
        json!({
            "count": self.count,
            "total_ns": self.total_ns,
            "hist": Value::Array(hist),
        })
    }
}

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    pass: u32,
}

/// Handle to a span the caller has open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// In-memory span store for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    folded: BTreeMap<(Option<usize>, String), Folded>,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            folded: BTreeMap::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Record a span the program timed itself (an exhibit job reports its
    /// own wall seconds). It is laid after the innermost open span's last
    /// child, which is where it ran when jobs are serial.
    pub fn child_of_duration(&mut self, name: &str, seconds: f64) {
        let parent = self.open.last().copied();
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == parent && parent.is_some())
            .map(|s| s.end_ns)
            .max()
            .or(parent.map(|p| self.spans[p].start_ns))
            .unwrap_or_else(|| self.now_ns());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            parent,
            pass: self.pass,
        });
    }

    /// Attach folded fine spans under the innermost open span.
    pub fn fold(&mut self, name: &str, folded: &Folded) {
        let key = (self.open.last().copied(), name.to_string());
        let slot = self.folded.entry(key).or_default();
        slot.count += folded.count;
        slot.total_ns += folded.total_ns;
        for (a, b) in slot.hist.iter_mut().zip(&folded.hist) {
            *a += b;
        }
    }

    /// Nanoseconds of `id` covered by its direct children, raw and folded.
    fn children_ns(&self, id: usize) -> u64 {
        let raw: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let folded: u64 = self
            .folded
            .iter()
            .filter(|((parent, _), _)| *parent == Some(id))
            .map(|(_, f)| f.total_ns)
            .sum();
        raw + folded
    }

    /// Share of a span's duration that its direct children account for.
    /// Children on a second thread can push it past 1.
    pub fn coverage(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0];
        let dur = s.end_ns - s.start_ns;
        if dur == 0 {
            0.0
        } else {
            self.children_ns(id.0) as f64 / dur as f64
        }
    }

    /// The whole store: raw spans with their self time (duration minus
    /// direct children), then the folded families.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let dur = s.end_ns - s.start_ns;
                json!({
                    "id": id as u64,
                    "name": s.name.as_str(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    "pass": s.pass as u64,
                    "self_ns": dur.saturating_sub(self.children_ns(id)),
                })
            })
            .collect();
        let folded: Vec<Value> = self
            .folded
            .iter()
            .map(|((parent, name), f)| {
                let mut v = f.to_json();
                if let Value::Object(m) = &mut v {
                    m.insert("name", Value::Str(name.clone()));
                    m.insert(
                        "parent",
                        parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    );
                }
                v
            })
            .collect();
        json!({ "spans": Value::Array(spans), "folded": Value::Array(folded) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_histogram_buckets_by_log2() {
        let mut f = Folded::default();
        for ns in [0, 1, 2, 3, 4, 1023, 1024] {
            f.record(ns);
        }
        assert_eq!(f.count, 7);
        assert_eq!(f.total_ns, 2057);
        assert_eq!(f.hist[0], 2); // 0 and 1
        assert_eq!(f.hist[1], 2); // 2 and 3
        assert_eq!(f.hist[2], 1); // 4
        assert_eq!(f.hist[9], 1); // 1023
        assert_eq!(f.hist[10], 1); // 1024
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let pass = t.enter("pass");
        t.child_of_duration("job-a", 0.25);
        t.child_of_duration("job-b", 0.5);
        let mut fine = Folded::default();
        fine.record(1_000);
        t.fold("fine", &fine);
        t.exit(pass);
        // Pin the pass to one second so the shares are exact.
        t.spans[pass.0].end_ns = t.spans[pass.0].start_ns + 1_000_000_000;
        assert_eq!(t.children_ns(pass.0), 750_001_000);
        assert!((t.coverage(pass) - 0.750001).abs() < 1e-9);
        // The second job starts where the first ended.
        assert_eq!(t.spans[2].start_ns, t.spans[1].end_ns);
        let v = t.to_json();
        let spans = v.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(
            spans[0].get("self_ns").and_then(Value::as_u64),
            Some(249_999_000)
        );
        assert_eq!(spans[1].get("parent").and_then(Value::as_u64), Some(0));
    }
}
