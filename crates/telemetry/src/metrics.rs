//! Metrics registry: named counters, gauges and histograms.
//!
//! Counters and histograms are *commutative* — merging two registries sums
//! them — so per-run registries from parallel experiment repetitions can be
//! aggregated into one deterministic summary regardless of thread
//! interleaving. Gauges are last-write-wins and are meant for single-run
//! snapshots (instantaneous power level, final energy split).
//!
//! Keys are stored in `BTreeMap`s so every snapshot serializes in sorted
//! key order: same run ⇒ byte-identical JSON.

use emptcp_sim::SimTime;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Streaming histogram: count/sum/min/max plus power-of-two magnitude
/// buckets (bucket `i` counts values `v` with `ceil(log2(v+1)) == i`).
/// Quantiles read from the buckets are approximate (within a factor of 2),
/// which is plenty for RTT-distribution summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.buckets[Self::bucket_of(value)] += 1;
    }

    fn bucket_of(value: f64) -> usize {
        if value <= 0.0 {
            return 0;
        }
        let v = value as u64;
        (64 - v.leading_zeros() as usize).min(63)
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile from the magnitude buckets: the upper bound of
    /// the bucket containing the q-th sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
    }

    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("count", Value::U64(self.count));
        m.insert("sum", Value::F64(self.sum));
        m.insert(
            "min",
            Value::F64(if self.count == 0 { 0.0 } else { self.min }),
        );
        m.insert(
            "max",
            Value::F64(if self.count == 0 { 0.0 } else { self.max }),
        );
        m.insert("mean", Value::F64(self.mean()));
        m.insert("p50", Value::F64(self.quantile(0.50)));
        m.insert("p90", Value::F64(self.quantile(0.90)));
        m.insert("p99", Value::F64(self.quantile(0.99)));
        Value::Object(m)
    }
}

/// Canonical metric key for a router output-port statistic:
/// `net.router{router}.port{port}.{field}`.
///
/// Every emitter *and* every consumer (fabric metric publishing, the
/// observability aggregator, summaries) must build these keys through this
/// one helper so the name scheme cannot drift between writer and reader.
pub fn router_port_metric(router: u32, port: u32, field: &str) -> String {
    format!("net.router{router}.port{port}.{field}")
}

/// Parse a key produced by [`router_port_metric`] back into
/// `(router, port, field)`. Returns `None` for keys outside the scheme.
pub fn parse_router_port_metric(key: &str) -> Option<(u32, u32, &str)> {
    let rest = key.strip_prefix("net.router")?;
    let (router, rest) = rest.split_once(".port")?;
    let (port, field) = rest.split_once('.')?;
    Some((router.parse().ok()?, port.parse().ok()?, field))
}

/// Canonical metric key for a per-shard fleet statistic:
/// `fleet.shard{shard}.{field}`. Same single-helper discipline as
/// [`router_port_metric`]: the sharded fleet engine emits through this, and
/// the experiment roll-up recognizes `shard{N}` as an instance segment so
/// families sum across shard counts.
pub fn shard_metric(shard: u32, field: &str) -> String {
    format!("fleet.shard{shard}.{field}")
}

/// Parse a key produced by [`shard_metric`] back into `(shard, field)`.
/// Returns `None` for keys outside the scheme.
pub fn parse_shard_metric(key: &str) -> Option<(u32, &str)> {
    let rest = key.strip_prefix("fleet.shard")?;
    let (shard, field) = rest.split_once('.')?;
    Some((shard.parse().ok()?, field))
}

/// Registry of named metrics. One per instrumented run (or one global per
/// experiment batch — counters merge deterministically).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// Boxed: a B-tree leaf has room for eleven values whether or not it
    /// holds them, and a run has a handful of 544-byte histograms.
    histograms: BTreeMap<String, Box<Histogram>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    // The three writers allocate a key only when the name is new: the
    // per-packet callers hit an existing key almost every time.

    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(total) => *total += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(level) => *level = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    pub fn observe(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(histogram) => histogram.record(value),
            None => self
                .histograms
                .entry(name.to_string())
                .or_default()
                .record(value),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Drop a counter, so a merge can leave out a count the receiving
    /// registry already took.
    pub fn remove_counter(&mut self, name: &str) {
        self.counters.remove(name);
    }

    /// All counters in name order (for summaries and roll-ups).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The histogram `name`, if anything was observed into it. Only the
    /// registry's own tests read one back.
    #[cfg(test)]
    fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name).map(|h| &**h)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one (counters and histograms sum;
    /// gauges take the other's value).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Deterministic JSON snapshot at simulation time `at`.
    pub fn snapshot(&self, at: SimTime) -> Value {
        let mut counters = Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), Value::U64(*v));
        }
        let mut gauges = Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), Value::F64(*v));
        }
        let mut histograms = Map::new();
        for (k, h) in &self.histograms {
            histograms.insert(k.clone(), h.to_value());
        }
        let mut root = Map::new();
        root.insert("t_ns", Value::U64(at.as_nanos()));
        root.insert("counters", Value::Object(counters));
        root.insert("gauges", Value::Object(gauges));
        root.insert("histograms", Value::Object(histograms));
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("tcp.retransmits", 1);
        m.counter_add("tcp.retransmits", 2);
        assert_eq!(m.counter("tcp.retransmits"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_take_last_value() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("power.w", 1.5);
        m.gauge_set("power.w", 0.5);
        assert_eq!(m.gauge("power.w"), Some(0.5));
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut m = MetricsRegistry::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            m.observe("rtt", v);
        }
        let h = m.histogram("rtt").unwrap();
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 25.0).abs() < 1e-9);
        assert!(h.quantile(0.5) >= 20.0);
        assert!(h.quantile(0.99) >= 40.0);
    }

    #[test]
    fn merge_is_commutative_for_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        a.observe("h", 4.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("x", 2);
        b.counter_add("y", 5);
        b.observe("h", 64.0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 3);
        assert_eq!(ab.counter("y"), 5);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn a_snapshot_cannot_tell_how_its_keys_were_written() {
        let at = SimTime::from_secs(1);
        let text = |m: &MetricsRegistry| serde_json::to_string(&m.snapshot(at)).unwrap();
        // Every write but the first of a key takes the allocation-free
        // existing-key path; the reference inserts each key exactly once.
        let mut hot = MetricsRegistry::new();
        for _ in 0..3 {
            hot.counter_add("conn0.iface.WiFi.rx_bytes", 1428);
            hot.counter_add("tcp.conn0.sf1.retransmits", 1);
        }
        for level in [0.5, 1.5] {
            hot.gauge_set("power.w", level);
        }
        let mut once = MetricsRegistry::new();
        once.counter_add("tcp.conn0.sf1.retransmits", 3);
        once.gauge_set("power.w", 1.5);
        once.counter_add("conn0.iface.WiFi.rx_bytes", 3 * 1428);
        assert_eq!(text(&hot), text(&once));

        // Histograms: the same samples in the same order, keys interleaved
        // or not, and a merge into an empty registry.
        let (mut interleaved, mut grouped) = (MetricsRegistry::new(), MetricsRegistry::new());
        for v in [12.0, 25.0, 31.0] {
            interleaved.observe("tcp.conn0.sf0.rtt_ms", v);
            interleaved.observe("tcp.conn0.sf1.rtt_ms", 2.0 * v);
        }
        for v in [12.0, 25.0, 31.0] {
            grouped.observe("tcp.conn0.sf1.rtt_ms", 2.0 * v);
        }
        for v in [12.0, 25.0, 31.0] {
            grouped.observe("tcp.conn0.sf0.rtt_ms", v);
        }
        assert_eq!(text(&interleaved), text(&grouped));
        let mut merged = MetricsRegistry::new();
        merged.merge(&interleaved);
        assert_eq!(text(&merged), text(&interleaved));
    }

    #[test]
    fn router_port_metric_round_trips() {
        let key = router_port_metric(3, 17, "drops.queue_full");
        assert_eq!(key, "net.router3.port17.drops.queue_full");
        assert_eq!(
            parse_router_port_metric(&key),
            Some((3, 17, "drops.queue_full"))
        );
        assert_eq!(parse_router_port_metric("net.router3.port17"), None);
        assert_eq!(parse_router_port_metric("conn0.iface.wifi.rx_bytes"), None);
        assert_eq!(parse_router_port_metric("net.routerX.port1.drops"), None);
    }

    #[test]
    fn shard_metric_round_trips() {
        let key = shard_metric(5, "events");
        assert_eq!(key, "fleet.shard5.events");
        assert_eq!(parse_shard_metric(&key), Some((5, "events")));
        assert_eq!(parse_shard_metric("fleet.shard5"), None);
        assert_eq!(parse_shard_metric("fleet.shardX.events"), None);
        assert_eq!(parse_shard_metric("net.router0.port0.delivered"), None);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
        let m = MetricsRegistry::new();
        assert!(m.histogram("missing").is_none());
    }

    #[test]
    fn single_sample_histogram_quantiles() {
        let mut h = Histogram::default();
        h.record(100.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 100.0);
        // Every quantile of a one-sample distribution is that sample's
        // bucket bound: 100 lands in bucket 7, upper bound 128.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 128.0, "q={q}");
        }
    }

    #[test]
    fn zero_and_negative_samples_land_in_bucket_zero() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-5.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn saturating_magnitude_clamps_to_top_bucket() {
        let mut h = Histogram::default();
        h.record(f64::MAX);
        h.record(1e300);
        assert_eq!(h.count(), 2);
        // Values beyond u64 range saturate into bucket 63, whose nominal
        // upper bound 2^63 is what the approximate quantile reports.
        let top = (1u64 << 63) as f64;
        assert_eq!(h.quantile(1.0), top);
        assert_eq!(h.quantile(0.5), top);
        // The exact max is still tracked alongside the buckets.
        assert_eq!(h.sum(), f64::MAX + 1e300);
    }

    #[test]
    fn quantile_out_of_range_is_clamped() {
        let mut h = Histogram::default();
        h.record(3.0);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn merge_into_empty_copies_min_max() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        b.record(7.0);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a, b);
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
    }

    #[test]
    fn snapshot_serializes_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("zz", 1);
        m.counter_add("aa", 2);
        m.gauge_set("g", 1.0);
        let s1 = serde_json::to_string(&m.snapshot(SimTime::from_secs(1))).unwrap();
        let s2 = serde_json::to_string(&m.snapshot(SimTime::from_secs(1))).unwrap();
        assert_eq!(s1, s2);
        let aa = s1.find("\"aa\"").unwrap();
        let zz = s1.find("\"zz\"").unwrap();
        assert!(aa < zz, "keys must serialize sorted");
    }
}
