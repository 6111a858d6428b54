//! What the benchmark reads about its own process, and the statistics it
//! reports: CPU time and resident memory from `/proc`, medians, quartiles,
//! the percentile rule, a content hash for digests, and the fixed
//! calibration loop.

use std::time::Instant;

/// `USER_HZ`: the unit of the CPU-time fields of `/proc/*/stat`. It is
/// 100 on every Linux ABI this repo builds for; there is no libc binding
/// in the vendored tree to ask `sysconf(_SC_CLK_TCK)`.
const USER_HZ: f64 = 100.0;

fn stat_cpu_seconds(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = text.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// User plus system CPU seconds of the whole process, exited threads
/// included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// User plus system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

fn status_bytes(key: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of the process so far (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Resident set of the process now (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    emptcp_sim::stats::quantile_sorted(&v, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses for
/// run-to-run spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Rank k*(n+1)/4, 1-based, between the neighbours it falls on.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The percentiles a report may quote, lowest first, each with the
/// sample count from which ten samples lie beyond it.
const PERCENTILES: [(f64, usize); 4] =
    [(50.0, 20), (99.0, 1_000), (99.9, 10_000), (99.99, 100_000)];

/// The percentile rule: the highest of [`PERCENTILES`] that still has at
/// least ten samples beyond it. `None` under twenty samples, where even
/// the median has fewer than ten on its far side.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .filter(|&&(_, needed)| samples >= needed)
        .map(|&(p, _)| p)
        .next_back()
}

/// Sub-buckets per power of two in a [`LogHistogram`]: values land
/// within 1/64 of themselves.
const SUB_BUCKETS: u64 = 64;

/// Fixed-size histogram of `u64` samples, exact below 128 and good to
/// 1.6% above. A pass records half a million latencies into it; a
/// vector of them would make the process's memory depend on how many
/// segments the transfer happened to take.
pub struct LogHistogram {
    counts: Vec<u32>,
    total: u64,
    max: u64,
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        // 58 octaves above the exact range cover every u64.
        LogHistogram {
            counts: vec![0; (SUB_BUCKETS * 59) as usize],
            total: 0,
            max: 0,
        }
    }

    fn bucket(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() as u64; // at least 6
        let sub = (value >> (octave - 6)) & (SUB_BUCKETS - 1);
        ((octave - 5) * SUB_BUCKETS + sub) as usize
    }

    /// Smallest value that lands in bucket `index`.
    fn floor_of(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB_BUCKETS {
            return index;
        }
        let octave = index / SUB_BUCKETS + 5;
        (SUB_BUCKETS + index % SUB_BUCKETS) << (octave - 6)
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    pub fn samples(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile, as the floor of the bucket it falls in.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(self.total > 0, "percentile of no samples");
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n as u64;
            if seen >= rank {
                return Self::floor_of(index);
            }
        }
        self.max
    }
}

/// 64-bit FNV-1a, for output digests. Not cryptographic: it only has to
/// make two different outputs read differently.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Median nanoseconds of a fixed integer loop that no change to the repo
/// can touch: the figure that tells a slow machine from a slow commit.
/// The loop is the one `BENCH.json` was calibrated with, copied here so
/// the benchmark imports nothing from `emptcp_bench::snapshot`.
pub fn calibration_ns() -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..50 {
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for i in 0..20_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                    x ^= x >> 29;
                }
                std::hint::black_box(x);
            }
            start.elapsed().as_nanos() as f64 / 50.0
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: with two
        // values the method extrapolates past both.
        let (q1, q3) = quartiles(&[1.0, 3.0]);
        assert_eq!((q1, q3), (0.5, 3.5));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(999), Some(50.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(500_000), Some(99.99));
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank_within_a_bucket() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.samples(), 100);
        assert_eq!(h.max(), 100);
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(100.0), 100);
        h.record(1001); // shares a bucket with 1000..=1007
        assert_eq!(h.percentile(100.0), 1000);
        // Every value lands within 1/64 of itself, at any magnitude.
        for v in [63u64, 64, 65, 1_000, 640_028, 1 << 40, u64::MAX] {
            let floor = LogHistogram::floor_of(LogHistogram::bucket(v));
            assert!(floor <= v && v - floor <= v / 64, "{v} -> {floor}");
        }
    }

    #[test]
    fn fnv_tells_outputs_apart() {
        let hash = |s: &str| {
            let mut h = Fnv::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash("abc"), hash("abc"));
        assert_ne!(hash("abc"), hash("abd"));
    }

    #[test]
    fn proc_readers_see_this_process() {
        // Other tests allocate meanwhile, so read the smaller one first:
        // the peak and the process's CPU time only ever grow.
        let (rss, thread) = (rss_bytes(), thread_cpu_s());
        assert!(rss > 0);
        assert!(peak_rss_bytes() >= rss);
        assert!(process_cpu_s() >= thread);
    }
}
