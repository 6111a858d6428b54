//! Deterministic pseudo-random number generation.
//!
//! The simulator carries its own PCG-XSH-RR 64/32 generator instead of
//! depending on `rand`'s `SmallRng`, whose stream is allowed to change
//! between `rand` releases. Every experiment in the paper's evaluation is
//! reproducible from a single `u64` seed.
//!
//! The distributions implemented here are exactly the ones the evaluation
//! needs: uniform draws, exponential holding times for the two-state on-off
//! processes (§4.3, §4.4), Gaussian noise for channel variation, Pareto and
//! log-normal draws for the synthetic web-object sizes (§5.4).

use crate::time::SimDuration;

const PCG_MULT: u64 = 6364136223846793005;
const PCG_INC_DEFAULT: u64 = 1442695040888963407;

/// A deterministic PCG-XSH-RR 64/32 pseudo-random number generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
    inc: u64,
}

impl SimRng {
    /// Create a generator from a seed. Distinct seeds yield uncorrelated
    /// streams for all practical purposes.
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng {
            state: 0,
            inc: PCG_INC_DEFAULT | 1,
        };
        rng.state = seed.wrapping_add(rng.inc);
        rng.next_u32();
        rng
    }

    /// Create a generator with an explicit stream selector, so independent
    /// model components can draw from provably disjoint streams.
    fn with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = SimRng {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.state = seed.wrapping_add(rng.inc);
        rng.next_u32();
        rng
    }

    /// Derive a child generator; used to give each subsystem (channel,
    /// workload, interferer) its own stream from one experiment seed.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let seed = self.next_u64() ^ label.wrapping_mul(0x9E3779B97F4A7C15);
        SimRng::with_stream(seed, label.wrapping_add(0xda3e39cb94b95bdb))
    }

    /// Derive a child generator from a string label *without* advancing this
    /// generator. Two subsystems forked from the same parent with different
    /// labels draw from disjoint streams, and — because the parent is not
    /// consumed — adding a new forked consumer (e.g. a fault plan) can never
    /// shift the streams existing consumers (e.g. traffic) already use under
    /// the same seed.
    pub fn fork_labeled(&self, label: &str) -> SimRng {
        // FNV-1a over the label, then splitmix64-style finalization mixing
        // in the parent's position so distinct parents stay distinct.
        let h = crate::fnv1a(crate::FNV_OFFSET, label.as_bytes());
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let seed = mix(h ^ self.state.wrapping_mul(0x9E3779B97F4A7C15));
        let stream = mix(h.wrapping_add(self.inc));
        SimRng::with_stream(seed, stream)
    }

    /// Next raw 32-bit output.
    fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next raw 64-bit output (two 32-bit draws).
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` via Lemire's method (unbiased).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential draw with the given rate (events per second).
    /// Used for the on-off holding times in §4.3/§4.4.
    pub fn exponential(&mut self, rate_per_sec: f64) -> f64 {
        debug_assert!(rate_per_sec > 0.0);
        // 1 - f64() is in (0, 1], so ln() is finite.
        -(1.0 - self.f64()).ln() / rate_per_sec
    }

    /// Exponential holding time as a `SimDuration`.
    pub fn exponential_duration(&mut self, rate_per_sec: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(rate_per_sec))
    }

    /// Standard normal draw (Box-Muller; one value per call, the pair's
    /// second half is deliberately discarded to keep the stream position
    /// independent of caller history).
    fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal draw with mean `mu` and standard deviation `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.standard_normal()
    }

    /// Log-normal draw parameterized by the underlying normal's `mu`/`sigma`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Bounded Pareto draw (shape `alpha`, support `[lo, hi]`); used for
    /// heavy-tailed web-object sizes in the §5.4 workload.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_clones() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_answer_stability() {
        // Guards against accidental changes to the generator: these values
        // are part of the reproducibility contract.
        let mut rng = SimRng::new(0xDEADBEEF);
        let first: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        assert_eq!(first, vec![3283094731, 3888927911, 550695258, 2525947613]);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut rng = SimRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::new(11);
        let rate = 0.05; // mean 20 s, the paper's lambda_on
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 20.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = SimRng::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn bounded_pareto_support() {
        let mut rng = SimRng::new(17);
        for _ in 0..10_000 {
            let x = rng.bounded_pareto(1.2, 100.0, 1_000_000.0);
            assert!((100.0..=1_000_000.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::new(99);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_labeled_does_not_perturb_parent() {
        let mut with_fork = SimRng::new(99);
        let mut without = SimRng::new(99);
        let _faults = with_fork.fork_labeled("faults");
        for _ in 0..1000 {
            assert_eq!(with_fork.next_u64(), without.next_u64());
        }
    }

    #[test]
    fn fork_labeled_streams_are_distinct_and_deterministic() {
        let root = SimRng::new(7);
        let mut a = root.fork_labeled("traffic");
        let mut b = root.fork_labeled("faults");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
        let mut a2 = SimRng::new(7).fork_labeled("traffic");
        let mut a3 = SimRng::new(7).fork_labeled("traffic");
        for _ in 0..64 {
            assert_eq!(a2.next_u64(), a3.next_u64());
        }
        // Like the root stream, labeled streams are part of the
        // reproducibility contract.
        let mut traffic = SimRng::new(7).fork_labeled("traffic");
        let mut faults = SimRng::new(0xDEADBEEF).fork_labeled("faults");
        assert_eq!(traffic.next_u64(), 951250853371393344);
        assert_eq!(faults.next_u64(), 14080204630350486907);
    }

    #[test]
    fn chance_probability_estimate() {
        let mut rng = SimRng::new(23);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "{p}");
    }
}
