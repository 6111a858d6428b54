//! Summary statistics used by the paper's figures.
//!
//! Fig 8/10/13 report sample means with bars of twice the standard error of
//! the mean (SEM, the paper's eq. 2); the in-the-wild figures (15/16) use
//! Whisker plots with quartiles and `1.5 * IQR` outlier fences (§5.2).

use serde::{Deserialize, Serialize};

/// Mean, standard deviation and standard error for a sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeanSem {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation `s` (the paper's eq. 2, with the customary
    /// square root over the averaged squared deviations).
    pub std_dev: f64,
    /// Standard error of the mean, `s / sqrt(n)`.
    pub sem: f64,
    /// Sample size.
    pub n: usize,
}

impl MeanSem {
    /// [`MeanSem::of`] one quantity read off each item, in item order.
    pub fn over<T>(items: &[T], x: impl Fn(&T) -> f64) -> MeanSem {
        MeanSem::of(&items.iter().map(x).collect::<Vec<_>>())
    }

    /// Compute mean/SD/SEM of a sample. Empty samples yield NaNs with `n=0`;
    /// singleton samples have zero deviation by convention.
    pub fn of(xs: &[f64]) -> MeanSem {
        let n = xs.len();
        if n == 0 {
            return MeanSem {
                mean: f64::NAN,
                std_dev: f64::NAN,
                sem: f64::NAN,
                n: 0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return MeanSem {
                mean,
                std_dev: 0.0,
                sem: 0.0,
                n,
            };
        }
        let ss: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
        let std_dev = (ss / (n - 1) as f64).sqrt();
        MeanSem {
            mean,
            std_dev,
            sem: std_dev / (n as f64).sqrt(),
            n,
        }
    }

    /// The `mean ± 2*SEM` interval drawn as the horizontal bars in
    /// Figs 8/10/13.
    pub fn bar(&self) -> (f64, f64) {
        (self.mean - 2.0 * self.sem, self.mean + 2.0 * self.sem)
    }
}

/// Five-number summary plus outliers, as used in the Whisker plots of
/// Figs 15 and 16.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WhiskerSummary {
    /// Smallest non-outlier sample.
    pub low: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest non-outlier sample.
    pub high: f64,
    /// Samples outside `[Q1 - 1.5*IQR, Q3 + 1.5*IQR]`.
    pub outliers: Vec<f64>,
    /// Sample size.
    pub n: usize,
}

/// Linear-interpolation quantile (type 7, the common default) of a sorted
/// slice. `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl WhiskerSummary {
    /// Compute the summary of a sample.
    pub fn of(xs: &[f64]) -> Option<WhiskerSummary> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let q1 = quantile_sorted(&sorted, 0.25);
        let median = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let inliers: Vec<f64> = sorted
            .iter()
            .copied()
            .filter(|&x| x >= lo_fence && x <= hi_fence)
            .collect();
        let outliers: Vec<f64> = sorted
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        Some(WhiskerSummary {
            low: *inliers.first().unwrap_or(&q1),
            q1,
            median,
            q3,
            high: *inliers.last().unwrap_or(&q3),
            outliers,
            n: sorted.len(),
        })
    }

    /// Inter-quartile range.
    #[cfg(test)]
    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_sem_basics() {
        let m = MeanSem::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m.mean - 5.0).abs() < 1e-12);
        // Sample (n-1) std dev of this classic set is ~2.138.
        assert!((m.std_dev - 2.138089935).abs() < 1e-6);
        assert!((m.sem - m.std_dev / 8f64.sqrt()).abs() < 1e-12);
        let (lo, hi) = m.bar();
        assert!(lo < m.mean && m.mean < hi);
    }

    #[test]
    fn mean_sem_degenerate() {
        assert_eq!(MeanSem::of(&[]).n, 0);
        assert!(MeanSem::of(&[]).mean.is_nan());
        let single = MeanSem::of(&[3.0]);
        assert_eq!(single.mean, 3.0);
        assert_eq!(single.sem, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 4.0);
        assert!((quantile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile_sorted(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn whisker_identifies_outliers() {
        let mut xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        xs.push(100.0); // a clear outlier
        let w = WhiskerSummary::of(&xs).unwrap();
        assert_eq!(w.outliers, vec![100.0]);
        assert!(w.high <= 20.0);
        assert_eq!(w.n, 21);
        assert!(w.iqr() > 0.0);
    }

    #[test]
    fn whisker_without_outliers() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let w = WhiskerSummary::of(&xs).unwrap();
        assert!(w.outliers.is_empty());
        assert_eq!(w.low, 1.0);
        assert_eq!(w.high, 5.0);
        assert_eq!(w.median, 3.0);
    }

    #[test]
    fn whisker_empty_is_none() {
        assert!(WhiskerSummary::of(&[]).is_none());
    }
}
