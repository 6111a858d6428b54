//! Time-series recording for experiment output.
//!
//! The paper's trace figures (accumulated energy in Figs 7/12, throughput in
//! Fig 9) are time series sampled as the simulation runs. [`TimeSeries`]
//! stores `(time, value)` points; [`StepSeries`] integrates a step function
//! (e.g. instantaneous power) over simulated time.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A recorded `(time, value)` series.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Series label used in exported figures.
    pub name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series with the given label.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample. Samples must be pushed in non-decreasing time order.
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "samples must be time-ordered"
        );
        self.points.push((t, value));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Value at time `t` by step interpolation (the most recent sample at or
    /// before `t`), or `None` before the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Downsample to at most `n` points (for compact figure export),
    /// keeping first and last points.
    pub fn downsample(&self, n: usize) -> TimeSeries {
        let mut out = TimeSeries::new(self.name.clone());
        if self.points.len() <= n || n < 2 {
            out.points = self.points.clone();
            return out;
        }
        let stride = (self.points.len() - 1) as f64 / (n - 1) as f64;
        for k in 0..n {
            let idx = (k as f64 * stride).round() as usize;
            out.points.push(self.points[idx.min(self.points.len() - 1)]);
        }
        out
    }

    /// Arithmetic mean of the sampled values, or `None` for an empty series.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Step-function integral of the series over the sampled span: each
    /// value is held until the next sample's time. The last sample
    /// contributes nothing (zero-width segment). Returns 0 for series with
    /// fewer than two points.
    pub fn integral(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].1 * (w[1].0.saturating_since(w[0].0)).as_secs_f64())
            .sum()
    }

    /// Export as CSV rows `time_s,value`.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("time_s,value\n");
        for &(t, v) in &self.points {
            s.push_str(&format!("{:.6},{:.6}\n", t.as_secs_f64(), v));
        }
        s
    }
}

/// Integrates a right-continuous step function of simulated time.
///
/// Power draw is a step function of radio state and current throughput: the
/// meter sets a new level whenever state changes and the accumulated integral
/// (energy, in joules when levels are watts) is available at any time.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StepSeries {
    level: f64,
    since: SimTime,
    integral: f64,
}

impl StepSeries {
    /// Start integrating at `t0` with the given initial level.
    pub fn new(t0: SimTime, level: f64) -> Self {
        StepSeries {
            level,
            since: t0,
            integral: 0.0,
        }
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Change the level at time `t`, accumulating the previous segment.
    pub fn set_level(&mut self, t: SimTime, level: f64) {
        self.advance(t);
        self.level = level;
    }

    /// Accumulate up to `t` without changing the level.
    pub fn advance(&mut self, t: SimTime) {
        let dt: SimDuration = t.saturating_since(self.since);
        self.integral += self.level * dt.as_secs_f64();
        self.since = self.since.max(t);
    }

    /// Integral accumulated so far (up to the last `advance`/`set_level`).
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Integral including the partial segment up to `t`.
    pub fn integral_at(&self, t: SimTime) -> f64 {
        let dt = t.saturating_since(self.since);
        self.integral + self.level * dt.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn series_records_and_queries() {
        let mut ts = TimeSeries::new("thpt");
        ts.push(s(1), 10.0);
        ts.push(s(2), 20.0);
        ts.push(s(4), 40.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.value_at(s(0)), None);
        assert_eq!(ts.value_at(s(1)), Some(10.0));
        assert_eq!(ts.value_at(s(3)), Some(20.0));
        assert_eq!(ts.value_at(s(9)), Some(40.0));
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut ts = TimeSeries::new("x");
        for i in 0..1000 {
            ts.push(SimTime::from_millis(i), i as f64);
        }
        let d = ts.downsample(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.points()[0].1, 0.0);
        assert_eq!(d.points()[9].1, 999.0);
    }

    #[test]
    fn downsample_small_series_unchanged() {
        let mut ts = TimeSeries::new("x");
        ts.push(s(1), 1.0);
        ts.push(s(2), 2.0);
        assert_eq!(ts.downsample(10).len(), 2);
    }

    #[test]
    fn csv_export() {
        let mut ts = TimeSeries::new("x");
        ts.push(s(1), 2.5);
        let csv = ts.to_csv();
        assert!(csv.starts_with("time_s,value\n"));
        assert!(csv.contains("1.000000,2.500000"));
    }

    #[test]
    fn step_series_integrates() {
        let mut p = StepSeries::new(s(0), 2.0);
        p.set_level(s(10), 5.0); // 2 W for 10 s = 20 J
        assert!((p.integral() - 20.0).abs() < 1e-9);
        p.advance(s(14)); // + 5 W for 4 s = 20 J
        assert!((p.integral() - 40.0).abs() < 1e-9);
        assert!((p.integral_at(s(16)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn mean_and_integral_helpers() {
        let empty = TimeSeries::new("e");
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.integral(), 0.0);

        let mut ts = TimeSeries::new("x");
        ts.push(s(0), 2.0);
        ts.push(s(10), 4.0);
        ts.push(s(20), 6.0);
        assert!((ts.mean().unwrap() - 4.0).abs() < 1e-12);
        // 2.0 held for 10 s + 4.0 held for 10 s = 60.
        assert!((ts.integral() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn step_series_serializes_round_trip() {
        let mut p = StepSeries::new(s(0), 2.0);
        p.set_level(s(10), 5.0);
        let v = Serialize::to_value(&p);
        let back = StepSeries::from_value(&v).expect("round trip");
        assert_eq!(back.level(), p.level());
        assert!((back.integral() - p.integral()).abs() < 1e-12);
    }

    #[test]
    fn step_series_zero_width_segments() {
        let mut p = StepSeries::new(s(5), 1.0);
        p.set_level(s(5), 3.0);
        p.set_level(s(5), 7.0);
        assert_eq!(p.integral(), 0.0);
        p.advance(s(6));
        assert!((p.integral() - 7.0).abs() < 1e-9);
    }
}
