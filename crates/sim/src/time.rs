//! Simulated time: integer nanoseconds since the start of a run.
//!
//! Floating-point time accumulates rounding that breaks determinism and makes
//! event ordering platform-dependent; all simulation time is therefore kept
//! as `u64` nanoseconds and converted to seconds only at the measurement
//! boundary (energy integration, reporting).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since the run started.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Raw nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since the start of the run, as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed time since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of a duration.
    pub fn checked_sub(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(d.0).map(SimTime)
    }

    /// The earlier of two optional deadlines; `None` only if both are.
    /// Every simulation loop folds its endpoints' deadlines with this
    /// after every event, so it is inlined across crates.
    #[inline]
    pub fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from floating-point seconds, rounding to the nearest
    /// nanosecond and saturating at the representable range.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration as floating-point milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// The time needed to serialize `bytes` onto a link of `bits_per_sec`.
    pub fn transmission(bytes: u64, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration::MAX;
        }
        let bits = (bytes as u128) * 8 * 1_000_000_000;
        let ns = bits / bits_per_sec as u128;
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration(self.0.clamp(lo.0, hi.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        debug_assert!(self.0 >= other.0, "SimTime subtraction went negative");
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= other.0, "SimDuration subtraction went negative");
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "inf");
        }
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "inf");
        }
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(250).as_nanos(), 250_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert!((SimTime::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(SimTime::from_secs(14) - t, d);
        assert_eq!(d + d, SimDuration::from_secs(8));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn transmission_delay() {
        // 1500 bytes at 12 Mbps = 1 ms.
        let d = SimDuration::transmission(1500, 12_000_000);
        assert_eq!(d, SimDuration::from_millis(1));
        assert_eq!(SimDuration::transmission(100, 0), SimDuration::MAX);
        assert_eq!(SimDuration::transmission(0, 1), SimDuration::ZERO);
    }

    #[test]
    fn checked_sub_time() {
        let t = SimTime::from_secs(2);
        assert_eq!(
            t.checked_sub(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
        assert_eq!(t.checked_sub(SimDuration::from_secs(3)), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::MAX), "inf");
    }
}
