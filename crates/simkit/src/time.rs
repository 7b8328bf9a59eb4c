//! Simulated time.
//!
//! The study's traces span 24-hour days and two-week counter runs, with
//! events that matter at sub-millisecond resolution (file open times have a
//! median around a tenth of a second, and bursts are measured over
//! 10-second intervals). A `u64` count of microseconds covers both ends
//! comfortably.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, measured in microseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as a sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from a millisecond count.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from a second count.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates an instant from a fractional second count.
    ///
    /// Negative inputs clamp to [`SimTime::ZERO`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimTime::ZERO
        } else {
            SimTime((s * 1e6).round() as u64)
        }
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the index of the interval of width `w` containing this
    /// instant (used by the paper's 10-minute / 10-second analyses).
    pub fn interval_index(self, w: SimDuration) -> u64 {
        debug_assert!(w.0 > 0, "interval width must be positive");
        self.0 / w.0
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration; useful as a sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from a microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from a millisecond count.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from a second count.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from a minute count.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000)
    }

    /// Creates a duration from a fractional second count.
    ///
    /// Negative inputs clamp to [`SimDuration::ZERO`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration((s * 1e6).round() as u64)
        }
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0 / 1_000_000;
        let us = self.0 % 1_000_000;
        write!(
            f,
            "{:02}:{:02}:{:02}.{:06}",
            s / 3600,
            (s / 60) % 60,
            s % 60,
            us
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs < 1.0 {
            write!(f, "{:.1}ms", secs * 1e3)
        } else if secs < 120.0 {
            write!(f, "{secs:.2}s")
        } else if secs < 7200.0 {
            write!(f, "{:.1}min", secs / 60.0)
        } else {
            write!(f, "{:.1}h", secs / 3600.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_mins(60).as_secs(), 3600);
    }

    #[test]
    fn fractional_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_secs(), 14);
        assert_eq!((t - d).as_secs(), 6);
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        // Saturating behaviour.
        assert_eq!(
            SimTime::from_secs(1) - SimDuration::from_secs(5),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::from_secs(1).since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn interval_index() {
        let w = SimDuration::from_secs(10);
        assert_eq!(SimTime::from_secs(0).interval_index(w), 0);
        assert_eq!(SimTime::from_secs(9).interval_index(w), 0);
        assert_eq!(SimTime::from_secs(10).interval_index(w), 1);
        assert_eq!(SimTime::from_secs(605).interval_index(w), 60);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::from_secs(3) * 10, SimDuration::from_secs(30));
        assert_eq!(SimDuration::from_secs(30) / 10, SimDuration::from_secs(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3661).to_string(), "01:01:01.000000");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250.0ms");
        assert_eq!(SimDuration::from_secs(30).to_string(), "30.00s");
        assert_eq!(SimDuration::from_mins(20).to_string(), "20.0min");
        assert_eq!(SimDuration::from_mins(180).to_string(), "3.0h");
    }
}
