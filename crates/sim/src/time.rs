//! Virtual time: instants and durations with microsecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated clock, in microseconds since simulation
/// start.
///
/// `SimTime` is a monotone, saturating counter: the simulation starts at
/// [`SimTime::ZERO`] and only moves forward. Arithmetic with
/// [`SimDuration`] is provided via operators.
///
/// # Example
///
/// ```
/// use wtnc_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(1_500);
/// assert_eq!(t.as_micros(), 1_500_000);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a floating-point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when the ordering is not known.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use wtnc_sim::SimDuration;
///
/// let audit_period = SimDuration::from_secs(10);
/// assert_eq!(audit_period / 2, SimDuration::from_secs(5));
/// assert_eq!(audit_period.as_millis(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from a floating-point number of seconds,
    /// rounding to the nearest microsecond. Negative and non-finite
    /// inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e6).round() as u64)
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in seconds as a floating-point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
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

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(3) + SimDuration::from_millis(250);
        assert_eq!(t.as_micros(), 3_250_000);
        assert_eq!(t - SimTime::from_secs(3), SimDuration::from_millis(250));
    }

    #[test]
    fn saturating_since_clamps_future() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
    }

    #[test]
    fn duration_from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2_500));
        assert_eq!(d - SimDuration::from_secs(12), SimDuration::ZERO);
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000000s");
        assert_eq!(SimDuration::from_millis(1).to_string(), "0.001000s");
    }

    #[test]
    fn ordering_follows_micros() {
        assert!(SimTime::from_micros(5) < SimTime::from_micros(6));
        assert!(SimDuration::from_millis(1) > SimDuration::from_micros(999));
    }
}
