//! Simulation time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulation timestamp or a duration, in femtoseconds.
///
/// One `u64` of femtoseconds covers roughly five hours of simulated
/// time, far beyond anything the link experiments need (they run for
/// hundreds of nanoseconds). Gate delays in a 0.12 µm library are tens
/// of picoseconds, so femtosecond resolution leaves three decimal
/// digits of headroom below the smallest physical delay.
///
/// # Examples
///
/// ```
/// use sal_des::Time;
/// let t = Time::from_ns(1) + Time::from_ps(500);
/// assert_eq!(t.as_fs(), 1_500_000);
/// assert_eq!(t.as_ns(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero timestamp (simulation start).
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from femtoseconds.
    pub const fn from_fs(fs: u64) -> Self {
        Time(fs)
    }

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps * 1_000)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000_000)
    }

    /// Creates a time from a fractional number of nanoseconds,
    /// rounding to the nearest femtosecond. Negative inputs saturate
    /// to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        Time((ns * 1e6).round().max(0.0) as u64)
    }

    /// Creates a time from a fractional number of picoseconds,
    /// rounding to the nearest femtosecond. Negative inputs saturate
    /// to zero.
    pub fn from_ps_f64(ps: f64) -> Self {
        Time((ps * 1e3).round().max(0.0) as u64)
    }

    /// The raw femtosecond count.
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// This time expressed in picoseconds (may be fractional).
    pub fn as_ps(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time expressed in nanoseconds (may be fractional).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e15
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Returns true if this is the zero time.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The frequency whose period is this duration, in Hz.
    ///
    /// # Panics
    ///
    /// Panics if the duration is zero.
    pub fn period_to_hz(self) -> f64 {
        assert!(self.0 > 0, "zero period has no frequency");
        1e15 / self.0 as f64
    }

    /// The period of a clock of the given frequency in Hz, rounded to
    /// the nearest femtosecond.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn from_hz(hz: f64) -> Time {
        assert!(hz > 0.0 && hz.is_finite(), "frequency must be positive");
        Time((1e15 / hz).round() as u64)
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("simulation time overflow"))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("simulation time underflow"))
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0.checked_mul(rhs).expect("simulation time overflow"))
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "0s")
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}ns", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}ps", self.0 / 1_000)
        } else {
            write!(f, "{}fs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Time::from_ps(1).as_fs(), 1_000);
        assert_eq!(Time::from_ns(1).as_fs(), 1_000_000);
        assert_eq!(Time::from_us(1).as_fs(), 1_000_000_000);
        assert_eq!(Time::from_ns(3), Time::from_ps(3_000));
    }

    #[test]
    fn float_constructors_round() {
        assert_eq!(Time::from_ns_f64(1.5).as_fs(), 1_500_000);
        assert_eq!(Time::from_ps_f64(0.4).as_fs(), 400);
        assert_eq!(Time::from_ns_f64(-2.0), Time::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ps(10);
        let b = Time::from_ps(4);
        assert_eq!(a + b, Time::from_ps(14));
        assert_eq!(a - b, Time::from_ps(6));
        assert_eq!(a * 3, Time::from_ps(30));
        assert_eq!(a / 2, Time::from_ps(5));
        assert_eq!(a.saturating_sub(Time::from_ns(1)), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = Time::from_ps(1) - Time::from_ps(2);
    }

    #[test]
    fn frequency_round_trip() {
        let t = Time::from_hz(100e6);
        assert_eq!(t, Time::from_ns(10));
        assert!((t.period_to_hz() - 100e6).abs() < 1.0);
    }

    #[test]
    fn display_picks_best_unit() {
        assert_eq!(Time::ZERO.to_string(), "0s");
        assert_eq!(Time::from_ns(5).to_string(), "5ns");
        assert_eq!(Time::from_ps(5).to_string(), "5ps");
        assert_eq!(Time::from_fs(5).to_string(), "5fs");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::from_ps(1), Time::from_ps(2)].into_iter().sum();
        assert_eq!(total, Time::from_ps(3));
    }
}
