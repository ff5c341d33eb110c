//! Millisecond-resolution virtual instants and durations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time with millisecond resolution.
///
/// Arithmetic saturates instead of overflowing: the simulator treats
/// `SimDuration::MAX` as "effectively forever" (for example, the MTTF of an
/// on-demand server that is never revoked).
///
/// # Examples
///
/// ```
/// use flint_simtime::SimDuration;
///
/// let tau = SimDuration::from_hours(2) + SimDuration::from_mins(30);
/// assert_eq!(tau.as_secs_f64(), 9000.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration; used as "never" / "infinite".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000))
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins.saturating_mul(60_000))
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours.saturating_mul(3_600_000))
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days.saturating_mul(86_400_000))
    }

    /// Creates a duration from fractional seconds, rounding to milliseconds.
    ///
    /// Negative or non-finite inputs clamp to zero; values beyond the
    /// representable range clamp to [`SimDuration::MAX`].
    pub fn from_secs_f64(secs: f64) -> Self {
        Self::from_hours_f64(secs / 3600.0)
    }

    /// Creates a duration from fractional hours, rounding to milliseconds.
    ///
    /// Negative or non-finite inputs clamp to zero; values beyond the
    /// representable range clamp to [`SimDuration::MAX`].
    pub fn from_hours_f64(hours: f64) -> Self {
        if !hours.is_finite() || hours <= 0.0 {
            if hours.is_infinite() && hours > 0.0 {
                return SimDuration::MAX;
            }
            return SimDuration::ZERO;
        }
        let ms = hours * 3_600_000.0;
        if ms >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ms.round() as u64)
        }
    }

    /// Returns the duration in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Returns `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative factor, saturating.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor.max(0.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimDuration::MAX {
            return write!(f, "inf");
        }
        let ms = self.0;
        if ms < 1_000 {
            write!(f, "{}ms", ms)
        } else if ms < 60_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if ms < 3_600_000 {
            write!(f, "{:.2}min", ms as f64 / 60_000.0)
        } else {
            write!(f, "{:.2}h", self.as_hours_f64())
        }
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
        self.saturating_sub(rhs)
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
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// An instant on the virtual timeline, measured from the simulation epoch.
///
/// # Examples
///
/// ```
/// use flint_simtime::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_hours(1);
/// assert_eq!(t.since_epoch().as_hours_f64(), 1.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The end of virtual time; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ms` milliseconds after the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from fractional hours after the epoch.
    pub fn from_hours_f64(hours: f64) -> Self {
        SimTime(SimDuration::from_hours_f64(hours).as_millis())
    }

    /// Returns the elapsed time since the epoch.
    pub const fn since_epoch(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// Returns the instant in whole milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the instant in fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant in fractional hours since the epoch.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Returns the duration from `earlier` to `self`, or zero if `earlier`
    /// is in the future.
    pub const fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration.
    pub const fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.as_millis()))
    }

    /// Returns the later of two instants.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_millis()))
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
        self.saturating_sub(rhs)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn fractional_conversions_round_trip() {
        let d = SimDuration::from_secs_f64(12.345);
        assert!((d.as_secs_f64() - 12.345).abs() < 1e-3);
        let h = SimDuration::from_hours_f64(2.5);
        assert!((h.as_hours_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn negative_and_nan_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(5),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
    }

    #[test]
    fn instant_duration_algebra() {
        let t0 = SimTime::from_millis(500);
        let t1 = t0 + SimDuration::from_secs(2);
        assert_eq!(t1 - t0, SimDuration::from_secs(2));
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_millis(12).to_string(), "12ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.00s");
        assert_eq!(SimDuration::from_mins(5).to_string(), "5.00min");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.00h");
        assert_eq!(SimDuration::MAX.to_string(), "inf");
    }

    #[test]
    fn div_by_zero_is_safe() {
        assert_eq!(SimDuration::from_secs(10) / 0, SimDuration::from_secs(10));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
