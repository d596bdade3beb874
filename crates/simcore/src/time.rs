//! Virtual time, durations, and link-rate arithmetic.
//!
//! Time is kept as an absolute number of nanoseconds since the start of the
//! simulation in a `u64`, which covers ~584 years of virtual time — far more
//! than any experiment here needs. Rates are kept in bits per second.
//!
//! Serialization delays are computed with rounding-up integer arithmetic so
//! that a packet never finishes "early"; this keeps byte conservation checks
//! exact in tests.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

/// A transmission rate in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rate(u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Builds an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition that saturates at [`Time::MAX`].
    pub fn saturating_add(self, d: TimeDelta) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl TimeDelta {
    /// A zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The largest representable span.
    pub const MAX: TimeDelta = TimeDelta(u64::MAX);

    /// Builds a span from raw nanoseconds.
    pub const fn nanos(ns: u64) -> Self {
        TimeDelta(ns)
    }

    /// Builds a span from microseconds.
    pub const fn micros(us: u64) -> Self {
        TimeDelta(us * 1_000)
    }

    /// Builds a span from milliseconds.
    pub const fn millis(ms: u64) -> Self {
        TimeDelta(ms * 1_000_000)
    }

    /// Builds a span from whole seconds.
    pub const fn secs(s: u64) -> Self {
        TimeDelta(s * 1_000_000_000)
    }

    /// Builds a span from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        TimeDelta((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the span by a non-negative float factor, rounding.
    pub fn mul_f64(self, f: f64) -> TimeDelta {
        assert!(f.is_finite() && f >= 0.0, "invalid factor: {f}");
        TimeDelta((self.0 as f64 * f).round() as u64)
    }
}

impl Rate {
    /// A zero rate. Dividing a size by it yields [`TimeDelta::MAX`].
    pub const ZERO: Rate = Rate(0);

    /// Builds a rate from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Builds a rate from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Builds a rate from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Rate(gbps * 1_000_000_000)
    }

    /// Raw bits-per-second value.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Time needed to serialize `bytes` at this rate, rounded up to the next
    /// nanosecond. A zero rate yields [`TimeDelta::MAX`].
    pub fn serialize(self, bytes: u64) -> TimeDelta {
        if self.0 == 0 {
            return TimeDelta::MAX;
        }
        let bits = (bytes as u128) * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        TimeDelta(ns.min(u64::MAX as u128) as u64)
    }

    /// Number of whole bytes this rate delivers over `d`.
    pub fn bytes_over(self, d: TimeDelta) -> u64 {
        let bits = (self.0 as u128) * (d.0 as u128) / 1_000_000_000;
        (bits / 8).min(u64::MAX as u128) as u64
    }

    /// Scales the rate by a non-negative factor (e.g. a DWRR weight), rounding.
    pub fn scale(self, f: f64) -> Rate {
        assert!(f.is_finite() && f >= 0.0, "invalid rate scale: {f}");
        Rate((self.0 as f64 * f).round() as u64)
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    fn sub(self, rhs: Time) -> TimeDelta {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        TimeDelta(self.0 - rhs.0)
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<u64> for TimeDelta {
    type Output = TimeDelta;
    fn div(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}bps", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_rounds_up() {
        // 1500 bytes at 10 Gbps = 1200 ns exactly.
        assert_eq!(Rate::from_gbps(10).serialize(1500), TimeDelta::nanos(1_200));
        // 1 byte at 3 bps: 8/3 s -> rounds up.
        assert_eq!(
            Rate::from_bps(3).serialize(1),
            TimeDelta::nanos(2_666_666_667)
        );
    }

    #[test]
    fn serialize_zero_rate_is_infinite() {
        assert_eq!(Rate::ZERO.serialize(1), TimeDelta::MAX);
    }

    #[test]
    fn bytes_over_inverts_serialize_approximately() {
        let r = Rate::from_gbps(40);
        let d = r.serialize(1_000_000);
        let b = r.bytes_over(d);
        assert!((1_000_000..=1_000_001).contains(&b), "bytes_over = {b}");
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_micros(5) + TimeDelta::nanos(10);
        assert_eq!(t.as_nanos(), 5_010);
        assert_eq!(t - Time::from_micros(5), TimeDelta::nanos(10));
        assert_eq!(
            Time::from_micros(1).saturating_since(Time::from_micros(2)),
            TimeDelta::ZERO
        );
    }

    #[test]
    fn rate_scale() {
        assert_eq!(Rate::from_gbps(10).scale(0.5), Rate::from_gbps(5));
        assert_eq!(Rate::from_gbps(40).scale(0.0546).as_bps(), 2_184_000_000);
    }

    #[test]
    fn delta_constructors_agree() {
        assert_eq!(TimeDelta::micros(1), TimeDelta::nanos(1_000));
        assert_eq!(TimeDelta::millis(1), TimeDelta::micros(1_000));
        assert_eq!(TimeDelta::secs(1), TimeDelta::millis(1_000));
        assert_eq!(TimeDelta::from_secs_f64(0.5), TimeDelta::millis(500));
    }

    #[test]
    fn delta_mul_div() {
        assert_eq!(TimeDelta::micros(3) * 2, TimeDelta::micros(6));
        assert_eq!(TimeDelta::micros(3) / 3, TimeDelta::micros(1));
        assert_eq!(TimeDelta::micros(4).mul_f64(1.5), TimeDelta::micros(6));
    }
}
