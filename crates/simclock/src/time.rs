//! Virtual time: [`SimTime`] instants and [`SimDuration`] spans.
//!
//! Both are thin wrappers around a `u64` nanosecond count. Arithmetic is
//! saturating rather than panicking: workload generators routinely compute
//! "previous tick minus interval" near the epoch, and saturation keeps those
//! edge cases well-defined (clamped to the epoch / zero).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual timeline, measured in nanoseconds since the
/// simulation epoch (time zero).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since the epoch as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked add of a duration: `None` when the instant would pass
    /// [`SimTime::MAX`]. Workload generators use this to turn the silent
    /// saturation of `+` (which would collapse late arrivals onto one
    /// instant) into a loud error near the timeline boundary.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable span; used as an "infinite" sentinel (e.g.
    /// a keep-alive policy that never expires).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a span from minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000_000)
    }

    /// Creates a span from a float number of seconds, rounded to the
    /// nearest nanosecond (halves away from zero) and clamped to `[0, MAX]`;
    /// NaN gives zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            return SimDuration::MAX;
        }
        // `f64::round` without the libm call. Below 2^53 the fraction
        // `ns - t` is exact (Sterbenz: t <= ns < 2t, or t = 0); from 2^53
        // up `ns` is integral and the fraction is 0. NaN truncates to 0.
        let t = ns as u64;
        SimDuration(t + u64::from(ns - t as f64 >= 0.5))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a float factor, clamped to `[0, MAX]`. Used by the
    /// hardware-profile cost model (e.g. Raspberry Pi ⇒ 10× slower compute).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked division producing the number of whole `other` spans in `self`
    /// (zero when `other` is zero).
    pub fn div_duration(self, other: SimDuration) -> u64 {
        self.0.checked_div(other.0).unwrap_or(0)
    }

    /// Checked multiply by an integer count: `None` on overflow. The `Mul`
    /// operator saturates (fine for cost models, where `MAX` means
    /// "forever"), but interval×index schedule math must not silently clamp —
    /// that would pile every overflowed arrival onto `u64::MAX` ns.
    pub fn checked_mul(self, rhs: u64) -> Option<SimDuration> {
        self.0.checked_mul(rhs).map(SimDuration)
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
        self.0 = self.0.saturating_add(rhs.0);
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
        self.0 = self.0.saturating_add(rhs.0);
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
        self.0 = self.0.saturating_sub(rhs.0);
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
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!((t + d).as_millis(), 15);
        assert_eq!((t - d).as_millis(), 5);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.duration_since(t + d), SimDuration::ZERO);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::ZERO.saturating_sub(SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::MAX * 2, SimDuration::MAX);
    }

    #[test]
    fn checked_arithmetic_reports_overflow() {
        let near_max = SimTime::from_nanos(u64::MAX - 10);
        assert_eq!(
            near_max.checked_add(SimDuration::from_nanos(10)),
            Some(SimTime::MAX)
        );
        assert_eq!(near_max.checked_add(SimDuration::from_nanos(11)), None);
        let big = SimDuration::from_nanos(u64::MAX / 2);
        assert_eq!(
            big.checked_mul(2),
            Some(SimDuration::from_nanos(u64::MAX - 1))
        );
        assert_eq!(big.checked_mul(3), None);
        // Contrast with the operator, which clamps.
        assert_eq!(big * 3, SimDuration::MAX);
    }

    #[test]
    fn float_conversions_clamp() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        let d = SimDuration::from_secs_f64(0.25);
        assert_eq!(d.as_millis(), 250);
        assert!((d.as_secs_f64() - 0.25).abs() < 1e-12);
    }

    /// The libm reference, `(s * 1e9).round()` under the same clamps:
    /// `from_secs_f64` must match it on every input.
    fn rounded_by_libm(s: f64) -> SimDuration {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = (s * 1e9).round();
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// `s` and the two bit patterns on each side of it.
    fn around(s: f64) -> [f64; 5] {
        let b = s.to_bits();
        [-2i64, -1, 0, 1, 2].map(|d| f64::from_bits(b.wrapping_add_signed(d)))
    }

    #[test]
    fn from_secs_f64_rounds_as_libm_at_fixed_points() {
        let mut cases = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ];
        for ns in [0.5, 1.5, 2.5, 2f64.powi(52), 2f64.powi(53), 2f64.powi(64)] {
            cases.extend(around(ns / 1e9));
            cases.extend(around((ns - 0.5) / 1e9));
        }
        for s in cases {
            assert_eq!(SimDuration::from_secs_f64(s), rounded_by_libm(s), "{s:e} s");
        }
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimDuration::from_secs_f64(2.5e-9).as_nanos(), 3);
    }

    #[test]
    fn prop_from_secs_f64_rounds_as_libm() {
        testkit::check(256, |g| {
            for _ in 0..256 {
                // Any bit pattern: negatives, subnormals, infinities, NaNs.
                let s = f64::from_bits(g.next_u64());
                assert_eq!(SimDuration::from_secs_f64(s), rounded_by_libm(s), "{s:e} s");
                // Near a half nanosecond, where the two roundings could part.
                let n = g.next_u64() >> g.u32_in(0..64);
                for s in around((n as f64 + 0.5) / 1e9) {
                    assert_eq!(SimDuration::from_secs_f64(s), rounded_by_libm(s), "{s:e} s");
                }
            }
        });
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(10.0).as_secs(), 1);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(0.5).as_millis(), 50);
    }

    #[test]
    fn div_duration_counts_intervals() {
        let hour = SimDuration::from_mins(60);
        assert_eq!(hour.div_duration(SimDuration::from_mins(15)), 4);
        assert_eq!(hour.div_duration(SimDuration::ZERO), 0);
    }

    #[test]
    fn display_formats_pick_unit() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(2)), "2ns");
    }

    #[test]
    fn sum_accumulates() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total.as_millis(), 10);
    }
}
