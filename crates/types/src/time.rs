//! Simulated time: a microsecond-resolution monotonic clock.
//!
//! The discrete-event simulator, the trace replayer and the consistency
//! protocols all reason about time through [`SimTime`] (an instant) and
//! [`SimDuration`] (a span). Both are thin wrappers over `u64` microseconds,
//! cheap to copy and totally ordered, so they can key event queues and lease
//! tables directly.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on the simulated clock, measured in microseconds since the
/// start of the simulation.
///
/// `SimTime` is totally ordered and saturates at `u64::MAX` (≈ 584 thousand
/// years), which doubles as the "never" sentinel [`SimTime::NEVER`] used for
/// infinite leases and unset timers.
///
/// # Examples
///
/// ```
/// use wcc_types::{SimTime, SimDuration};
///
/// let t = SimTime::from_secs(60) + SimDuration::from_millis(500);
/// assert_eq!(t.as_micros(), 60_500_000);
/// assert!(t < SimTime::NEVER);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use wcc_types::SimDuration;
///
/// let d = SimDuration::from_days(50);
/// assert_eq!(d.as_secs(), 50 * 86_400);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A sentinel instant later than every reachable instant ("never").
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from whole seconds since simulation start.
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

    /// Whole seconds since simulation start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The longest span: added to any instant, it gives [`SimTime::NEVER`].
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000)
    }

    /// Creates a span from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * 1_000_000)
    }

    /// Creates a span from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400 * 1_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration((secs * 1e6).round() as u64)
        }
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scales the span by a float factor, rounding to the nearest
    /// microsecond and clamping negative results to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Integer division of the span, rounding down. Division by zero yields
    /// [`SimDuration::ZERO`] rather than panicking.
    pub const fn div(self, divisor: u64) -> SimDuration {
        match self.0.checked_div(divisor) {
            Some(v) => SimDuration(v),
            None => SimDuration(0),
        }
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

    /// The span between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when the ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign<SimDuration> for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimTime::NEVER {
            write!(f, "SimTime(NEVER)")
        } else {
            write!(f, "SimTime({}us)", self.0)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimTime::NEVER {
            return write!(f, "never");
        }
        let secs = self.as_secs();
        let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
        write!(f, "{h:02}:{m:02}:{s:02}.{:06}", self.0 % 1_000_000)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({}us)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 86_400_000_000 {
            write!(f, "{:.2}d", us as f64 / 86_400e6)
        } else if us >= 3_600_000_000 {
            write!(f, "{:.2}h", us as f64 / 3_600e6)
        } else if us >= 1_000_000 {
            write!(f, "{:.3}s", us as f64 / 1e6)
        } else if us >= 1_000 {
            write!(f, "{:.3}ms", us as f64 / 1e3)
        } else {
            write!(f, "{us}us")
        }
    }
}

/// The workspace's single doorway to the host's wall clock.
///
/// Everything that genuinely needs real elapsed time (the TCP prototype's
/// completion waits, bench harnesses) measures it through a `WallClock`
/// rather than calling `std::time::Instant::now()` directly. Clippy's
/// `disallowed_methods` (root `clippy.toml`) denies raw wall-clock reads
/// everywhere else, which keeps the simulation crates deterministic by
/// construction.
///
/// # Examples
///
/// ```
/// use wcc_types::{SimDuration, WallClock};
///
/// let clock = WallClock::start();
/// assert!(!clock.has_elapsed(SimDuration::from_secs(3600)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    start: std::time::Instant,
}

impl WallClock {
    /// Starts measuring from the current instant.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one doorway to the host's wall clock"
    )]
    pub fn start() -> Self {
        WallClock {
            start: std::time::Instant::now(),
        }
    }

    /// Wall time elapsed since [`WallClock::start`], as a [`SimDuration`]
    /// (microsecond resolution, saturating).
    pub fn elapsed(&self) -> SimDuration {
        let micros = self.start.elapsed().as_micros();
        SimDuration::from_micros(u64::try_from(micros).unwrap_or(u64::MAX))
    }

    /// Whether at least `timeout` of wall time has passed since the start.
    pub fn has_elapsed(&self, timeout: SimDuration) -> bool {
        self.elapsed() >= timeout
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
        assert_eq!(SimDuration::from_hours(1).as_secs(), 3_600);
        assert_eq!(SimDuration::from_days(2).as_secs(), 172_800);
    }

    #[test]
    fn arithmetic_is_saturating() {
        let near_max = SimTime::from_micros(u64::MAX - 5);
        assert_eq!(near_max + SimDuration::from_secs(10), SimTime::NEVER);
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn instant_difference() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!(a - b, SimDuration::from_secs(6));
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_millis(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert!((SimDuration::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.1), SimDuration::from_secs(1));
        assert_eq!(d.saturating_mul(6), SimDuration::from_mins(1));
        assert_eq!(d.div(4), SimDuration::from_millis(2_500));
        assert_eq!(d.div(0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimTime::NEVER > b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(3_661)), "01:01:01.000000");
        assert_eq!(format!("{}", SimTime::NEVER), "never");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(90)), "90.000s");
        assert_eq!(format!("{}", SimDuration::from_days(50)), "50.00d");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
