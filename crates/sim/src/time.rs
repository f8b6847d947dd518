//! Virtual clock types.
//!
//! All simulated timestamps are integer milliseconds since the start of the
//! simulation. Millisecond resolution is fine-grained enough for transfer
//! dynamics (the shortest interesting interval in the study is a TCP window
//! stall) while a full measurement week is only 6.048×10⁸ ms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (milliseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Time elapsed since `earlier`; zero if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Which simulated day (0-based) this instant falls in.
    pub fn day(self) -> u64 {
        self.0 / SimDuration::from_days(1).0
    }

    /// Offset within the current simulated day.
    pub fn time_of_day(self) -> SimDuration {
        SimDuration(self.0 % SimDuration::from_days(1).0)
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600 * 1000)
    }

    /// Construct from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400 * 1000)
    }

    /// Construct from fractional seconds. Negative and NaN inputs clamp to
    /// zero; overflow clamps to the maximum representable span.
    pub fn from_secs_f64(s: f64) -> Self {
        // `!(s > 0.0)` deliberately catches NaN along with non-positives.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(s > 0.0) {
            return SimDuration::ZERO;
        }
        let ms = s * 1000.0;
        if ms >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ms.round() as u64)
        }
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The span in minutes, as a float (the unit most of the paper's delay
    /// figures use).
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1000;
        let s = (self.0 / 1000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = (self.0 / 3_600_000) % 24;
        let d = self.0 / 86_400_000;
        write!(f, "d{d} {h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1000 {
            write!(f, "{}ms", self.0)
        } else if self.0 < 60_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if self.0 < 3_600_000 {
            write!(f, "{:.1}min", self.as_mins_f64())
        } else {
            write!(f, "{:.2}h", self.0 as f64 / 3_600_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_hours(1).as_millis(), 3_600_000);
        assert_eq!(SimDuration::from_days(7).as_millis(), 604_800_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(t.as_millis(), 10_000);
        assert_eq!((t - SimTime::from_millis(4000)).as_millis(), 6000);
        // Subtracting a later time saturates to zero rather than wrapping.
        assert_eq!((SimTime::from_millis(1) - SimTime::from_millis(5)).as_millis(), 0);
    }

    #[test]
    fn fractional_seconds_clamp() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_millis(), 2);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY).as_millis(), u64::MAX);
    }

    #[test]
    fn day_accessors() {
        let t = SimTime::ZERO + SimDuration::from_days(2) + SimDuration::from_hours(5);
        assert_eq!(t.day(), 2);
        assert_eq!(t.time_of_day(), SimDuration::from_hours(5));
    }

    #[test]
    fn display_formats() {
        let t = SimTime::ZERO + SimDuration::from_days(1) + SimDuration::from_millis(3_723_004);
        assert_eq!(format!("{t}"), "d1 01:02:03.004");
        assert_eq!(format!("{}", SimDuration::from_millis(500)), "500ms");
        assert_eq!(format!("{}", SimDuration::from_secs(90 * 60)), "1.50h");
    }
}
