//! Simulation time.
//!
//! All model parameters in the paper (seek times, per-page transfer times,
//! instruction costs divided by MIPS rates) are naturally expressed in
//! milliseconds, so [`SimTime`] stores milliseconds as an `f64`.  The type is a
//! thin newtype that provides total ordering (simulation time is never NaN).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in (or span of) simulation time, in milliseconds.
///
/// `SimTime` is used both for absolute timestamps and for durations; the
/// arithmetic operators behave as expected for either interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct SimTime(f64);

impl SimTime {
    /// Time zero (the start of every simulation run).
    pub(crate) const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is NaN or negative; simulation time is totally ordered
    /// and never moves backwards.
    #[must_use]
    pub(crate) fn from_millis(ms: f64) -> Self {
        assert!(!ms.is_nan(), "simulation time must not be NaN");
        assert!(ms >= 0.0, "simulation time must not be negative: {ms}");
        SimTime(ms)
    }

    /// The value in milliseconds.
    #[must_use]
    pub(crate) fn as_millis(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, so a total order exists.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        assert!(
            self.0 >= rhs.0,
            "SimTime subtraction would be negative ({} - {})",
            self.0,
            rhs.0
        );
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000.0 {
            write!(f, "{:.3} s", self.0 / 1_000.0)
        } else {
            write!(f, "{:.3} ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        let t = SimTime::from_millis(1_500.0);
        assert_eq!(t.as_millis(), 1_500.0);
        assert_eq!(SimTime::ZERO.as_millis(), 0.0);
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_millis(1.0);
        let b = SimTime::from_millis(2.0);
        assert!(a < b);
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10.0);
        let b = SimTime::from_millis(4.0);
        assert_eq!((a + b).as_millis(), 14.0);
        assert_eq!((a - b).as_millis(), 6.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_millis(-1.0);
    }

    #[test]
    #[should_panic(expected = "would be negative")]
    fn underflowing_sub_rejected() {
        let _ = SimTime::from_millis(1.0) - SimTime::from_millis(2.0);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(format!("{}", SimTime::from_millis(12.5)), "12.500 ms");
        assert_eq!(format!("{}", SimTime::from_millis(2_000.0)), "2.000 s");
    }
}
