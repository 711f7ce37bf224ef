//! Trace time: simulated-millisecond conversion and the logical fallback
//! counter.
//!
//! Traces never read wall clocks (the detlint `wall-clock` rule bans them
//! for a reason: wall time is nondeterministic).  Deterministic events are
//! stamped from the simulated time of the charge that produced them (the
//! `exec::io` disk and interconnect queues, which all start at t = 0),
//! converted to integer microseconds here; when
//! the I/O layer is off there is no simulated clock, and deterministic
//! call sites fall back to a logical count — the scheduler stamps a
//! query's admission with its query id, its FIFO admission index — or a
//! [`LogicalClock`]: a plain monotonic counter advanced only on the
//! deterministic path, so its readings depend on that path's order alone.

use std::sync::atomic::{AtomicU64, Ordering};

/// Converts simulated milliseconds to the integer microseconds trace
/// events are stamped with (round-to-nearest; negative inputs clamp to 0).
///
/// Rounding f64 → u64 is itself deterministic, so bit-identical simulated
/// times yield identical timestamps.
#[must_use]
pub fn us_from_ms(ms: f64) -> u64 {
    if ms <= 0.0 {
        return 0;
    }
    let us = (ms * 1_000.0).round();
    if us >= u64::MAX as f64 {
        u64::MAX
    } else {
        us as u64
    }
}

/// A monotonic event counter — the timestamp source when no simulated disk
/// clock exists.
///
/// Determinism caveat: readings are deterministic only when every `tick`
/// happens on a deterministic code path (e.g. under one lock, in admission
/// order).  Ticking from racing worker threads yields valid but
/// run-dependent numbering — which is why worker-attributed events use
/// per-worker local cursors instead.
#[derive(Debug, Default)]
pub struct LogicalClock {
    next: AtomicU64,
}

impl LogicalClock {
    /// A counter starting at 0.
    #[must_use]
    pub fn new() -> Self {
        LogicalClock::default()
    }

    /// Returns the current value and advances the counter.
    pub fn tick(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// The number of ticks taken so far.
    #[must_use]
    pub fn elapsed(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_to_us_rounds_and_clamps() {
        assert_eq!(us_from_ms(0.0), 0);
        assert_eq!(us_from_ms(-3.5), 0);
        assert_eq!(us_from_ms(1.0), 1_000);
        assert_eq!(us_from_ms(0.0004), 0);
        assert_eq!(us_from_ms(0.0006), 1);
        assert_eq!(us_from_ms(f64::MAX), u64::MAX);
    }

    #[test]
    fn logical_clock_counts_ticks() {
        let clock = LogicalClock::new();
        assert_eq!(clock.elapsed(), 0);
        assert_eq!(clock.tick(), 0);
        assert_eq!(clock.tick(), 1);
        assert_eq!(clock.elapsed(), 2);
    }
}
