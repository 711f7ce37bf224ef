//! The event calendar.
//!
//! [`EventQueue`] is a priority queue ordered by simulation time with a FIFO
//! tie-break: two events scheduled for the same instant are delivered in the
//! order in which they were scheduled.  This mirrors CSIM's event-set semantics
//! and makes runs fully deterministic.

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the calendar: time, insertion sequence number, payload.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and, within a
        // time, the lowest sequence number) is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event calendar for discrete-event simulation.
///
/// The queue tracks the current simulation clock: [`EventQueue::pop`] advances
/// the clock to the timestamp of the delivered event.  Scheduling an event in
/// the past is a model bug and panics.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar with the clock at time zero.
    #[must_use]
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current simulation time (timestamp of the last delivered event).
    #[must_use]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies before the current simulation time.
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.  Returns `None` when the calendar is empty.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        Some((entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3.0), "c");
        q.schedule(SimTime::from_millis(1.0), "a");
        q.schedule(SimTime::from_millis(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break_for_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(4.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime::from_millis(4.0));
        assert!(q.pop().is_none());
        // Clock stays put when the queue drains.
        assert_eq!(q.now(), SimTime::from_millis(4.0));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10.0), ());
        q.pop().unwrap();
        q.schedule(SimTime::from_millis(1.0), ());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always come out in non-decreasing time order, regardless of
        /// the insertion order.
        #[test]
        fn prop_time_ordering(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_millis(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Every scheduled event is delivered exactly once.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0.0f64..1e3, 0..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_millis(*t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
