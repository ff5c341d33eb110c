//! A deterministic timed event queue.

use std::collections::{BTreeMap, VecDeque};

use crate::SimTime;

/// A priority queue of `(SimTime, E)` pairs popped in timestamp order.
///
/// Events scheduled for the same instant are popped in the order they were
/// scheduled (stable FIFO), which keeps simulations deterministic without
/// requiring `E: Ord`. Each instant owns one FIFO slot in an ordered map, so
/// a batch of events sharing an instant costs one map lookup to schedule
/// and a front pop each to drain, not a heap sift per event.
///
/// # Examples
///
/// ```
/// use flint_simtime::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(10), "b");
/// q.schedule(SimTime::from_millis(5), "a");
/// q.schedule(SimTime::from_millis(10), "c");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events per instant, in schedule order. No slot is empty.
    slots: BTreeMap<SimTime, VecDeque<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: BTreeMap::new(),
        }
    }

    /// Schedules `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.slots.entry(at).or_default().push_back(event);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut slot = self.slots.first_entry()?;
        let at = *slot.key();
        let event = slot.get_mut().pop_front()?;
        if slot.get().is_empty() {
            slot.remove();
        }
        Some((at, event))
    }

    /// Returns the timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.slots.first_key_value().map(|(at, _)| *at)
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, e) in [(30u64, 3), (10, 1), (20, 2)] {
            q.schedule(SimTime::from_millis(t), e);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for e in 0..100 {
            q.schedule(SimTime::from_millis(7), e);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "early");
        q.schedule(SimTime::from_millis(100), "late");
        assert_eq!(
            q.pop_before(SimTime::from_millis(50)),
            Some((SimTime::from_millis(10), "early"))
        );
        assert_eq!(q.pop_before(SimTime::from_millis(50)), None);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(100)));
    }
}
