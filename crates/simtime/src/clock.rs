//! A monotonically advancing virtual clock.

use crate::{SimDuration, SimTime};

/// A virtual clock that only moves forward.
///
/// The clock is deliberately minimal: components that need to *wait* do so
/// by scheduling events on an [`crate::EventQueue`] and advancing the clock
/// to each event's timestamp as it is popped.
///
/// # Examples
///
/// ```
/// use flint_simtime::{Clock, SimDuration};
///
/// let mut clock = Clock::new();
/// clock.advance(SimDuration::from_mins(2));
/// assert_eq!(clock.now().since_epoch(), SimDuration::from_mins(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// Creates a clock positioned at the simulation epoch.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// Returns the current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Moves the clock to `t`.
    ///
    /// Moving to an instant in the past is a no-op: the clock is monotonic,
    /// which keeps event processing robust against ties and stale events.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_millis(100));
        c.advance_to(SimTime::from_millis(50));
        assert_eq!(c.now(), SimTime::from_millis(100));
    }

    #[test]
    fn advance_accumulates() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_millis(10));
        c.advance(SimDuration::from_millis(15));
        c.advance(SimDuration::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(30));
    }
}
