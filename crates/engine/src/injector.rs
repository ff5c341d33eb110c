//! Worker failure schedules.
//!
//! The engine is agnostic to *why* workers come and go: a
//! [`FailureInjector`] feeds it timed [`WorkerEvent`]s. In production-like
//! runs the injector is Flint's node manager bridging the spot-market
//! simulator; in tests it is a scripted sequence.

use flint_simtime::SimTime;

use crate::WorkerSpec;

/// A timed change to cluster membership.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerEvent {
    /// A worker with external id `ext_id` joins the cluster.
    Add {
        /// External (e.g. cloud instance) identifier.
        ext_id: u64,
        /// Hardware shape.
        spec: WorkerSpec,
    },
    /// The provider issued a revocation warning for `ext_id`.
    Warn {
        /// External identifier.
        ext_id: u64,
    },
    /// The worker `ext_id` is revoked: all its local state is lost.
    Remove {
        /// External identifier.
        ext_id: u64,
    },
}

/// A source of timed worker events.
pub trait FailureInjector {
    /// Returns all events with `from < t <= to`, in time order. Called
    /// with monotonically advancing windows; implementations may react to
    /// earlier events (e.g. request replacement servers) when producing
    /// later ones.
    fn events(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, WorkerEvent)>;

    /// Returns the next event time strictly after `t`, if known. Used by
    /// the driver to sleep when the cluster is empty.
    fn next_event_after(&mut self, t: SimTime) -> Option<SimTime>;

    /// Describes the faults this injector deliberately planted in the
    /// same `from < t <= to` window, as `(t, kind, target)` triples the
    /// driver turns into `FaultInjected` trace events. Ordinary
    /// injectors (scripted schedules, the node manager) plant none —
    /// the default keeps them silent, so traces without a chaos
    /// campaign are byte-identical to pre-chaos runs.
    fn fault_notes(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, String, String)> {
        let _ = (from, to);
        Vec::new()
    }
}

/// An injector that never produces events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFailures;

impl FailureInjector for NoFailures {
    fn events(&mut self, _from: SimTime, _to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        Vec::new()
    }

    fn next_event_after(&mut self, _t: SimTime) -> Option<SimTime> {
        None
    }
}

/// A pre-scripted event sequence, for tests and controlled experiments
/// (e.g. "revoke 5 workers at t = 60 s", Fig. 7/8).
///
/// # Examples
///
/// ```
/// use flint_engine::{FailureInjector, ScriptedInjector, WorkerEvent, WorkerSpec};
/// use flint_simtime::SimTime;
///
/// let mut inj = ScriptedInjector::new(vec![
///     (SimTime::from_millis(10), WorkerEvent::Remove { ext_id: 3 }),
/// ]);
/// assert_eq!(inj.next_event_after(SimTime::ZERO), Some(SimTime::from_millis(10)));
/// let evs = inj.events(SimTime::ZERO, SimTime::from_millis(20));
/// assert_eq!(evs.len(), 1);
/// // Events are consumed exactly once.
/// assert!(inj.events(SimTime::ZERO, SimTime::from_millis(20)).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ScriptedInjector {
    events: Vec<(SimTime, WorkerEvent)>,
    cursor: usize,
}

/// Delivery precedence for events sharing a timestamp: joins land
/// before warnings, warnings before revocations.
fn kind_rank(ev: &WorkerEvent) -> u8 {
    match ev {
        WorkerEvent::Add { .. } => 0,
        WorkerEvent::Warn { .. } => 1,
        WorkerEvent::Remove { .. } => 2,
    }
}

impl ScriptedInjector {
    /// Creates an injector from an event list (sorted internally).
    ///
    /// Events sharing a timestamp are delivered `Add` → `Warn` →
    /// `Remove` (ties beyond that keep script order — the sort is
    /// stable). In particular, a `Warn` and a `Remove` for the same
    /// `ext_id` landing in the same tick deliver the warning first, so
    /// the driver observes the provider's warn-then-revoke contract
    /// even with a zero-width warning window; script order can not
    /// accidentally revoke a worker and then warn its ghost.
    pub fn new(mut events: Vec<(SimTime, WorkerEvent)>) -> Self {
        events.sort_by_key(|(t, ev)| (*t, kind_rank(ev)));
        ScriptedInjector { events, cursor: 0 }
    }
}

impl FailureInjector for ScriptedInjector {
    fn events(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        let mut out = Vec::new();
        while self.cursor < self.events.len() {
            let (t, ev) = self.events[self.cursor];
            if t <= from {
                // Late discovery of an old event: deliver it anyway so
                // nothing is silently skipped.
                self.cursor += 1;
                out.push((t, ev));
            } else if t <= to {
                self.cursor += 1;
                out.push((t, ev));
            } else {
                break;
            }
        }
        out
    }

    fn next_event_after(&mut self, t: SimTime) -> Option<SimTime> {
        self.events[self.cursor..]
            .iter()
            .map(|(et, _)| *et)
            .find(|et| *et > t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn scripted_delivers_in_windows() {
        let mut inj = ScriptedInjector::new(vec![
            (t(30), WorkerEvent::Remove { ext_id: 1 }),
            (t(10), WorkerEvent::Warn { ext_id: 1 }),
        ]);
        let w1 = inj.events(SimTime::ZERO, t(15));
        assert_eq!(w1, vec![(t(10), WorkerEvent::Warn { ext_id: 1 })]);
        let w2 = inj.events(t(15), t(100));
        assert_eq!(w2, vec![(t(30), WorkerEvent::Remove { ext_id: 1 })]);
        assert_eq!(inj.next_event_after(SimTime::ZERO), None);
    }

    /// The driver's scheduler loop relies on `next_event_after(t) > t`:
    /// an event sitting exactly at `t` is not "after" it, whether or not
    /// it was delivered yet.
    #[test]
    fn scripted_next_event_is_strictly_after() {
        let mut inj = ScriptedInjector::new(vec![
            (t(10), WorkerEvent::Warn { ext_id: 1 }),
            (t(10), WorkerEvent::Remove { ext_id: 1 }),
            (t(30), WorkerEvent::Remove { ext_id: 2 }),
        ]);
        assert_eq!(inj.next_event_after(t(9)), Some(t(10)));
        assert_eq!(inj.next_event_after(t(10)), Some(t(30)));
        assert_eq!(inj.events(SimTime::ZERO, t(10)).len(), 2);
        assert_eq!(inj.next_event_after(t(10)), Some(t(30)));
        assert_eq!(inj.next_event_after(t(30)), None);
    }

    #[test]
    fn no_failures_is_silent() {
        let mut inj = NoFailures;
        assert!(inj.events(SimTime::ZERO, t(1_000_000)).is_empty());
        assert_eq!(inj.next_event_after(SimTime::ZERO), None);
        assert!(inj.fault_notes(SimTime::ZERO, t(1_000_000)).is_empty());
    }

    #[test]
    fn same_tick_events_deliver_add_warn_remove() {
        // Scripted in the worst order: the same tick revokes ext 1,
        // warns ext 1, and adds its replacement. Delivery must be
        // Add → Warn → Remove regardless of script order.
        let spec = WorkerSpec::r3_large();
        let mut inj = ScriptedInjector::new(vec![
            (t(50), WorkerEvent::Remove { ext_id: 1 }),
            (t(50), WorkerEvent::Warn { ext_id: 1 }),
            (t(50), WorkerEvent::Add { ext_id: 2, spec }),
        ]);
        let evs = inj.events(SimTime::ZERO, t(100));
        assert_eq!(
            evs,
            vec![
                (t(50), WorkerEvent::Add { ext_id: 2, spec }),
                (t(50), WorkerEvent::Warn { ext_id: 1 }),
                (t(50), WorkerEvent::Remove { ext_id: 1 }),
            ]
        );
    }

    #[test]
    fn same_tick_same_kind_keeps_script_order() {
        let mut inj = ScriptedInjector::new(vec![
            (t(50), WorkerEvent::Remove { ext_id: 7 }),
            (t(50), WorkerEvent::Remove { ext_id: 3 }),
        ]);
        let evs = inj.events(SimTime::ZERO, t(100));
        assert_eq!(
            evs,
            vec![
                (t(50), WorkerEvent::Remove { ext_id: 7 }),
                (t(50), WorkerEvent::Remove { ext_id: 3 }),
            ]
        );
    }
}
