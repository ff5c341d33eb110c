//! Property tests of the virtual-time algebra.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use flint_simtime::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// The binary-heap queue the per-instant queue replaced, transcribed:
/// entries ordered by `(at, seq)`, `seq` counting schedules.
struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Duration addition is commutative and associative (with saturation).
    #[test]
    fn duration_addition_laws(a in 0u64..1u64<<40, b in 0u64..1u64<<40, c in 0u64..1u64<<40) {
        let (a, b, c) = (
            SimDuration::from_millis(a),
            SimDuration::from_millis(b),
            SimDuration::from_millis(c),
        );
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + SimDuration::ZERO, a);
    }

    /// Instant/duration algebra round-trips: (t + d) - t == d and
    /// (t + d) - d == t.
    #[test]
    fn instant_round_trip(t in 0u64..1u64<<40, d in 0u64..1u64<<40) {
        let t = SimTime::from_millis(t);
        let d = SimDuration::from_millis(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }

    /// Subtraction saturates at zero: never panics, never wraps.
    #[test]
    fn saturating_subtraction(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let (da, db) = (SimDuration::from_millis(a), SimDuration::from_millis(b));
        let diff = da - db;
        if a >= b {
            prop_assert_eq!(diff.as_millis(), a - b);
        } else {
            prop_assert_eq!(diff, SimDuration::ZERO);
        }
    }

    /// Fractional-hours conversion round-trips within a millisecond.
    #[test]
    fn hours_round_trip(h in 0.0f64..100_000.0) {
        let d = SimDuration::from_hours_f64(h);
        prop_assert!((d.as_hours_f64() - h).abs() < 1.0 / 3_600_000.0 + 1e-9);
    }

    /// The event queue pops every scheduled event exactly once, in
    /// non-decreasing time order with FIFO ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1000, 0..50)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(*t), i);
        }
        let mut popped = Vec::new();
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "ties must pop in schedule order");
                }
            }
            last = Some((t, i));
            popped.push(i);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// The per-instant queue pops event for event what the transcribed
    /// heap queue pops, over interleaved `schedule` / `pop` /
    /// `pop_before` scripts. Instants come from a narrow range, so ties
    /// are common and many events land at or before an instant already
    /// popped.
    #[test]
    fn event_queue_matches_transcribed_heap(
        script in proptest::collection::vec((0u8..5, 0u64..12), 0..200),
    ) {
        let mut q = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (i, (op, t)) in script.iter().enumerate() {
            let at = SimTime::from_millis(*t);
            match op {
                0..=2 => {
                    q.schedule(at, i);
                    heap.schedule(at, i);
                }
                3 => prop_assert_eq!(q.pop(), heap.pop()),
                _ => prop_assert_eq!(q.pop_before(at), heap.pop_before(at)),
            }
            prop_assert_eq!(q.peek_time(), heap.peek_time());
        }
        while let Some(want) = heap.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }
}
