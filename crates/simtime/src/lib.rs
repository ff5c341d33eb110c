//! Virtual time primitives for the Flint transient-server simulator.
//!
//! Every component of the Flint reproduction — the spot-market simulator,
//! the data-parallel engine, and the policy layer — measures time with the
//! types in this crate rather than the wall clock. This makes hour- and
//! month-scale experiments run in milliseconds and, because all randomness
//! is routed through explicitly seeded generators (see [`rng`]), makes
//! every experiment reproducible bit-for-bit.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution instants and
//!   spans with saturating arithmetic and human-oriented constructors
//!   (`SimDuration::from_hours(50)`).
//! * [`Clock`] — a monotonically advancing virtual clock.
//! * [`EventQueue`] — a deterministic priority queue of timed events with
//!   stable FIFO ordering for simultaneous events.
//! * [`rng`] — helpers for deriving independent, named sub-streams from a
//!   single experiment seed.
//! * [`lock`] — the one place a poisoned `std::sync::Mutex` is recovered.
//! * [`fan_out`] — the one host-thread fan-out: the engine's task waves,
//!   Monte-Carlo campaigns and chaos runs all go through it.
//!
//! # Examples
//!
//! ```
//! use flint_simtime::{Clock, EventQueue, SimDuration, SimTime};
//!
//! let mut clock = Clock::new();
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(30), "warning");
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(120), "revocation");
//!
//! let (t, event) = queue.pop().unwrap();
//! clock.advance_to(t);
//! assert_eq!(event, "warning");
//! assert_eq!(clock.now().as_secs_f64(), 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod clock;
mod events;
pub mod rng;
mod time;

pub use clock::Clock;
pub use events::EventQueue;
pub use time::{SimDuration, SimTime};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard from a poisoned lock instead of
/// propagating the poison: a panic while holding one of the simulator's
/// locks is already a bug that surfaces on its own.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` over `items` on up to `jobs` scoped host threads, pulling
/// work from a shared atomic cursor. Results come back in input order,
/// so the caller's commit or merge loop is independent of scheduling.
/// `jobs <= 1` degenerates to a plain in-order loop over the very same
/// function: the sequential and parallel paths cannot diverge, and a
/// simulation that is deterministic per item stays byte-identical for
/// every `jobs` value.
///
/// ```
/// let squares = flint_simtime::fan_out(4, &[1u32, 2, 3], |x| x * x);
/// assert_eq!(squares, [1, 4, 9]);
/// ```
pub fn fan_out<T, O, F>(jobs: usize, items: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let n_threads = jobs.min(items.len());
    if n_threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, O)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fan-out worker thread panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fan_out_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 8] {
            let out = fan_out(jobs, &items, |x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_uses_multiple_threads_when_asked() {
        // With 8 threads over blocking-free work we can at least verify
        // every item ran exactly once.
        let counter = AtomicU64::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = fan_out(8, &items, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn fan_out_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(fan_out(8, &empty, |x| *x).is_empty());
        assert_eq!(fan_out(8, &[42u32], |x| *x + 1), vec![43]);
    }

    #[test]
    fn fan_out_overlaps_blocking_tasks() {
        // Eight 30 ms sleeps take ~240 ms sequentially; with 8 threads
        // they overlap to ~30 ms even on a single CPU. The generous bound
        // still proves concurrency.
        let items: Vec<u32> = (0..8).collect();
        let t0 = std::time::Instant::now();
        let out = fan_out(8, &items, |x| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            *x
        });
        let elapsed = t0.elapsed();
        assert_eq!(out, items);
        assert!(
            elapsed < std::time::Duration::from_millis(150),
            "8 blocking tasks did not overlap: {elapsed:?}"
        );
    }

    #[test]
    #[should_panic(expected = "fan-out worker thread panicked")]
    fn fan_out_propagates_panics() {
        let items: Vec<u32> = (0..10).collect();
        let _ = fan_out(4, &items, |x| {
            assert!(*x != 7, "boom");
            *x
        });
    }
}
