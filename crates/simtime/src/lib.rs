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

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard from a poisoned lock instead of
/// propagating the poison: a panic while holding one of the simulator's
/// locks is already a bug that surfaces on its own.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
