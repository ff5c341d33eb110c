//! # flint-trace — structured event tracing for the Flint simulator
//!
//! Every figure in the Flint paper (EuroSys 2016, Figs. 2–11) is a
//! projection of one underlying event stream: checkpoint decisions,
//! τ/δ adaptations, price spikes, revocation warnings, recomputation
//! cascades. This crate makes that stream first-class:
//!
//! * [`Event`] / [`EventKind`] — the typed vocabulary, timestamped in
//!   virtual time ([`flint_simtime::SimTime`]).
//! * [`TraceHandle`] / `TraceBus` — a cloneable bus shared by the
//!   engine driver, the cloud simulator, and the node manager, so a
//!   run yields one totally ordered stream. Zero overhead when no
//!   sink is attached (one relaxed atomic load per emit site).
//! * Sinks — [`TraceHandle::attach_memory`] (bounded ring, for tests),
//!   [`JsonlSink`] (streaming JSONL through the hand-rolled codec of
//!   `Event::write_json`).
//! * [`MetricsAggregator`] — folds a stream back into the totals
//!   `RunStats`/`CostReport` track, as a cross-check that traces are
//!   complete.
//!
//! ## Determinism
//!
//! Emission happens only on the driver thread. Events arising inside
//! the parallel compute phase are buffered in the task-output effect
//! ledger and committed in task-key order, so the byte stream is
//! identical for any `host_threads` setting — the same guarantee the
//! engine already makes for results and stats, extended to
//! observability.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod aggregate;
mod event;
mod sink;

pub use aggregate::MetricsAggregator;
pub use event::{Event, EventKind, ParseError};
pub use sink::{EventSink, JsonlSink, MemoryReader, TraceHandle};
