//! Sinks and the shared trace bus.
//!
//! Emitters across the workspace hold clones of one [`TraceHandle`];
//! all of them feed the same [`TraceBus`], which fans each event out
//! to every attached [`EventSink`]. With no sinks attached the handle
//! is inert: `emit_with` is a single relaxed atomic load, and payload
//! closures are never run — the zero-overhead-when-disabled contract.
//! `benchmark/`'s `trace.overhead_share` times the same ops with the
//! trace off and on.

use crate::event::{Event, EventKind, FloatTokens};
use flint_simtime::{lock, SimTime};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Receiver of a trace stream. Implementations must not reorder or
/// drop events (the in-memory ring may drop from the *front* once its
/// capacity is reached — that is its documented contract).
pub trait EventSink: Send {
    /// Accepts one event. Called on the driver thread, in commit order.
    fn emit(&mut self, event: &Event);
    /// Flushes buffered output, if any.
    fn flush(&mut self) {}
}

/// Fan-out over the attached sinks. Usually owned by a [`TraceHandle`].
#[derive(Default)]
pub(crate) struct TraceBus {
    sinks: Vec<Box<dyn EventSink>>,
}

impl TraceBus {
    /// Attaches a sink; all subsequent events reach it.
    pub(crate) fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Broadcasts an already-built event to every sink.
    pub(crate) fn broadcast(&mut self, event: &Event) {
        for s in &mut self.sinks {
            s.emit(event);
        }
    }

    /// Flushes all sinks.
    pub(crate) fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
    }
}

/// Cloneable, thread-safe handle to a shared `TraceBus`.
///
/// The engine driver, the cloud simulator, and the node manager all
/// hold clones of the same handle, so a run produces one totally
/// ordered stream. Emission only ever happens on the driver thread
/// (compute-phase events are buffered in the task-output ledger and
/// committed in task-key order), so the stream is deterministic.
#[derive(Clone, Default)]
pub struct TraceHandle {
    enabled: Arc<AtomicBool>,
    bus: Arc<Mutex<TraceBus>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceHandle {
    /// A handle with no sinks: every emit is a no-op costing one
    /// relaxed atomic load.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any sink is attached (i.e. whether emits do work).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Attaches a sink, enabling the handle.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        let mut bus = lock(&self.bus);
        bus.add_sink(sink);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Attaches a bounded in-memory ring and returns its reader.
    /// `capacity == 0` means unbounded.
    pub fn attach_memory(&self, capacity: usize) -> MemoryReader {
        let (sink, reader) = memory_sink(capacity);
        self.add_sink(Box::new(sink));
        reader
    }

    /// Emits `kind` at time `t`. Prefer [`TraceHandle::emit_with`] on
    /// hot paths so payload construction is skipped when disabled.
    pub fn emit(&self, t: SimTime, kind: EventKind) {
        if self.is_enabled() {
            lock(&self.bus).broadcast(&Event { t, kind });
        }
    }

    /// Emits lazily: `f` runs only if a sink is attached.
    pub fn emit_with(&self, t: SimTime, f: impl FnOnce() -> EventKind) {
        if self.is_enabled() {
            lock(&self.bus).broadcast(&Event { t, kind: f() });
        }
    }

    /// Flushes every attached sink.
    pub fn flush(&self) {
        if self.is_enabled() {
            lock(&self.bus).flush();
        }
    }
}

/// Adapter so a `TraceHandle` can be handed to APIs that take a
/// `&mut dyn EventSink` (e.g. [`CheckpointHooks`] policy callbacks):
/// events pushed into it are broadcast on the shared bus.
///
/// [`CheckpointHooks`]: https://docs.rs/flint-engine
impl EventSink for TraceHandle {
    fn emit(&mut self, event: &Event) {
        if self.is_enabled() {
            lock(&self.bus).broadcast(event);
        }
    }

    fn flush(&mut self) {
        TraceHandle::flush(self);
    }
}

/// Bounded FIFO ring buffer of events, for tests and `trace summary`
/// over live runs.
pub(crate) struct MemorySink {
    buf: Arc<Mutex<VecDeque<Event>>>,
    capacity: usize,
}

/// Reading side of the in-memory ring that [`TraceHandle::attach_memory`] attaches.
#[derive(Clone)]
pub struct MemoryReader {
    buf: Arc<Mutex<VecDeque<Event>>>,
}

/// Creates a ring sink and its reader. `capacity == 0` = unbounded.
pub(crate) fn memory_sink(capacity: usize) -> (MemorySink, MemoryReader) {
    let buf = Arc::new(Mutex::new(VecDeque::new()));
    (
        MemorySink {
            buf: buf.clone(),
            capacity,
        },
        MemoryReader { buf },
    )
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: &Event) {
        let mut buf = lock(&self.buf);
        if self.capacity > 0 && buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

impl MemoryReader {
    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.buf).iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        lock(&self.buf).is_empty()
    }

    /// Renders the retained events as a JSONL document (one
    /// `Event::write_json` line each, `\n`-terminated).
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        let mut floats = FloatTokens::default();
        for ev in lock(&self.buf).iter() {
            ev.write_json(&mut out, &mut floats);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }
}

/// Streams events as JSONL to any writer (file, stdout, `Vec<u8>`).
///
/// Each event is encoded straight into an internal byte buffer
/// (`Event::write_json`; no per-event `String`, no UTF-8 check), and
/// lines reach the writer in [`JsonlSink::BUFFER_BYTES`]-sized chunks,
/// so a multi-gigabyte trace costs a bounded amount of memory and a syscall
/// every few thousand events rather than two per event.
/// [`EventSink::flush`] drains the buffer; `Drop` does too, so nothing is
/// lost if a flush is missed.
pub struct JsonlSink<W: Write + Send> {
    out: W,
    buf: Vec<u8>,
    floats: FloatTokens,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Buffered bytes beyond which the pending lines are written out.
    pub const BUFFER_BYTES: usize = 64 * 1024;

    /// Wraps a writer. Each event becomes one `\n`-terminated line.
    pub fn new(out: W) -> Self {
        Self {
            out,
            buf: Vec::with_capacity(Self::BUFFER_BYTES + 1024),
            floats: FloatTokens::default(),
        }
    }

    fn drain(&mut self) {
        if !self.buf.is_empty() {
            // Sinks have no error channel; a failed trace write must
            // not abort the simulated run. Undersized output is caught
            // by `trace validate`.
            let _ = self.out.write_all(&self.buf);
            self.buf.clear();
        }
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        event.write_json(&mut self.buf, &mut self.floats);
        self.buf.push(b'\n');
        if self.buf.len() >= Self::BUFFER_BYTES {
            self.drain();
        }
    }

    fn flush(&mut self) {
        self.drain();
        let _ = self.out.flush();
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.drain();
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: u64) -> Event {
        Event {
            t: SimTime::from_millis(ms),
            kind: EventKind::WaveStarted { tasks: ms },
        }
    }

    #[test]
    fn disabled_handle_never_runs_payload_closures() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        h.emit_with(SimTime::from_millis(1), || panic!("must not be built"));
    }

    #[test]
    fn attached_ring_sees_events_in_order() {
        let h = TraceHandle::disabled();
        let reader = h.attach_memory(0);
        assert!(h.is_enabled());
        for i in 0..5 {
            h.emit(SimTime::from_millis(i), EventKind::WaveStarted { tasks: i });
        }
        let got = reader.events();
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(reader.to_jsonl().lines().count(), 5);
    }

    #[test]
    fn ring_capacity_drops_oldest() {
        let (mut sink, reader) = memory_sink(3);
        for i in 0..10 {
            sink.emit(&ev(i));
        }
        let got = reader.events();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].t, SimTime::from_millis(7));
        assert_eq!(got[2].t, SimTime::from_millis(9));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.emit(&ev(1));
            sink.emit(&ev(2));
            sink.flush();
        }
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            Event::from_json(line).unwrap();
        }
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn jsonl_sink_buffers_small_emits_and_drains_on_drop() {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                lock(&self.0).extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let store = Shared(Arc::new(Mutex::new(Vec::new())));
        {
            let mut sink = JsonlSink::new(store.clone());
            sink.emit(&ev(1));
            sink.emit(&ev(2));
            assert!(
                lock(&store.0).is_empty(),
                "small emits must stay in the sink's buffer"
            );
        }
        let text = String::from_utf8(lock(&store.0).clone()).unwrap();
        assert_eq!(text.lines().count(), 2, "drop drains the buffer");
        for line in text.lines() {
            Event::from_json(line).unwrap();
        }
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let h = TraceHandle::disabled();
        let a = h.attach_memory(0);
        let b = h.attach_memory(0);
        h.emit(SimTime::from_millis(3), EventKind::WaveStarted { tasks: 1 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn handle_as_event_sink_broadcasts() {
        let mut h = TraceHandle::disabled();
        let reader = h.attach_memory(0);
        let sink: &mut dyn EventSink = &mut h;
        sink.emit(&ev(9));
        assert_eq!(reader.len(), 1);
    }
}
