//! The four workloads behind one interface. Each is a *fixed list of
//! operations* generated from the seed; the harness cycles through the
//! list for as long as it measures, so the first pass is always the
//! same work and its virtual-clock results repeat exactly.

mod als_serverless;
pub mod mc_week;
mod pagerank_revoked;
mod tpch_session;

use std::sync::{Arc, Mutex};

use flint::trace::{Event, EventSink, JsonlSink, MetricsAggregator, TraceHandle};

use crate::host::Spans;
use crate::metrics::Metrics;

/// What the product's own event trace is attached to while ops run.
/// The harness only ever moves forward through these (sinks can be
/// added to a live session but not removed).
#[derive(Clone)]
pub enum TraceMode {
    /// No sink: every emit is one relaxed load.
    Off,
    /// The product's JSONL sink into a null writer: every event is
    /// encoded, nothing reaches a disk.
    Jsonl,
    /// JSONL plus the harness's in-memory collector (traced pass).
    Collect(EventLog),
}

/// The product's event stream of the traced pass: every event folded
/// into the product's own `MetricsAggregator` as it arrives, and a
/// bounded prefix kept for the encode/decode cost probes (an `mc_week`
/// pass emits millions of events; keeping them all would measure the
/// allocator).
#[derive(Default)]
pub struct EventFold {
    pub totals: MetricsAggregator,
    pub sample: Vec<Event>,
}

impl EventFold {
    const SAMPLE_EVENTS: usize = 200_000;
}

pub type EventLog = Arc<Mutex<EventFold>>;

struct Collector(EventLog);

impl EventSink for Collector {
    fn emit(&mut self, event: &Event) {
        let mut fold = self.0.lock().expect("no holder of the event log panics");
        fold.totals.observe(event);
        if fold.sample.len() < EventFold::SAMPLE_EVENTS {
            fold.sample.push(event.clone());
        }
    }
}

impl TraceMode {
    /// Adds this mode's sinks to `handle`; `already` is the mode whose
    /// sinks the handle carries so far.
    pub fn attach(&self, handle: &TraceHandle, already: &TraceMode) {
        let had_jsonl = !matches!(already, TraceMode::Off);
        if !had_jsonl && !matches!(self, TraceMode::Off) {
            handle.add_sink(Box::new(JsonlSink::new(std::io::sink())));
        }
        if let (TraceMode::Collect(log), false) = (self, matches!(already, TraceMode::Collect(_))) {
            handle.add_sink(Box::new(Collector(log.clone())));
        }
    }

    /// A fresh handle carrying this mode's sinks.
    pub fn handle(&self) -> TraceHandle {
        let handle = TraceHandle::disabled();
        self.attach(&handle, &TraceMode::Off);
        handle
    }
}

/// How one run is set up.
#[derive(Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Op list cut to three ops, no warm-up (`--quick`).
    pub quick: bool,
}

impl RunCfg {
    /// The op-list length for this run.
    pub fn list_len(&self, full: usize) -> usize {
        if self.quick {
            full.min(3)
        } else {
            full
        }
    }
}

/// What one op produced.
pub struct OpOutcome {
    /// `None` when the op returned and its output check passed;
    /// otherwise why it counts as failed.
    pub failure: Option<String>,
    /// Digest of the op's *outputs* (rows, checksums): pinned for the
    /// default seed, and must repeat on every later pass.
    pub digest: u64,
    /// Simulated seconds the op took (the paper's clock).
    pub virtual_s: f64,
}

impl OpOutcome {
    pub fn failed(why: impl Into<String>) -> Self {
        OpOutcome {
            failure: Some(why.into()),
            digest: 0,
            virtual_s: 0.0,
        }
    }
}

pub trait Bench {
    /// Ops in one pass of the list.
    fn list_len(&self) -> usize;

    /// The trace mode the op is defined with (what the untraced
    /// end-to-end pass uses).
    fn default_trace(&self) -> TraceMode;

    /// Switches the trace mode. Workloads that build a fresh driver per
    /// op also restart their accounting here, so the traced pass
    /// reports exactly one pass over the list.
    fn set_trace(&mut self, mode: TraceMode);

    /// Host seconds the discarded warm-up op took; 20x this is every
    /// op's deadline.
    fn expected_op_s(&self) -> f64;

    /// Runs op `i` (the harness passes ever-growing `i`; stateless
    /// workloads replay entry `i % list_len()`).
    fn run_op(&mut self, i: usize, spans: &mut Spans) -> OpOutcome;

    /// Dollars billed over the ops run so far.
    fn cost_usd(&mut self, spans: &mut Spans) -> f64;

    /// Direct probes of the layers this workload leans on, through
    /// their public functions (traced pass only).
    fn layer_probes(&mut self, spans: &mut Spans, m: &mut Metrics);

    /// Ends the run and reports the product's own exact accounting for
    /// the ops run so far. Returns coverage gaps: paths this workload
    /// exists to exercise that the ops did not reach (`--bless` refuses
    /// to pin such a run).
    fn teardown(self: Box<Self>, spans: &mut Spans, m: &mut Metrics) -> Vec<String>;
}

/// Everything before the first timed op of `workload`.
pub fn setup(workload: &str, cfg: &RunCfg, spans: &mut Spans) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "tpch_session" => Box::new(tpch_session::TpchSession::setup(cfg, spans)?),
        "pagerank_revoked" => Box::new(pagerank_revoked::PagerankRevoked::setup(cfg, spans)?),
        "mc_week" => Box::new(mc_week::McWeek::setup(cfg, spans)?),
        "als_serverless" => Box::new(als_serverless::AlsServerless::setup(cfg, spans)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// FNV-1a over a byte stream: the digest the pinned results hold.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(mut self, bytes: &[u8]) -> Self {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn eat_u64(self, x: u64) -> Self {
        self.eat(&x.to_le_bytes())
    }
}
