//! Folding a trace back into run-level metrics.
//!
//! [`MetricsAggregator`] consumes an event stream and reproduces the
//! totals the engine's `RunStats` and the core's `CostReport` track
//! independently. That redundancy is the point: the determinism suite
//! asserts the fold matches the counters exactly, so a trace is a
//! *complete* record of a run, not a lossy sample of it.

use crate::event::{Event, EventKind};
use flint_simtime::SimTime;
use std::fmt;

/// Power-of-two bucketed histogram over non-negative integer samples
/// (virtual millis, bytes). Bucket `i` holds values `v` with
/// `2^(i-1) <= v < 2^i` (bucket 0 holds zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub(crate) fn record(&mut self, v: u64) {
        let idx = (u64::BITS - v.leading_zeros()) as usize; // 0 for v=0
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample, or 0 when empty.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), or 0 when empty. Coarse by construction —
    /// buckets are powers of two — but monotone and deterministic.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }
}

/// Totals reproduced from a trace, mirroring the engine's `RunStats`
/// field-for-field (durations as virtual millis) plus market/core
/// aggregates mirroring `CostReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsAggregator {
    /// Total events folded.
    pub events: u64,
    /// Timestamp of the first event seen.
    pub(crate) first_t: Option<SimTime>,
    /// Timestamp of the last event seen.
    pub(crate) last_t: Option<SimTime>,

    // ── engine: mirrors RunStats ───────────────────────────────────
    /// Compute tasks committed (`TaskFinished`).
    pub tasks_run: u64,
    /// Σ `TaskFinished.millis` — mirrors `RunStats::compute_time`.
    pub compute_time_ms: u64,
    /// Σ `Recomputed.millis` — mirrors `RunStats::recompute_time`.
    pub recompute_time_ms: u64,
    /// Σ `CheckpointWritten.millis` — mirrors `RunStats::checkpoint_time`.
    pub checkpoint_time_ms: u64,
    /// `CheckpointWritten` count — mirrors `RunStats::checkpoints_written`.
    pub checkpoints_written: u64,
    /// Σ `CheckpointWritten.vbytes` — mirrors `RunStats::checkpoint_bytes`.
    pub checkpoint_bytes: u64,
    /// Σ `CheckpointWritten.wire_bytes` — mirrors
    /// `RunStats::checkpoint_wire_bytes`.
    pub checkpoint_wire_bytes: u64,
    /// Σ `Restored.millis` — mirrors `RunStats::restore_time`.
    pub restore_time_ms: u64,
    /// `Restored` count — mirrors `RunStats::restores`.
    pub restores: u64,
    /// Σ `Stalled.millis` — mirrors `RunStats::stall_time`.
    pub stall_time_ms: u64,
    /// `WorkerRevoked` count — mirrors `RunStats::revocations`.
    pub revocations: u64,
    /// `RevocationWarning` count — mirrors `RunStats::warnings`.
    pub warnings: u64,
    /// `ActionFinished` count — mirrors `RunStats::actions.len()`.
    pub actions: u64,
    /// Waves dispatched to the parallel executor.
    pub waves: u64,

    // ── engine: cache churn ────────────────────────────────────────
    /// Blocks inserted into worker memory.
    pub cache_inserts: u64,
    /// Blocks demoted memory → disk.
    pub cache_spills: u64,
    /// Blocks dropped outright.
    pub cache_evicts: u64,

    // ── policy ─────────────────────────────────────────────────────
    /// `CheckpointScheduled` directives observed.
    pub checkpoints_scheduled: u64,
    /// τ re-estimations observed.
    pub tau_adaptations: u64,
    /// Most recent τ (ms), if any `TauAdapted` was seen.
    pub(crate) last_tau_ms: Option<u64>,
    /// Checkpoint GC rounds.
    pub(crate) gc_rounds: u64,
    /// Maximum lineage recompute depth observed.
    pub(crate) max_recompute_depth: u64,

    // ── market / core: mirrors CostReport ──────────────────────────
    /// Σ `InstanceBilled.cost` — mirrors `CostReport::compute_cost`
    /// once every instance has been terminated or revoked.
    pub compute_cost: f64,
    /// Bids placed.
    pub bids: u64,
    /// Price spikes (spot price crossed a live bid).
    pub(crate) price_spikes: u64,
    /// Instances revoked by the provider.
    pub instances_revoked: u64,
    /// Instances terminated by the tenant.
    pub(crate) instances_terminated: u64,
    /// Replacement rounds run by the node manager.
    pub replacement_rounds: u64,

    // ── chaos: injected faults and recovery decisions ──────────────
    /// Faults injected by the chaos subsystem.
    pub(crate) faults_injected: u64,
    /// Torn checkpoint writes detected at restore time.
    pub(crate) corrupt_detected: u64,
    /// Restores abandoned in favour of lineage recomputation.
    pub(crate) restore_fallbacks: u64,
    /// Store-retry backoffs scheduled by the driver.
    pub(crate) backoffs_scheduled: u64,
    /// Flapping workers quarantined.
    pub(crate) workers_quarantined: u64,
    /// Portfolio weight decisions emitted by the mean-variance policy.
    pub(crate) portfolio_weights: u64,
    /// Cluster-MTTF re-fits under an age-dependent hazard model.
    pub(crate) hazard_refits: u64,

    // ── resumable runs ─────────────────────────────────────────────
    /// Runs suspended with a persisted manifest (`RunSuspended`).
    pub(crate) runs_suspended: u64,
    /// Runs resumed from a persisted manifest (`RunResumed`).
    pub(crate) runs_resumed: u64,
    /// Always 0: no event kind feeds it (the node manager has no
    /// circuit breakers). Kept because the benchmark reads it.
    pub breakers_opened: u64,
    /// Always 0: no event kind feeds it (the node manager has no
    /// on-demand backstop). Kept because the benchmark reads it.
    pub backstop_workers: u64,

    // ── backend lifecycle / serverless billing ─────────────────────
    /// The execution backend announced at launch (`BackendSelected`), if any.
    pub backend: Option<String>,
    /// Function slots / workers announced at launch.
    pub backend_workers: u64,
    /// Serverless invocations admitted (`InvocationStarted`).
    pub invocations: u64,
    /// Invocations whose container was cold (`cold_ms > 0`).
    pub cold_starts: u64,
    /// Σ `InvocationStarted.cold_ms` — total cold-start latency.
    pub(crate) cold_start_ms: u64,
    /// Invocations billed (`InvocationBilled`).
    pub invocations_billed: u64,
    /// Σ `InvocationBilled.cost` — mirrors the serverless
    /// `CostReport::compute_cost` exactly.
    pub invocation_cost: f64,
    /// Σ `InvocationBilled.gb_seconds`.
    pub invocation_gb_seconds: f64,
    /// Shuffle map blocks materialized through the external store.
    pub shuffles_externalized: u64,
    /// Σ `ShuffleExternalized.vbytes`.
    pub shuffle_external_vbytes: u64,

    // ── per-phase histograms ───────────────────────────────────────
    /// Action (job) latencies, virtual millis.
    pub(crate) action_latency: Histogram,
    /// Compute-task durations, virtual millis.
    pub(crate) task_millis: Histogram,
    /// Checkpoint wire sizes, bytes.
    pub(crate) ckpt_wire: Histogram,
    /// Restore durations, virtual millis.
    pub(crate) restore_millis: Histogram,
    /// Cold-start latencies, virtual millis (cold invocations only).
    pub(crate) cold_millis: Histogram,
    /// Per-invocation bills, micro-dollars.
    pub(crate) invocation_microdollars: Histogram,
}

impl MetricsAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds an iterator of events.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut agg = Self::new();
        for ev in events {
            agg.observe(ev);
        }
        agg
    }

    /// Folds one event into the totals.
    pub fn observe(&mut self, ev: &Event) {
        self.events += 1;
        if self.first_t.is_none() {
            self.first_t = Some(ev.t);
        }
        self.last_t = Some(ev.t);
        match &ev.kind {
            EventKind::ActionStarted { .. } => {}
            EventKind::ActionFinished { millis, .. } => {
                self.actions += 1;
                self.action_latency.record(*millis);
            }
            EventKind::WaveStarted { .. } => self.waves += 1,
            EventKind::TaskFinished { millis, .. } => {
                self.tasks_run += 1;
                self.compute_time_ms += millis;
                self.task_millis.record(*millis);
            }
            EventKind::CacheInsert { .. } => self.cache_inserts += 1,
            EventKind::CacheSpill { .. } => self.cache_spills += 1,
            EventKind::CacheEvict { .. } => self.cache_evicts += 1,
            EventKind::CheckpointScheduled { .. } => self.checkpoints_scheduled += 1,
            EventKind::CheckpointWritten {
                vbytes,
                wire_bytes,
                millis,
                ..
            } => {
                self.checkpoints_written += 1;
                self.checkpoint_bytes += vbytes;
                self.checkpoint_wire_bytes += wire_bytes;
                self.checkpoint_time_ms += millis;
                self.ckpt_wire.record(*wire_bytes);
            }
            EventKind::CheckpointGc { .. } => self.gc_rounds += 1,
            EventKind::Restored { millis, .. } => {
                self.restores += 1;
                self.restore_time_ms += millis;
                self.restore_millis.record(*millis);
            }
            EventKind::Recomputed { depth, millis, .. } => {
                self.recompute_time_ms += millis;
                self.max_recompute_depth = self.max_recompute_depth.max(*depth);
            }
            EventKind::TauAdapted { tau_ms, .. } => {
                self.tau_adaptations += 1;
                self.last_tau_ms = Some(*tau_ms);
            }
            EventKind::WorkerAdded { .. } => {}
            EventKind::RevocationWarning { .. } => self.warnings += 1,
            EventKind::WorkerRevoked { .. } => self.revocations += 1,
            EventKind::Stalled { millis } => self.stall_time_ms += millis,
            EventKind::BidPlaced { .. } => self.bids += 1,
            EventKind::PriceTick { .. } => {}
            EventKind::PriceSpike { .. } => self.price_spikes += 1,
            EventKind::InstanceRequested { .. } => {}
            EventKind::InstanceReady { .. } => {}
            EventKind::InstanceWarned { .. } => {}
            EventKind::InstanceRevoked { .. } => self.instances_revoked += 1,
            EventKind::InstanceTerminated { .. } => self.instances_terminated += 1,
            EventKind::InstanceBilled { cost, .. } => self.compute_cost += cost,
            EventKind::ReplacementRound { .. } => self.replacement_rounds += 1,
            EventKind::MttfUpdated { .. } => {}
            EventKind::MarketSelected { .. } => {}
            EventKind::FaultInjected { .. } => self.faults_injected += 1,
            EventKind::CheckpointCorruptDetected { .. } => self.corrupt_detected += 1,
            EventKind::RestoreFallback { .. } => self.restore_fallbacks += 1,
            EventKind::BackoffScheduled { .. } => self.backoffs_scheduled += 1,
            EventKind::WorkerQuarantined { .. } => self.workers_quarantined += 1,
            EventKind::PortfolioWeight { .. } => self.portfolio_weights += 1,
            EventKind::HazardRefit { .. } => self.hazard_refits += 1,
            EventKind::BackendSelected { backend, workers } => {
                self.backend = Some(backend.clone());
                self.backend_workers = *workers;
            }
            EventKind::InvocationStarted { cold_ms, .. } => {
                self.invocations += 1;
                if *cold_ms > 0 {
                    self.cold_starts += 1;
                    self.cold_start_ms += cold_ms;
                    self.cold_millis.record(*cold_ms);
                }
            }
            EventKind::InvocationBilled {
                gb_seconds, cost, ..
            } => {
                self.invocations_billed += 1;
                self.invocation_cost += cost;
                self.invocation_gb_seconds += gb_seconds;
                self.invocation_microdollars
                    .record((cost * 1e6).round().max(0.0) as u64);
            }
            EventKind::ShuffleExternalized { vbytes, .. } => {
                self.shuffles_externalized += 1;
                self.shuffle_external_vbytes += vbytes;
            }
            EventKind::RunSuspended { .. } => self.runs_suspended += 1,
            EventKind::RunResumed { .. } => self.runs_resumed += 1,
        }
    }

    /// Virtual span covered by the trace.
    pub(crate) fn span_ms(&self) -> u64 {
        match (self.first_t, self.last_t) {
            (Some(a), Some(b)) => (b - a).as_millis(),
            _ => 0,
        }
    }
}

fn row(f: &mut fmt::Formatter<'_>, label: &str, value: impl fmt::Display) -> fmt::Result {
    writeln!(f, "  {label:<28} {value}")
}

fn hist_row(f: &mut fmt::Formatter<'_>, label: &str, h: &Histogram, unit: &str) -> fmt::Result {
    if h.count() == 0 {
        return Ok(());
    }
    writeln!(
        f,
        "  {label:<28} n={} mean={:.1}{unit} p50≤{}{unit} p99≤{}{unit} max={}{unit}",
        h.count(),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
        h.max(),
    )
}

impl fmt::Display for MetricsAggregator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace summary ({} events, {:.1}s virtual)",
            self.events,
            self.span_ms() as f64 / 1000.0
        )?;
        writeln!(f, "engine:")?;
        row(f, "actions", self.actions)?;
        row(f, "waves", self.waves)?;
        row(f, "tasks run", self.tasks_run)?;
        row(
            f,
            "compute time",
            format!("{:.1}s", self.compute_time_ms as f64 / 1000.0),
        )?;
        row(
            f,
            "recompute time",
            format!("{:.1}s", self.recompute_time_ms as f64 / 1000.0),
        )?;
        row(
            f,
            "stall time",
            format!("{:.1}s", self.stall_time_ms as f64 / 1000.0),
        )?;
        row(
            f,
            "cache insert/spill/evict",
            format!(
                "{}/{}/{}",
                self.cache_inserts, self.cache_spills, self.cache_evicts
            ),
        )?;
        writeln!(f, "checkpointing:")?;
        row(f, "scheduled", self.checkpoints_scheduled)?;
        row(f, "written", self.checkpoints_written)?;
        row(
            f,
            "vbytes / wire bytes",
            format!("{} / {}", self.checkpoint_bytes, self.checkpoint_wire_bytes),
        )?;
        row(
            f,
            "checkpoint time",
            format!("{:.1}s", self.checkpoint_time_ms as f64 / 1000.0),
        )?;
        row(f, "restores", self.restores)?;
        row(f, "gc rounds", self.gc_rounds)?;
        row(f, "tau adaptations", self.tau_adaptations)?;
        if let Some(tau) = self.last_tau_ms {
            row(f, "last tau", format!("{:.1}s", tau as f64 / 1000.0))?;
        }
        row(f, "max recompute depth", self.max_recompute_depth)?;
        writeln!(f, "cluster / market:")?;
        row(f, "warnings", self.warnings)?;
        row(f, "revocations", self.revocations)?;
        row(f, "bids", self.bids)?;
        row(f, "price spikes", self.price_spikes)?;
        row(
            f,
            "instances revoked/terminated",
            format!("{}/{}", self.instances_revoked, self.instances_terminated),
        )?;
        row(f, "replacement rounds", self.replacement_rounds)?;
        row(f, "compute cost", format!("${:.4}", self.compute_cost))?;
        if let Some(backend) = &self.backend {
            row(
                f,
                "backend",
                format!("{backend} ({} workers)", self.backend_workers),
            )?;
        }
        if self.invocations > 0 || self.invocations_billed > 0 {
            writeln!(f, "serverless billing:")?;
            row(f, "invocations", self.invocations)?;
            row(
                f,
                "cold starts",
                format!(
                    "{} ({:.1}s latency total)",
                    self.cold_starts,
                    self.cold_start_ms as f64 / 1000.0
                ),
            )?;
            row(
                f,
                "GB-seconds",
                format!("{:.2}", self.invocation_gb_seconds),
            )?;
            row(
                f,
                "invocation cost",
                format!(
                    "${:.6} over {} bills",
                    self.invocation_cost, self.invocations_billed
                ),
            )?;
            row(
                f,
                "shuffle via store",
                format!(
                    "{} blocks / {} vbytes",
                    self.shuffles_externalized, self.shuffle_external_vbytes
                ),
            )?;
        }
        if self.faults_injected > 0 || self.corrupt_detected > 0 || self.workers_quarantined > 0 {
            writeln!(f, "chaos / recovery:")?;
            row(f, "faults injected", self.faults_injected)?;
            row(f, "corrupt detected", self.corrupt_detected)?;
            row(f, "restore fallbacks", self.restore_fallbacks)?;
            row(f, "backoffs scheduled", self.backoffs_scheduled)?;
            row(f, "workers quarantined", self.workers_quarantined)?;
        }
        if self.runs_resumed > 0 {
            writeln!(f, "degradation:")?;
            row(
                f,
                "suspends / resumes",
                format!("{}/{}", self.runs_suspended, self.runs_resumed),
            )?;
        }
        writeln!(f, "histograms:")?;
        hist_row(f, "action latency", &self.action_latency, "ms")?;
        hist_row(f, "task duration", &self.task_millis, "ms")?;
        hist_row(f, "ckpt wire size", &self.ckpt_wire, "B")?;
        hist_row(f, "restore time", &self.restore_millis, "ms")?;
        hist_row(f, "cold start", &self.cold_millis, "ms")?;
        hist_row(f, "invocation bill", &self.invocation_microdollars, "µ$")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64, kind: EventKind) -> Event {
        Event {
            t: SimTime::from_millis(ms),
            kind,
        }
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.mean(), 1110.0 / 7.0);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile(0.5) <= 8);
        assert!(h.quantile(1.0) >= 1000);
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn fold_reproduces_totals() {
        let events = vec![
            at(
                0,
                EventKind::ActionStarted {
                    name: "collect".into(),
                },
            ),
            at(10, EventKind::WaveStarted { tasks: 2 }),
            at(
                20,
                EventKind::TaskFinished {
                    kind: "shuffle".into(),
                    id: 0,
                    part: 0,
                    worker: 1,
                    millis: 500,
                },
            ),
            at(
                25,
                EventKind::TaskFinished {
                    kind: "output".into(),
                    id: 1,
                    part: 0,
                    worker: 2,
                    millis: 300,
                },
            ),
            at(
                30,
                EventKind::Recomputed {
                    block: "rdd(1:0)".into(),
                    depth: 2,
                    millis: 40,
                },
            ),
            at(
                35,
                EventKind::CheckpointWritten {
                    block: "rdd(1:0)".into(),
                    vbytes: 100,
                    wire_bytes: 111,
                    millis: 9,
                },
            ),
            at(
                40,
                EventKind::Restored {
                    block: "rdd(1:0)".into(),
                    millis: 4,
                },
            ),
            at(45, EventKind::Stalled { millis: 1000 }),
            at(50, EventKind::RevocationWarning { ext: 7 }),
            at(55, EventKind::WorkerRevoked { ext: 7 }),
            at(
                60,
                EventKind::ActionFinished {
                    name: "collect".into(),
                    millis: 60,
                },
            ),
            at(
                70,
                EventKind::InstanceBilled {
                    instance: 1,
                    cost: 0.25,
                },
            ),
            at(
                70,
                EventKind::InstanceBilled {
                    instance: 2,
                    cost: 0.50,
                },
            ),
        ];
        let agg = MetricsAggregator::from_events(&events);
        assert_eq!(agg.events, events.len() as u64);
        assert_eq!(agg.tasks_run, 2);
        assert_eq!(agg.compute_time_ms, 800);
        assert_eq!(agg.recompute_time_ms, 40);
        assert_eq!(agg.checkpoints_written, 1);
        assert_eq!(agg.checkpoint_bytes, 100);
        assert_eq!(agg.checkpoint_wire_bytes, 111);
        assert_eq!(agg.checkpoint_time_ms, 9);
        assert_eq!(agg.restores, 1);
        assert_eq!(agg.restore_time_ms, 4);
        assert_eq!(agg.stall_time_ms, 1000);
        assert_eq!(agg.warnings, 1);
        assert_eq!(agg.revocations, 1);
        assert_eq!(agg.actions, 1);
        assert_eq!(agg.max_recompute_depth, 2);
        assert!((agg.compute_cost - 0.75).abs() < 1e-12);
        assert_eq!(agg.span_ms(), 70);
        let text = agg.to_string();
        assert!(text.contains("tasks run"));
        assert!(text.contains("compute cost"));
    }

    #[test]
    fn fold_reproduces_degradation_counters() {
        let events = vec![
            at(
                20,
                EventKind::RunSuspended {
                    manifest: "m".into(),
                    frontier: 3,
                },
            ),
            at(
                30,
                EventKind::RunResumed {
                    manifest: "m".into(),
                    frontier: 3,
                },
            ),
        ];
        let agg = MetricsAggregator::from_events(&events);
        assert_eq!(agg.runs_suspended, 1);
        assert_eq!(agg.runs_resumed, 1);
        let text = agg.to_string();
        assert!(text.contains("degradation:"));
        assert!(text.contains("suspends / resumes"));
    }

    #[test]
    fn fold_reproduces_serverless_billing() {
        let events = vec![
            at(
                0,
                EventKind::BackendSelected {
                    backend: "serverless".into(),
                    workers: 4,
                },
            ),
            at(
                5,
                EventKind::InvocationStarted {
                    invocation: 1,
                    worker: 1,
                    cold_ms: 400,
                },
            ),
            at(
                6,
                EventKind::InvocationStarted {
                    invocation: 2,
                    worker: 2,
                    cold_ms: 0,
                },
            ),
            at(
                8,
                EventKind::ShuffleExternalized {
                    shuffle: 0,
                    map_part: 3,
                    vbytes: 1024,
                },
            ),
            at(
                10,
                EventKind::InvocationBilled {
                    invocation: 1,
                    gb_seconds: 2.0,
                    cost: 0.25,
                },
            ),
            at(
                12,
                EventKind::InvocationBilled {
                    invocation: 2,
                    gb_seconds: 1.0,
                    cost: 0.50,
                },
            ),
        ];
        let agg = MetricsAggregator::from_events(&events);
        assert_eq!(agg.backend.as_deref(), Some("serverless"));
        assert_eq!(agg.backend_workers, 4);
        assert_eq!(agg.invocations, 2);
        assert_eq!(agg.cold_starts, 1);
        assert_eq!(agg.cold_start_ms, 400);
        assert_eq!(agg.invocations_billed, 2);
        assert!((agg.invocation_cost - 0.75).abs() < 1e-12);
        assert!((agg.invocation_gb_seconds - 3.0).abs() < 1e-12);
        assert_eq!(agg.shuffles_externalized, 1);
        assert_eq!(agg.shuffle_external_vbytes, 1024);
        let text = agg.to_string();
        assert!(text.contains("serverless billing"));
        assert!(text.contains("invocation cost"));
        assert!(text.contains("cold starts"));
    }
}
