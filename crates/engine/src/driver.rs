//! The driver: stage planning, virtual-time task execution, failure
//! handling, and checkpoint orchestration.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use flint_simtime::{Clock, SimDuration, SimTime};
use flint_store::StorageConfig;
use flint_trace::{EventKind, TraceHandle};

use crate::backend::{Backend, ShuffleTransport, TransientVmBackend};
use crate::block::{BlockData, BlockKey, InsertOutcome, Records};
use crate::checkpoint::{CheckpointStore, ReadFault, WriteFault};
use crate::cluster::{Cluster, WorkerId, WorkerSpec};
use crate::column::{ColumnCounters, ColumnStats};
use crate::context::EngineContext;
use crate::cost::CostModel;
use crate::error::{EngineError, Result};
use crate::executor::{self, CacheEffect, TaskOutput, WaveCtx};
use crate::hooks::{CheckpointDirective, CheckpointHooks, LineageView, NoCheckpoint};
use crate::injector::{FailureInjector, NoFailures, WorkerEvent};
use crate::manifest::RunManifest;
use crate::plan::{self, PlanStats, Planner};
use crate::rdd::{RddId, RddRef};
use crate::shuffle::{RangePartitioner, ShuffleId};
use crate::stats::{ActionRecord, RunStats};
use crate::value::Value;

/// Cap on scheduler loop iterations per action, idle wait or checkpoint
/// drain, guarding against revocation livelock (MTTF far below task
/// granularity).
const MAX_ITERATIONS: u64 = 5_000_000;

/// Gather passes per action: the first, plus up to two job re-runs when
/// a result block vanished between job completion and gather (a
/// same-instant revocation). A failed last pass returns
/// [`EngineError::RetryBudgetExhausted`].
const GATHER_PASSES: u64 = 3;

/// Revocations of one external id within [`FLAP_WINDOW`] that mark it as
/// flapping and quarantine it: its further joins are ignored.
const FLAP_THRESHOLD: usize = 3;

/// Sliding window over which repeated revocations of one external id
/// count as flapping.
const FLAP_WINDOW: SimDuration = SimDuration::from_secs(600);

/// Fixed per-task overhead (scheduling, deserialization).
const TASK_OVERHEAD: SimDuration = SimDuration::from_millis(80);

/// First store-retry backoff; each further attempt doubles it.
const BACKOFF_BASE: SimDuration = SimDuration::from_secs(1);
/// Ceiling on the store-retry backoff.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(60);

/// A retry policy: an attempt budget plus capped exponential backoff in
/// virtual time.
///
/// It shapes the driver's store-outage wait
/// ([`DriverConfig::store_retry`]). `delay(attempt)` doubles from
/// `BACKOFF_BASE` (1 s) per attempt and saturates at `BACKOFF_CAP` (60 s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts allowed before the loop gives up with a typed error.
    pub budget: u64,
}

impl RetryPolicy {
    /// `true` once `attempt` retries have been spent.
    pub(crate) fn exhausted(&self, attempt: u64) -> bool {
        attempt >= self.budget
    }

    /// The wait before retry number `attempt` (0-based): capped
    /// exponential doubling.
    pub(crate) fn delay(&self, attempt: u64) -> SimDuration {
        let base = BACKOFF_BASE.as_millis();
        SimDuration::from_millis(
            base.saturating_mul(1u64 << attempt.min(32))
                .min(BACKOFF_CAP.as_millis()),
        )
    }
}

/// Tuning knobs for a [`Driver`].
///
/// Start from [`DriverConfig::default`] or [`DriverConfig::builder`];
/// fields without a builder setter are set directly.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// The virtual-time cost model.
    pub cost: CostModel,
    /// The durable-storage bandwidth model.
    pub storage: StorageConfig,
    /// Host threads used to materialize each scheduling wave's tasks in
    /// parallel (real wall-clock parallelism; virtual time is
    /// unaffected). Results are committed in fixed task-key order on the
    /// driver thread, so any value — including 1 — produces bit-identical
    /// results, statistics, and virtual-time trajectories. See the
    /// `executor` module docs for the compute/commit split.
    pub host_threads: usize,
    /// Retry policy for transient checkpoint-store outages: how many
    /// capped-exponential backoff waits a restore spends before failing
    /// the action with [`EngineError::StoreUnavailable`].
    pub store_retry: RetryPolicy,
    /// Enables the columnar batch execution path: partitions of
    /// batch-capable ops (built through the `*_kernel` context
    /// constructors) are stored as typed column vectors and run through
    /// vectorized kernels; everything else stays on the per-record
    /// path. Either setting produces bit-identical results, virtual
    /// sizes, and traces — only host wall-clock changes. On by default.
    pub columnar: bool,
    /// When set, the driver suspends the run at the first wave-commit
    /// boundary where the committed-wave counter reaches this value: a
    /// [`RunManifest`] is persisted through the durable store and the
    /// in-flight action returns [`EngineError::Suspended`]. `None` (the
    /// default) never suspends and leaves every trace byte-identical.
    /// This is the deterministic stand-in for a driver crash — chaos
    /// campaigns wire [`crate::ChaosSchedule::driver_crash_wave`] here.
    pub suspend_after_waves: Option<u64>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            cost: CostModel::default(),
            storage: StorageConfig::default(),
            host_threads: 1,
            store_retry: RetryPolicy { budget: 6 },
            columnar: true,
            suspend_after_waves: None,
        }
    }
}

impl DriverConfig {
    /// Starts a builder preloaded with the defaults (the §5.5 cost model,
    /// default EBS bandwidth, one host thread).
    pub fn builder() -> DriverConfigBuilder {
        DriverConfigBuilder::default()
    }

    /// FNV-1a fingerprint of the determinism-relevant configuration.
    ///
    /// Covers every knob that shapes results, virtual time, or the
    /// trace; deliberately excludes `host_threads` and `columnar`
    /// (proven bit-identical by the determinism suite) and
    /// `suspend_after_waves` (which necessarily differs between a
    /// crashing run and its resume replay). [`Driver::resume`] rejects
    /// a manifest whose fingerprint does not match.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |s: &str| {
            for b in s.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&format!(
            "{:?}|{:?}|{:?}",
            self.cost, self.storage, self.store_retry
        ));
        h
    }
}

/// Fluent builder for [`DriverConfig`];
/// `DriverConfig::builder().build()` equals `DriverConfig::default()`.
///
/// # Examples
///
/// ```
/// use flint_engine::DriverConfig;
///
/// let cfg = DriverConfig::builder()
///     .host_threads(8)
///     .size_scale(5e5)
///     .build();
/// assert_eq!(cfg.host_threads, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DriverConfigBuilder {
    cfg: DriverConfig,
}

impl DriverConfigBuilder {
    /// The durable-storage bandwidth model.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.cfg.storage = storage;
        self
    }

    /// Host threads used to materialize each wave in parallel. Any value
    /// produces bit-identical results; see [`DriverConfig::host_threads`].
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.cfg.host_threads = threads;
        self
    }

    /// Convenience: sets the cost model's virtual-size multiplier
    /// (`cost.size_scale`), the usual knob for simulating paper-scale
    /// datasets from small in-memory collections.
    pub fn size_scale(mut self, scale: f64) -> Self {
        self.cfg.cost.size_scale = scale;
        self
    }

    /// Enables or disables the columnar batch path (on by default);
    /// results are bit-identical either way, see
    /// [`DriverConfig::columnar`].
    pub fn columnar(mut self, on: bool) -> Self {
        self.cfg.columnar = on;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> DriverConfig {
        self.cfg
    }
}

/// A schedulable unit of work.
///
/// The derived `Ord` defines the commit order within a wave: outputs are
/// admitted in ascending `TaskKey` order regardless of which host thread
/// computed them first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum TaskKey {
    /// Produce the shuffle map output block for `(shuffle, map_part)`.
    ShuffleMap { shuffle: ShuffleId, map_part: u32 },
    /// Materialize and cache partition `part` of the job target.
    Output { rdd: RddId, part: u32 },
    /// Durably write a checkpoint.
    Ckpt(CkptJob),
}

/// A pending checkpoint write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum CkptJob {
    /// Checkpoint `(rdd, part)`.
    RddPart(RddId, u32),
    /// Checkpoint a shuffle map output (systems-level baseline).
    Shuffle(ShuffleId, u32),
}

#[derive(Debug, Clone)]
struct Running {
    key: TaskKey,
    worker: WorkerId,
    finish: SimTime,
    data: BlockData,
    vbytes: u64,
    /// Byte-exact serialized size (checkpoint writes only, else 0).
    wire: u64,
    duration: SimDuration,
    touched: Vec<(RddId, u32, u64)>,
    seq: u64,
    /// Backend invocation id assigned at admission (0 = the backend
    /// registered no invocation for this task).
    invocation: u64,
}

/// Internal materialization failure: a required shuffle input vanished
/// between planning and execution (cannot normally happen; handled by
/// replanning).
#[derive(Debug)]
pub(crate) struct MissingShuffle;

/// The execution engine: owns the lineage context, the simulated cluster,
/// the checkpoint store, and the virtual clock.
///
/// See the [crate-level documentation](crate) for the execution model.
pub struct Driver {
    ctx: EngineContext,
    cluster: Cluster,
    ckpt: CheckpointStore,
    planner: Planner,
    column: ColumnCounters,
    backend: Box<dyn Backend>,
    hooks: Box<dyn CheckpointHooks>,
    injector: Box<dyn FailureInjector>,
    clock: Clock,
    stats: RunStats,
    trace: TraceHandle,
    config: DriverConfig,
    range_cache: BTreeMap<ShuffleId, RangePartitioner>,
    computed_once: HashSet<(RddId, u32)>,
    fired_materialized: HashSet<RddId>,
    marked_ckpt: HashSet<RddId>,
    ckpt_queue: VecDeque<CkptJob>,
    ckpt_queued: BTreeSet<CkptJob>,
    running: Vec<Running>,
    in_flight: BTreeSet<TaskKey>,
    last_pumped: SimTime,
    next_local_ext: u64,
    task_seq: u64,
    /// Blocks whose corrupt/unavailable checkpoint the driver has
    /// already paired with a `RestoreFallback` event (dedup across
    /// planning iterations).
    corrupt_reported: HashSet<BlockKey>,
    /// Recent revocation instants per external id (flap detection).
    remove_times: HashMap<u64, VecDeque<SimTime>>,
    /// External ids quarantined for flapping: their joins are ignored.
    quarantined: HashSet<u64>,
    /// Committed-wave frontier: `advance_and_commit` calls that landed
    /// at least one task. Deterministic across `host_threads`, so it is
    /// the resume-manifest's notion of progress.
    waves_committed: u64,
    /// Session tag naming this run's manifest key in the durable store.
    session: String,
    /// A suspension is armed and fires at the next loop boundary.
    pending_suspend: bool,
    /// Manifest a resume replay must cross and verify against.
    resume_check: Option<RunManifest>,
    /// A resume replay diverged from its manifest; surfaced as a typed
    /// error at the next loop boundary.
    resume_failed: Option<EngineError>,
}

impl Driver {
    /// Creates a driver with explicit policy hooks and failure injector.
    pub fn new(
        config: DriverConfig,
        hooks: Box<dyn CheckpointHooks>,
        injector: Box<dyn FailureInjector>,
    ) -> Self {
        let storage = config.storage;
        Driver {
            ctx: EngineContext::new(),
            cluster: Cluster::new(),
            ckpt: CheckpointStore::new(storage),
            planner: Planner::default(),
            column: ColumnCounters::default(),
            backend: Box::new(TransientVmBackend),
            hooks,
            injector,
            clock: Clock::new(),
            stats: RunStats::default(),
            trace: TraceHandle::disabled(),
            config,
            range_cache: BTreeMap::new(),
            computed_once: HashSet::new(),
            fired_materialized: HashSet::new(),
            marked_ckpt: HashSet::new(),
            ckpt_queue: VecDeque::new(),
            ckpt_queued: BTreeSet::new(),
            running: Vec::new(),
            in_flight: BTreeSet::new(),
            last_pumped: SimTime::ZERO,
            next_local_ext: 1 << 40,
            task_seq: 0,
            corrupt_reported: HashSet::new(),
            remove_times: HashMap::new(),
            quarantined: HashSet::new(),
            waves_committed: 0,
            session: "run".to_string(),
            pending_suspend: false,
            resume_check: None,
            resume_failed: None,
        }
    }

    /// Creates a driver with `n` healthy local workers, no checkpointing
    /// policy, and no failures — a correctness sandbox. Wave execution
    /// uses all available host cores (results are identical to
    /// `host_threads = 1` by construction).
    pub fn local(n: u32) -> Self {
        let mut d = Driver::new(
            DriverConfig {
                host_threads: std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
                ..DriverConfig::default()
            },
            Box::new(NoCheckpoint),
            Box::new(NoFailures),
        );
        for _ in 0..n.max(1) {
            d.add_worker(WorkerSpec::r3_large());
        }
        d
    }

    /// Adds a worker immediately (outside the failure injector).
    pub fn add_worker(&mut self, spec: WorkerSpec) -> WorkerId {
        let ext = self.next_local_ext;
        self.next_local_ext += 1;
        self.cluster.add_worker(ext, spec, self.clock.now())
    }

    /// Adds a worker with a caller-chosen external id, so scripted
    /// injectors can later target it with `WorkerEvent::Remove`.
    pub fn add_worker_with_ext(&mut self, ext_id: u64, spec: WorkerSpec) -> WorkerId {
        self.cluster.add_worker(ext_id, spec, self.clock.now())
    }

    /// Returns the RDD construction context.
    pub fn ctx(&mut self) -> &mut EngineContext {
        &mut self.ctx
    }

    /// Returns the lineage graph.
    pub fn lineage(&self) -> &crate::Lineage {
        self.ctx.lineage()
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Jumps the virtual clock forward to `t` without simulating the gap
    /// (used to start a session mid-trace so backward-looking market
    /// statistics have history). Injector events in the skipped span are
    /// delivered on the next pump.
    pub fn warp_to(&mut self, t: SimTime) {
        self.clock.advance_to(t);
    }

    /// Returns accumulated execution statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Resets execution statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// Work counters of the readiness planner: how much the host did to
    /// decide what to run. Not part of [`RunStats`] or the event stream.
    pub fn plan_stats(&self) -> PlanStats {
        self.planner.stats()
    }

    /// Work counters of the columnar path: which arm kernel-declared ops
    /// took and how many records changed form. Not part of [`RunStats`]
    /// or the event stream; all zero on a `columnar = false` driver.
    pub fn column_stats(&self) -> ColumnStats {
        self.column.snapshot()
    }

    /// The committed-wave frontier so far: scheduler advances that
    /// landed at least one task commit. Deterministic across
    /// `host_threads`, so it is the [`RunManifest`] notion of progress.
    pub fn waves_committed(&self) -> u64 {
        self.waves_committed
    }

    /// Arms a resume replay against `manifest`.
    ///
    /// The engine is deterministic, so crash recovery is re-launching
    /// the identical session and replaying it; the manifest is the
    /// verification artifact. Call on a freshly built driver (same
    /// config, workload, and injector as the crashed run) before
    /// re-running the actions: when the replay's committed-wave frontier
    /// crosses `manifest.frontier`, the driver checks virtual time and
    /// stats against the manifest and emits `RunResumed` — a mismatch
    /// surfaces as [`EngineError::ResumeDiverged`] instead of silently
    /// continuing a divergent run. Rejects a manifest whose config
    /// fingerprint does not match this driver's.
    pub fn resume(&mut self, manifest: &RunManifest) -> Result<()> {
        let fp = self.config.fingerprint();
        if manifest.config_fp != fp {
            return Err(EngineError::ResumeDiverged {
                field: "config_fp",
                expected: manifest.config_fp,
                actual: fp,
            });
        }
        self.session.clone_from(&manifest.session);
        if manifest.frontier == 0 {
            // Crashed before any wave committed: nothing to verify.
            let key = manifest.store_key();
            let now = self.clock.now();
            self.trace.emit_with(now, || EventKind::RunResumed {
                manifest: key.clone(),
                frontier: 0,
            });
            return Ok(());
        }
        self.resume_check = Some(manifest.clone());
        Ok(())
    }

    /// Snapshots the run state: what a suspension persists, and what a
    /// resume replay is checked against at its frontier.
    fn build_manifest(&self) -> RunManifest {
        let mut blocks: Vec<String> = self
            .ckpt
            .store()
            .keys_with_prefix("")
            .into_iter()
            .map(str::to_string)
            .collect();
        blocks.retain(|k| !k.starts_with("manifest/"));
        RunManifest {
            version: 1,
            session: self.session.clone(),
            config_fp: self.config.fingerprint(),
            frontier: self.waves_committed,
            now_ms: self.clock.now().as_millis(),
            tasks_run: self.stats.tasks_run,
            revocations: self.stats.revocations,
            checkpoints_written: self.stats.checkpoints_written,
            blocks,
        }
    }

    /// Persists the run manifest and returns the typed suspension
    /// error the in-flight action propagates.
    fn suspend_now(&mut self) -> EngineError {
        let now = self.clock.now();
        let m = self.build_manifest();
        let key = m.store_key();
        let frontier = m.frontier;
        self.ckpt.put_manifest(&key, &m.encode(), now);
        self.trace.emit_with(now, || EventKind::RunSuspended {
            manifest: key.clone(),
            frontier,
        });
        EngineError::Suspended {
            manifest: key,
            frontier,
        }
    }

    /// Typed interruption pending at a scheduler loop boundary: an
    /// armed suspension or a failed resume verification. `None` on the
    /// hot path when neither feature is in use.
    fn take_interrupt(&mut self) -> Option<EngineError> {
        if let Some(e) = self.resume_failed.take() {
            return Some(e);
        }
        if self.pending_suspend {
            self.pending_suspend = false;
            return Some(self.suspend_now());
        }
        None
    }

    /// Verifies a resume replay the moment its frontier reaches the
    /// manifest's: virtual time and stats must match exactly, or the
    /// replay is flagged divergent.
    fn check_resume_frontier(&mut self) {
        let due = self
            .resume_check
            .as_ref()
            .is_some_and(|m| self.waves_committed >= m.frontier);
        if !due {
            return;
        }
        let m = self.resume_check.take().expect("checked above");
        if let Some((field, expected, actual)) = m.diverges_from(&self.build_manifest()) {
            self.resume_failed = Some(EngineError::ResumeDiverged {
                field,
                expected,
                actual,
            });
            return;
        }
        let now = self.clock.now();
        let key = m.store_key();
        let frontier = m.frontier;
        self.trace.emit_with(now, || EventKind::RunResumed {
            manifest: key.clone(),
            frontier,
        });
    }

    /// Returns the cluster view.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Returns the checkpoint store.
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.ckpt
    }

    /// Returns the checkpoint store mutably (cost accounting).
    pub fn checkpoints_mut(&mut self) -> &mut CheckpointStore {
        &mut self.ckpt
    }

    /// Returns the cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.config.cost
    }

    /// Replaces the cost model (calibration).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.config.cost = cost;
    }

    /// Number of queued (not yet written) checkpoint partitions.
    fn pending_checkpoints(&self) -> usize {
        self.ckpt_queue.len()
            + self
                .running
                .iter()
                .filter(|r| matches!(r.key, TaskKey::Ckpt(_)))
                .count()
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// Materializes `r` and returns all its elements in partition order.
    pub fn collect(&mut self, r: RddRef) -> Result<Vec<Value>> {
        let parts = self.run_action(r.id, "collect")?;
        let total = parts.iter().map(Records::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in &parts {
            out.extend_from_slice(&p.rows(&self.column));
        }
        Ok(out)
    }

    /// Materializes `r` and returns its element count (read off the
    /// gathered blocks; nothing is decoded).
    pub fn count(&mut self, r: RddRef) -> Result<u64> {
        let parts = self.run_action(r.id, "count")?;
        Ok(parts.iter().map(|p| p.len() as u64).sum())
    }

    /// Materializes `r` and folds its elements with `f`.
    ///
    /// Returns [`EngineError::EmptyDataset`] if `r` is empty.
    pub fn reduce(&mut self, r: RddRef, f: impl Fn(&Value, &Value) -> Value) -> Result<Value> {
        let parts = self.run_action(r.id, "reduce")?;
        let mut acc: Option<Value> = None;
        for p in &parts {
            for v in p.rows(&self.column).iter() {
                acc = Some(match acc {
                    None => v.clone(),
                    Some(a) => f(&a, v),
                });
            }
        }
        acc.ok_or(EngineError::EmptyDataset)
    }

    /// Materializes `r` and returns up to `n` elements in partition order.
    pub fn take(&mut self, r: RddRef, n: usize) -> Result<Vec<Value>> {
        let parts = self.run_action(r.id, "take")?;
        let mut out = Vec::with_capacity(n);
        for p in &parts {
            for v in p.rows(&self.column).iter() {
                if out.len() >= n {
                    return Ok(out);
                }
                out.push(v.clone());
            }
        }
        Ok(out)
    }

    /// Materializes `r` and returns its first element, if any.
    pub fn first(&mut self, r: RddRef) -> Result<Option<Value>> {
        Ok(self.take(r, 1)?.into_iter().next())
    }

    /// Materializes `r` and returns the `n` smallest elements (by total
    /// order), like Spark's `takeOrdered`.
    pub fn take_ordered(&mut self, r: RddRef, n: usize) -> Result<Vec<Value>> {
        let mut all = self.collect(r)?;
        all.sort();
        all.truncate(n);
        Ok(all)
    }

    /// Materializes a pair RDD and counts elements per key.
    pub fn count_by_key(&mut self, r: RddRef) -> Result<std::collections::BTreeMap<Value, u64>> {
        let parts = self.run_action(r.id, "count_by_key")?;
        let mut counts = std::collections::BTreeMap::new();
        for p in &parts {
            for v in p.rows(&self.column).iter() {
                let key = v.key().cloned().unwrap_or(Value::Null);
                *counts.entry(key).or_insert(0u64) += 1;
            }
        }
        Ok(counts)
    }

    /// Explicitly checkpoints `r` (like Spark's `rdd.checkpoint()` +
    /// materialization): runs a job to materialize it, then enqueues
    /// durable writes and drains them.
    pub fn checkpoint_now(&mut self, r: RddRef) -> Result<()> {
        self.run_action(r.id, "checkpoint")?;
        self.apply_directives(vec![CheckpointDirective::Checkpoint(r.id)]);
        self.drain_checkpoints()?;
        Ok(())
    }

    /// Advances virtual time to `t`, draining checkpoint writes and
    /// processing failure events while "idle" (an interactive session
    /// between queries).
    pub fn idle_until(&mut self, t: SimTime) -> Result<()> {
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(EngineError::JobBudgetExhausted {
                    phase: "idle",
                    iterations,
                });
            }
            if let Some(e) = self.take_interrupt() {
                return Err(e);
            }
            self.poll_hooks();
            self.assign_checkpoint_jobs();
            let now = self.clock.now();
            if now >= t && self.running.is_empty() {
                return Ok(());
            }
            let t_task = self.running.iter().map(|r| r.finish).min();
            let t_inj = self.injector.next_event_after(now);
            let mut next = t;
            if let Some(tt) = t_task {
                next = next.min(tt);
            }
            if let Some(ti) = t_inj {
                next = next.min(ti);
            }
            if next <= now {
                // Running tasks that finish exactly now, or we are done.
                if t_task.map(|tt| tt <= now).unwrap_or(false) {
                    self.advance_and_commit(now);
                    continue;
                }
                if now >= t {
                    // Only tasks beyond `t` remain: let them finish.
                    if let Some(tt) = t_task {
                        self.advance_and_commit(tt);
                        continue;
                    }
                    return Ok(());
                }
                self.clock
                    .advance_to(t.min(next.max(now + SimDuration::from_millis(1))));
                self.pump_injector();
                continue;
            }
            self.advance_and_commit(next);
        }
    }

    // ------------------------------------------------------------------
    // The scheduler loop
    // ------------------------------------------------------------------

    /// Runs a job materializing every partition of `target`, then gathers
    /// the partitions to the driver, each in the form it was held.
    /// Records an [`ActionRecord`].
    fn run_action(&mut self, target: RddId, label: &str) -> Result<Vec<Records>> {
        if !self.ctx.lineage().contains(target) {
            return Err(EngineError::UnknownRdd(target));
        }
        let started = self.clock.now();
        let name = format!("{label}(rdd-{})", target.0);
        self.trace
            .emit_with(started, || EventKind::ActionStarted { name: name.clone() });
        self.pump_injector();
        self.run_job(target)?;
        let parts = self.gather(target)?;
        let finished = self.clock.now();
        self.trace
            .emit_with(finished, || EventKind::ActionFinished {
                name: name.clone(),
                millis: (finished - started).as_millis(),
            });
        self.stats.actions.push(ActionRecord {
            name,
            started,
            finished,
        });
        Ok(parts)
    }

    fn run_job(&mut self, target: RddId) -> Result<()> {
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(EngineError::RetryBudgetExhausted { rdd: target });
            }
            if let Some(e) = self.take_interrupt() {
                return Err(e);
            }

            self.poll_hooks();

            let (ready, done) = self.planner.plan(
                self.ctx.lineage(),
                &mut self.cluster,
                &mut self.ckpt,
                self.clock.now(),
                target,
            );
            if done {
                return Ok(());
            }
            self.report_unreadable_shuffles(&ready);

            // Materialize every ready task in parallel against the
            // wave-start snapshot, then admit the results sequentially in
            // fixed task-key order (the planner yields sorted keys), so
            // scheduling and accounting are bit-identical for any
            // `host_threads` setting. Checkpoint writes follow.
            let pending: Vec<TaskKey> = ready
                .into_iter()
                .filter(|k| !self.in_flight.contains(k))
                .collect();
            let mut assigned_any = false;
            if !pending.is_empty() && self.cluster.alive_count() > 0 {
                self.trace
                    .emit_with(self.clock.now(), || EventKind::WaveStarted {
                        tasks: pending.len() as u64,
                    });
                let outputs = self.compute_wave(&pending);
                for (key, out) in pending.into_iter().zip(outputs) {
                    if let Some(out) = out {
                        assigned_any |= self.admit(key, out);
                    }
                }
            }
            self.assign_checkpoint_jobs();

            let now = self.clock.now();
            let t_task = self.running.iter().map(|r| r.finish).min();
            let t_inj = self.injector.next_event_after(now);

            match (t_task, t_inj) {
                (None, None) => {
                    if !assigned_any {
                        return Err(EngineError::NoWorkers);
                    }
                }
                (None, Some(ti)) => self.stall_until(ti),
                (Some(tt), Some(ti)) if ti < tt => {
                    self.clock.advance_to(ti);
                    self.pump_injector();
                }
                (Some(tt), _) => {
                    self.advance_and_commit(tt);
                }
            }
        }
    }

    /// Waits for the injector's next event at `ti` with nothing running:
    /// the gap is stall time.
    fn stall_until(&mut self, ti: SimTime) {
        let now = self.clock.now();
        self.stats.stall_time += ti - now;
        self.trace.emit_with(now, || EventKind::Stalled {
            millis: (ti - now).as_millis(),
        });
        self.clock.advance_to(ti);
        self.pump_injector();
    }

    /// Advances the clock to `t`, processing injector events at or before
    /// `t` first (ties: revocations beat completions), then committing
    /// every running task that finishes by `t` on a still-alive worker.
    fn advance_and_commit(&mut self, t: SimTime) {
        self.clock.advance_to(t);
        self.pump_injector();
        // Partition in place: unfinished tasks keep their admission order
        // at the front; the finished tail is re-sorted into commit order.
        let mut kept = 0;
        for i in 0..self.running.len() {
            if self.running[i].finish > t {
                self.running.swap(kept, i);
                kept += 1;
            }
        }
        let mut finished = self.running.split_off(kept);
        finished.sort_by_key(|r| (r.finish, r.seq));
        let committed_any = !finished.is_empty();
        for r in finished {
            self.in_flight.remove(&r.key);
            self.commit_task(r);
        }
        if committed_any {
            self.waves_committed += 1;
            if self.config.suspend_after_waves == Some(self.waves_committed) {
                self.pending_suspend = true;
            }
            self.check_resume_frontier();
        }
    }

    /// Delivers all failure-injector events up to the current instant,
    /// interleaving any planted-fault notes (chaos campaigns) into the
    /// trace by time so the stream stays chronologically ordered.
    fn pump_injector(&mut self) {
        let now = self.clock.now();
        if now < self.last_pumped {
            return;
        }
        let from = self.last_pumped;
        let events = self.injector.events(from, now);
        let notes = self.injector.fault_notes(from, now);
        self.last_pumped = now;
        let mut notes = notes.into_iter().peekable();
        for (t, ev) in events {
            while notes.peek().map(|(nt, _, _)| *nt <= t).unwrap_or(false) {
                let (nt, kind, target) = notes.next().expect("peeked");
                self.trace.emit_with(nt, || EventKind::FaultInjected {
                    kind: kind.clone(),
                    target: target.clone(),
                });
            }
            match ev {
                WorkerEvent::Add { ext_id, spec } => {
                    if self.quarantined.contains(&ext_id) {
                        // A flapping instance rejoining: refuse it so
                        // its next revocation cannot strand tasks again.
                        continue;
                    }
                    self.cluster.add_worker(ext_id, spec, t);
                    self.trace
                        .emit_with(t, || EventKind::WorkerAdded { ext: ext_id });
                }
                WorkerEvent::Warn { ext_id } => {
                    self.stats.warnings += 1;
                    self.trace
                        .emit_with(t, || EventKind::RevocationWarning { ext: ext_id });
                    self.hooks.on_warning(ext_id, t);
                }
                WorkerEvent::Remove { ext_id } => {
                    if let Some(wid) = self.cluster.remove_by_ext(ext_id) {
                        self.stats.revocations += 1;
                        self.trace
                            .emit_with(t, || EventKind::WorkerRevoked { ext: ext_id });
                        self.hooks.on_revocation(ext_id, t);
                        self.invalidate_worker(wid);
                        self.note_remove(ext_id, t);
                    }
                }
            }
        }
        for (nt, kind, target) in notes {
            self.trace.emit_with(nt, || EventKind::FaultInjected {
                kind: kind.clone(),
                target: target.clone(),
            });
        }
    }

    /// Flap detection: a worker revoked [`FLAP_THRESHOLD`] times within
    /// [`FLAP_WINDOW`] is quarantined — its future joins are ignored, so
    /// replacement capacity comes from stable instances instead.
    fn note_remove(&mut self, ext_id: u64, t: SimTime) {
        if self.quarantined.contains(&ext_id) {
            return;
        }
        let times = self.remove_times.entry(ext_id).or_default();
        times.push_back(t);
        while times.front().map(|&f| f + FLAP_WINDOW < t).unwrap_or(false) {
            times.pop_front();
        }
        if times.len() >= FLAP_THRESHOLD {
            let removes = times.len() as u64;
            self.quarantined.insert(ext_id);
            self.remove_times.remove(&ext_id);
            self.trace.emit_with(t, || EventKind::WorkerQuarantined {
                ext: ext_id,
                removes,
            });
        }
    }

    /// Discards in-flight tasks on a dead worker; checkpoint jobs are
    /// requeued, compute tasks are replanned naturally.
    fn invalidate_worker(&mut self, wid: WorkerId) {
        let (lost, kept): (Vec<Running>, Vec<Running>) = std::mem::take(&mut self.running)
            .into_iter()
            .partition(|r| r.worker == wid);
        self.running = kept;
        for r in lost {
            self.in_flight.remove(&r.key);
            if let TaskKey::Ckpt(job) = r.key {
                self.enqueue_ckpt(job);
            }
        }
    }

    // ------------------------------------------------------------------
    // Planning
    // ------------------------------------------------------------------

    /// Emits the detection/fallback event pair for shuffle checkpoints
    /// the planner just declared unreadable (corrupt or mid-outage):
    /// the scheduled `ShuffleMap` recompute in `ready` is their
    /// fallback. RDD-part fallbacks are reported by the executor at the
    /// restore site; this covers the shuffle side, where "fallback"
    /// means the planner re-runs the map task instead. Deduplicated per
    /// block so replanning iterations do not repeat the pair.
    fn report_unreadable_shuffles(&mut self, ready: &[TaskKey]) {
        let now = self.clock.now();
        for key in ready {
            let TaskKey::ShuffleMap { shuffle, map_part } = *key else {
                continue;
            };
            if !self.ckpt.has_shuffle(shuffle, map_part) {
                continue;
            }
            let Some(fault) = self.ckpt.shuffle_read_fault(shuffle, map_part, now) else {
                continue;
            };
            self.report_fallback(BlockKey::ShuffleMap { shuffle, map_part }, fault, now);
        }
    }

    /// Emits the detection/fallback event pair for an unreadable
    /// checkpoint of `block`, once per block.
    fn report_fallback(&mut self, block: BlockKey, fault: ReadFault, now: SimTime) {
        if !self.corrupt_reported.insert(block) {
            return;
        }
        if self.trace.is_enabled() {
            for ev in fault.fallback_events(&block) {
                self.trace.emit(now, ev);
            }
        }
    }

    // ------------------------------------------------------------------
    // Assignment & commit
    // ------------------------------------------------------------------

    /// Chooses the worker for a task over `(rdd, part)`: the one caching
    /// its narrow-chain input when that is not backed up, else the least
    /// loaded.
    fn place(&self, rdd: RddId, part: u32) -> Option<WorkerId> {
        let prefer = plan::preferred_worker(self.ctx.lineage(), &self.cluster, rdd, part);
        self.cluster.pick_worker(self.clock.now(), prefer)
    }

    /// Attaches the shared trace handle; the driver emits all engine
    /// lifecycle events on it, in commit order.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The driver's trace handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Installs the execution backend. The default
    /// [`TransientVmBackend`] is a guaranteed no-op, so calling this
    /// with it (or never calling it) leaves every trace byte-identical
    /// to the pre-abstraction engine. Install before running actions:
    /// swapping backends mid-job would orphan in-flight invocations.
    pub fn set_backend(&mut self, backend: Box<dyn Backend>) {
        self.backend = backend;
    }

    /// The installed execution backend.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// Emits the cache-churn events for one traced block insert: any
    /// spills and evictions the insert forced, then the insert itself.
    fn emit_cache(&self, t: SimTime, ext: u64, key: BlockKey, vbytes: u64, out: &InsertOutcome) {
        if !self.trace.is_enabled() {
            return;
        }
        for (bk, vb) in &out.spilled {
            self.trace.emit(
                t,
                EventKind::CacheSpill {
                    worker: ext,
                    block: bk.to_string(),
                    vbytes: *vb,
                },
            );
        }
        for (bk, vb) in &out.dropped {
            self.trace.emit(
                t,
                EventKind::CacheEvict {
                    worker: ext,
                    block: bk.to_string(),
                    vbytes: *vb,
                },
            );
        }
        if out.stored {
            self.trace.emit(
                t,
                EventKind::CacheInsert {
                    worker: ext,
                    block: key.to_string(),
                    vbytes,
                },
            );
        }
    }

    /// Builds the immutable snapshot the wave executor's host threads
    /// read. Borrowing rules guarantee the snapshot cannot change while a
    /// wave is computing.
    fn wave_ctx(&self) -> WaveCtx<'_> {
        WaveCtx {
            lineage: self.ctx.lineage(),
            cluster: &self.cluster,
            ckpt: &self.ckpt,
            cost: &self.config.cost,
            computed_once: &self.computed_once,
            range_cache: &self.range_cache,
            now: self.clock.now(),
            trace_enabled: self.trace.is_enabled(),
            columnar: self.config.columnar,
            column: &self.column,
        }
    }

    /// Materializes a wave of tasks in parallel: compute tasks, or the
    /// serialization walks of checkpoint writes. Outputs come back in
    /// input order; `None` marks a transient shuffle miss or a vanished
    /// checkpoint payload.
    fn compute_wave(&self, keys: &[TaskKey]) -> Vec<Option<TaskOutput>> {
        let ctx = self.wave_ctx();
        flint_simtime::fan_out(self.config.host_threads, keys, |k| {
            executor::compute_task(&ctx, *k)
        })
    }

    /// Applies a computed task's recorded side effects — stat deltas,
    /// resolved range partitioners, `computed_once` entries, and deferred
    /// cache mutations — against the now-chosen `worker`, and prices the
    /// task's network reads (charged only when the source worker is not
    /// the executing one). Runs on the driver thread, in admission order.
    fn apply_output_effects(&mut self, out: &TaskOutput, worker: WorkerId) -> SimDuration {
        self.stats.restores += out.restores;
        self.stats.restore_time += out.restore_time;
        self.stats.recompute_time += out.recompute_time;
        let now = self.clock.now();
        if self.trace.is_enabled() {
            // Compute-phase events were buffered in the effect ledger;
            // replaying them here (admission order) keeps the stream
            // identical for every `host_threads` setting.
            for ev in &out.events {
                self.trace.emit(now, ev.clone());
            }
        }
        for (s, rp) in &out.resolved {
            // First admitted resolution wins; later tasks resolved the
            // same bounds from the same snapshot.
            self.range_cache.entry(*s).or_insert_with(|| rp.clone());
        }
        for cp in &out.computed {
            self.computed_once.insert(*cp);
        }
        for e in &out.effects {
            match e {
                CacheEffect::Touch(wid, bk) => self.cluster.touch(*wid, bk),
                CacheEffect::TouchLocal(bk) => self.cluster.touch(worker, bk),
                CacheEffect::Insert(bk, data, vb) => {
                    let ext = self.cluster.worker(worker).ext_id;
                    let outcome = self.cluster.insert_block(worker, *bk, data.clone(), *vb);
                    self.emit_cache(now, ext, *bk, *vb, &outcome);
                }
            }
        }
        let mut net = SimDuration::ZERO;
        for f in &out.net {
            if f.source != worker {
                net += self.config.cost.net_time(f.vbytes);
            }
        }
        net
    }

    /// Admits one computed task: picks the worker, applies the recorded
    /// effects, prices the task, and reserves a core. Returns `false` if
    /// no worker can host it.
    ///
    /// A checkpoint write is admitted like any other task but for three
    /// steps: its worker, its duration, and the stall it puts on its
    /// node's sibling cores.
    fn admit(&mut self, key: TaskKey, out: TaskOutput) -> bool {
        let worker = match key {
            TaskKey::Output { rdd, part } | TaskKey::Ckpt(CkptJob::RddPart(rdd, part)) => {
                self.place(rdd, part)
            }
            TaskKey::ShuffleMap { shuffle, map_part } => {
                self.place(self.ctx.lineage().shuffle(shuffle).parent, map_part)
            }
            // A shuffle snapshot is written by the worker holding the
            // map output block.
            TaskKey::Ckpt(CkptJob::Shuffle(..)) => {
                out.source.filter(|&w| self.cluster.worker(w).is_alive())
            }
        };
        let Some(worker) = worker else {
            return false;
        };
        let net = self.apply_output_effects(&out, worker);
        let (mut dur, stall) = if let TaskKey::Ckpt(_) = key {
            // Materialization time (including network reads) is
            // discarded: Flint's checkpoint tasks capture partitions as
            // they are produced (§4), so only the durable write is
            // charged. Durable-write bandwidth is a per-NODE resource
            // shared by all cores; with one writer per core, each sees
            // 1/cores of the node's EBS bandwidth. The write saturates
            // it, stalling concurrent compute on the sibling cores; the
            // stall models the write itself, so invocation startup
            // overhead (added below) is excluded.
            let cores = u64::from(self.cluster.worker(worker).spec.cores.max(1));
            let write = self.ckpt.config().write_time(out.vbytes * cores, 1);
            let contention = self.config.cost.ckpt_contention.clamp(0.0, 1.0);
            (write, Some(write.mul_f64(contention)))
        } else {
            let mut dur = out.base_dur + net + TASK_OVERHEAD;
            // Under external shuffle transport the map output is written
            // to the durable store at commit; the producing task pays the
            // store-write time up front (reducers pay the store read in
            // `fetch_shuffle_bucket`, exactly like a checkpointed
            // shuffle).
            if self.backend.shuffle_transport() == ShuffleTransport::ExternalStore
                && matches!(key, TaskKey::ShuffleMap { .. })
            {
                dur += self.ckpt.config().write_time(out.vbytes, 1);
            }
            (dur, None)
        };
        let now = self.clock.now();
        // Core choice and start instant from an immutable view first, so
        // the backend hook (which needs `&mut self.backend`) can observe
        // the start before the reservation is written back.
        let (core, start) = {
            let w = self.cluster.worker(worker);
            let core = w.earliest_free_core();
            (core, w.cores_busy_until[core].max(now))
        };
        let mut invocation = 0;
        if let Some(inv) = self.backend.on_task_admitted(worker, start) {
            invocation = inv.invocation;
            dur += inv.overhead;
            let ext = self.cluster.worker(worker).ext_id;
            self.trace.emit_with(now, || EventKind::InvocationStarted {
                invocation: inv.invocation,
                worker: ext,
                cold_ms: inv.cold_ms,
            });
        }
        let finish = start + dur;
        let w = self.cluster.worker_mut(worker);
        w.cores_busy_until[core] = finish;
        if let Some(stall) = stall {
            for (i, busy) in w.cores_busy_until.iter_mut().enumerate() {
                if i != core {
                    *busy = (*busy).max(now) + stall;
                }
            }
        }
        self.task_seq += 1;
        self.running.push(Running {
            key,
            worker,
            finish,
            data: out.data,
            vbytes: out.vbytes,
            wire: out.wire,
            duration: dur,
            touched: out.touched,
            seq: self.task_seq,
            invocation,
        });
        self.in_flight.insert(key);
        true
    }

    /// Queues a checkpoint write unless it is already queued; returns
    /// whether it was added.
    fn enqueue_ckpt(&mut self, job: CkptJob) -> bool {
        let added = self.ckpt_queued.insert(job);
        if added {
            self.ckpt_queue.push_back(job);
        }
        added
    }

    /// True when a queued checkpoint job needs no work: it is already in
    /// flight or its object is already durable.
    fn ckpt_satisfied(&self, job: CkptJob) -> bool {
        if self.in_flight.contains(&TaskKey::Ckpt(job)) {
            return true;
        }
        match job {
            CkptJob::RddPart(rdd, part) => self.ckpt.has(rdd, part),
            CkptJob::Shuffle(s, mp) => self.ckpt.has_shuffle(s, mp),
        }
    }

    /// Runs every queued checkpoint write as one wave: the serialization
    /// walks and any payload materialization run on the wave executor's
    /// host threads, and admission stays in queue order on the driver
    /// thread, like any other task.
    fn assign_checkpoint_jobs(&mut self) {
        if self.ckpt_queue.is_empty() || self.cluster.alive_count() == 0 {
            return; // keep the queue intact until workers exist
        }
        let mut todo = Vec::with_capacity(self.ckpt_queue.len());
        while let Some(job) = self.ckpt_queue.pop_front() {
            if !self.ckpt_satisfied(job) {
                todo.push(TaskKey::Ckpt(job));
            }
        }
        self.ckpt_queued.clear();
        if todo.is_empty() {
            return;
        }
        let outputs = self.compute_wave(&todo);
        for (key, out) in todo.into_iter().zip(outputs) {
            // A vanished payload (dead shuffle block, missing shuffle
            // input) is dropped silently; the partition is replanned or
            // moot.
            let Some(out) = out else { continue };
            if let (false, TaskKey::Ckpt(job)) = (self.admit(key, out), key) {
                // Lost the worker between compute and admit: requeue.
                self.enqueue_ckpt(job);
            }
        }
    }

    fn commit_task(&mut self, r: Running) {
        let now = self.clock.now();
        // Per-invocation billing fires for every commit, in commit
        // order — also for checkpoint tasks and for writes the store
        // subsequently faults (the invocation ran either way). The VM
        // backend returns `None` here, so this is a no-op for it.
        if let Some(bill) = self.backend.on_task_committed(r.worker, r.duration, now) {
            let invocation = r.invocation;
            self.trace.emit_with(now, || EventKind::InvocationBilled {
                invocation,
                gb_seconds: bill.gb_seconds,
                cost: bill.cost,
            });
        }
        let (kind, id, part, block) = match r.key {
            TaskKey::Ckpt(job) => return self.commit_checkpoint(job, r, now),
            TaskKey::ShuffleMap { shuffle, map_part } => (
                "shuffle",
                u64::from(shuffle.0),
                u64::from(map_part),
                BlockKey::ShuffleMap { shuffle, map_part },
            ),
            TaskKey::Output { rdd, part } => (
                "output",
                u64::from(rdd.0),
                u64::from(part),
                BlockKey::RddPart { rdd, part },
            ),
        };
        self.stats.tasks_run += 1;
        self.stats.compute_time += r.duration;
        let ext = self.cluster.worker(r.worker).ext_id;
        self.trace.emit_with(now, || EventKind::TaskFinished {
            kind: kind.to_string(),
            id,
            part,
            worker: ext,
            millis: r.duration.as_millis(),
        });
        match block {
            BlockKey::ShuffleMap { shuffle, map_part }
                if self.backend.shuffle_transport() == ShuffleTransport::ExternalStore =>
            {
                // Serverless invocations cannot serve remote reads after
                // returning: the map output goes to the durable store
                // instead of worker memory. Reducers find it via
                // `shuffle_block_available` / `fetch_shuffle_bucket`'s
                // existing store path. A failed write leaves nothing
                // durable and the planner re-runs the map task.
                let fault = self
                    .ckpt
                    .put_shuffle(shuffle, map_part, r.data, r.vbytes, now);
                self.note_write_fault(fault, ["shuffle_ext_fail", "shuffle_ext_torn"], block, now);
                if fault != WriteFault::Fail {
                    let vbytes = r.vbytes;
                    self.trace
                        .emit_with(now, || EventKind::ShuffleExternalized {
                            shuffle: u64::from(shuffle.0),
                            map_part: u64::from(map_part),
                            vbytes,
                        });
                }
            }
            _ => {
                let outcome = self.cluster.insert_block(r.worker, block, r.data, r.vbytes);
                self.emit_cache(now, ext, block, r.vbytes, &outcome);
            }
        }
        if let BlockKey::RddPart { rdd, part } = block {
            self.computed_once.insert((rdd, part));
        }
        // Record sizes and fire materialization hooks *interleaved* in
        // chain order (ancestors before descendants), so each RDD is
        // observed at its execution-frontier moment — before its own
        // child's completion is visible — the paper's mark-on-generation.
        for (rdd, part, bytes) in r.touched {
            self.ctx
                .lineage_mut()
                .record_partition_size(rdd, part, bytes);
            self.fire_materialized(rdd, now);
        }
    }

    /// Commits a checkpoint write to the durable store. Partition sizes
    /// are recorded, but no materialization hook fires: the write
    /// produced no new partition.
    fn commit_checkpoint(&mut self, job: CkptJob, r: Running, now: SimTime) {
        for (rdd, part, bytes) in r.touched {
            self.ctx
                .lineage_mut()
                .record_partition_size(rdd, part, bytes);
        }
        let (block, fault) = match job {
            CkptJob::RddPart(rdd, part) => {
                let n = self.ctx.lineage().meta(rdd).num_partitions;
                let fault = self.ckpt.put(rdd, part, n, r.data, r.vbytes, now);
                (BlockKey::RddPart { rdd, part }, fault)
            }
            CkptJob::Shuffle(shuffle, map_part) => {
                let fault = self
                    .ckpt
                    .put_shuffle(shuffle, map_part, r.data, r.vbytes, now);
                (BlockKey::ShuffleMap { shuffle, map_part }, fault)
            }
        };
        // A torn write "succeeded" from the client's view; the note
        // records the planted corruption the restore-time integrity check
        // will catch. A failed write left nothing durable, so neither the
        // written event nor the checkpoint stats fire (keeping the trace
        // aggregate consistent with `RunStats`).
        self.note_write_fault(fault, ["ckpt_write_fail", "ckpt_torn"], block, now);
        if fault == WriteFault::Fail {
            return;
        }
        self.stats.checkpoint_time += r.duration;
        self.stats.checkpoints_written += 1;
        self.stats.checkpoint_bytes += r.vbytes;
        self.stats.checkpoint_wire_bytes += r.wire;
        self.trace.emit_with(now, || EventKind::CheckpointWritten {
            block: block.to_string(),
            vbytes: r.vbytes,
            wire_bytes: r.wire,
            millis: r.duration.as_millis(),
        });
        if let CkptJob::RddPart(rdd, part) = job {
            self.hooks
                .on_checkpoint_written(rdd, part, r.vbytes, r.duration, now);
            if self.ckpt.is_fully_checkpointed(rdd) {
                // Paper §4: checkpointing an RDD terminates its lineage;
                // ancestors' checkpoints become garbage.
                let deleted = self.ckpt.gc(self.ctx.lineage(), now);
                if deleted > 0 {
                    self.trace.emit_with(now, || EventKind::CheckpointGc {
                        rdd: u64::from(rdd.0),
                        blocks: deleted as u64,
                    });
                }
            }
        }
    }

    /// Traces a store write fault planted on `block`; `kinds` names the
    /// failed and the torn note.
    fn note_write_fault(&self, fault: WriteFault, kinds: [&str; 2], block: BlockKey, now: SimTime) {
        let kind = match fault {
            WriteFault::Fail => kinds[0],
            WriteFault::Torn => kinds[1],
            WriteFault::None => return,
        };
        self.trace.emit_with(now, || EventKind::FaultInjected {
            kind: kind.to_string(),
            target: block.to_string(),
        });
    }

    /// Fires the materialization hook for `rdd` the first time it becomes
    /// fully materialized.
    fn fire_materialized(&mut self, rdd: RddId, now: SimTime) {
        if self.fired_materialized.contains(&rdd) || !self.ctx.lineage().is_fully_materialized(rdd)
        {
            return;
        }
        self.fired_materialized.insert(rdd);
        let view = LineageView {
            lineage: self.ctx.lineage(),
            checkpoints: &self.ckpt,
            alive_workers: self.cluster.alive_count(),
            cost: &self.config.cost,
            storage: self.ckpt.config(),
        };
        let directives = self
            .hooks
            .on_rdd_materialized(&view, &mut self.trace, rdd, now);
        self.apply_directives(directives);
    }

    fn poll_hooks(&mut self) {
        let now = self.clock.now();
        let view = LineageView {
            lineage: self.ctx.lineage(),
            checkpoints: &self.ckpt,
            alive_workers: self.cluster.alive_count(),
            cost: &self.config.cost,
            storage: self.ckpt.config(),
        };
        let directives = self.hooks.poll(&view, &mut self.trace, now);
        self.apply_directives(directives);
    }

    fn apply_directives(&mut self, directives: Vec<CheckpointDirective>) {
        for d in directives {
            match d {
                CheckpointDirective::Checkpoint(rdd) => {
                    if !self.ctx.lineage().contains(rdd) {
                        continue;
                    }
                    if !self.marked_ckpt.insert(rdd) {
                        continue;
                    }
                    let n = self.ctx.lineage().meta(rdd).num_partitions;
                    let mut enqueued = 0u64;
                    for part in 0..n {
                        if !self.ckpt.has(rdd, part)
                            && self.enqueue_ckpt(CkptJob::RddPart(rdd, part))
                        {
                            enqueued += 1;
                        }
                    }
                    if self.trace.is_enabled() {
                        let view = LineageView {
                            lineage: self.ctx.lineage(),
                            checkpoints: &self.ckpt,
                            alive_workers: self.cluster.alive_count(),
                            cost: &self.config.cost,
                            storage: self.ckpt.config(),
                        };
                        let delta_ms = view.checkpoint_delta(rdd).as_millis();
                        self.trace.emit(
                            self.clock.now(),
                            EventKind::CheckpointScheduled {
                                rdd: u64::from(rdd.0),
                                parts: enqueued,
                                delta_ms,
                            },
                        );
                    }
                }
                CheckpointDirective::CheckpointAllCached => {
                    let snap = self.cluster.snapshot();
                    for (_, key, _) in snap.blocks {
                        let job = match key {
                            BlockKey::RddPart { rdd, part } => {
                                if self.ckpt.has(rdd, part) {
                                    continue;
                                }
                                CkptJob::RddPart(rdd, part)
                            }
                            BlockKey::ShuffleMap { shuffle, map_part } => {
                                if self.ckpt.has_shuffle(shuffle, map_part) {
                                    continue;
                                }
                                CkptJob::Shuffle(shuffle, map_part)
                            }
                        };
                        self.enqueue_ckpt(job);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Gather
    // ------------------------------------------------------------------

    /// Waits (in virtual time) until a *present* checkpoint of
    /// `(rdd, part)` is restorable. Transient outages are retried with
    /// capped exponential backoff; a corrupt object returns `Ok(false)`
    /// (with the detection/fallback event pair) so the caller falls
    /// back to cluster state or recomputation — corrupt bytes are never
    /// served. Exhausting the retry budget returns
    /// [`EngineError::StoreUnavailable`].
    fn await_store_readable(&mut self, rdd: RddId, part: u32) -> Result<bool> {
        let mut attempt = 0u64;
        loop {
            match self.ckpt.read_fault(rdd, part, self.clock.now()) {
                None => return Ok(true),
                Some(ReadFault::Corrupt) => {
                    let now = self.clock.now();
                    self.report_fallback(BlockKey::RddPart { rdd, part }, ReadFault::Corrupt, now);
                    return Ok(false);
                }
                Some(ReadFault::Unavailable) => {
                    let retry = self.config.store_retry;
                    if retry.exhausted(attempt) {
                        return Err(EngineError::StoreUnavailable { retries: attempt });
                    }
                    let wait_ms = retry.delay(attempt).as_millis();
                    attempt += 1;
                    self.trace
                        .emit_with(self.clock.now(), || EventKind::BackoffScheduled {
                            attempt,
                            millis: wait_ms,
                        });
                    self.clock.advance(SimDuration::from_millis(wait_ms));
                    self.pump_injector();
                }
            }
        }
    }

    /// Fetches every partition of `target` to the driver, charging
    /// parallel transfer time. A block that vanished between job
    /// completion and gather (a same-instant revocation) re-runs the
    /// job, for at most [`GATHER_PASSES`] passes in all.
    fn gather(&mut self, target: RddId) -> Result<Vec<Records>> {
        for pass in 0..GATHER_PASSES {
            if pass > 0 {
                self.run_job(target)?;
            }
            let n = self.ctx.lineage().meta(target).num_partitions;
            let mut parts = Vec::with_capacity(n as usize);
            let mut total_vb = 0u64;
            let mut ok = true;
            for p in 0..n {
                if self.ckpt.has(target, p) && self.await_store_readable(target, p)? {
                    let d = self.ckpt.get(target, p).expect("bitmap agrees").clone();
                    total_vb += self.ckpt.size_of(target, p).unwrap_or(0);
                    self.stats.restores += 1;
                    // Gather reads count as restores but charge no restore
                    // time (the transfer is priced below), hence millis: 0.
                    self.trace
                        .emit_with(self.clock.now(), || EventKind::Restored {
                            block: BlockKey::RddPart {
                                rdd: target,
                                part: p,
                            }
                            .to_string(),
                            millis: 0,
                        });
                    parts.push(d);
                } else if let Some((_, d, _, vb)) = self.cluster.fetch(&BlockKey::RddPart {
                    rdd: target,
                    part: p,
                }) {
                    total_vb += vb;
                    let records = d.part().expect("RDD partition blocks are never bucketed");
                    parts.push(records.clone());
                } else {
                    ok = false;
                    break;
                }
            }
            if ok {
                // Workers stream to the driver in parallel.
                let streams = self.cluster.alive_count().max(1) as u64;
                let dur = self.config.cost.net_time(total_vb / streams);
                self.clock.advance(dur);
                return Ok(parts);
            }
        }
        Err(EngineError::RetryBudgetExhausted { rdd: target })
    }

    /// Drains the checkpoint queue to completion (used by explicit
    /// `checkpoint_now`).
    fn drain_checkpoints(&mut self) -> Result<()> {
        let mut iterations = 0u64;
        while self.pending_checkpoints() > 0 {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(EngineError::JobBudgetExhausted {
                    phase: "drain-checkpoints",
                    iterations,
                });
            }
            if let Some(e) = self.take_interrupt() {
                return Err(e);
            }
            self.assign_checkpoint_jobs();
            let Some(tt) = self.running.iter().map(|r| r.finish).min() else {
                // Nothing running and nothing assignable: need workers.
                match self.injector.next_event_after(self.clock.now()) {
                    Some(ti) => {
                        self.stall_until(ti);
                        continue;
                    }
                    None => return Err(EngineError::NoWorkers),
                }
            };
            self.advance_and_commit(tt);
        }
        Ok(())
    }
}
