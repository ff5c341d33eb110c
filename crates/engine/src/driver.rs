//! The driver's scheduler core: it plans lineage waves, computes them,
//! and commits their outputs in virtual time. [`recovery`], [`ckpt_pump`]
//! and [`crate::manifest`]'s resume state own the rest of a run's state.

mod ckpt_pump;
mod recovery;

use std::collections::{BTreeMap, BTreeSet, HashSet};

use flint_simtime::{Clock, SimDuration, SimTime};
use flint_trace::{EventKind, TraceHandle};

use crate::backend::ServerlessBackend;
use crate::block::{BlockData, BlockKey, InsertOutcome, Records};
use crate::checkpoint::{CheckpointStore, WriteFault};
use crate::cluster::{Cluster, WorkerId, WorkerSpec};
use crate::column::{ColumnCounters, ColumnStats};
use crate::config::DriverConfig;
use crate::context::EngineContext;
use crate::cost::CostModel;
use crate::error::{EngineError, Result};
use crate::executor::{self, CacheEffect, TaskOutput, WaveCtx};
use crate::hooks::{CheckpointDirective, CheckpointHooks, NoCheckpoint};
use crate::injector::{FailureInjector, NoFailures};
use crate::manifest::{ResumeState, RunManifest};
use crate::plan::{self, PlanStats, Planner};
use crate::rdd::{RddId, RddRef};
use crate::shuffle::{RangePartitioner, ShuffleId};
use crate::stats::{ActionRecord, RunStats};
use crate::value::Value;

/// Cap on scheduler loop iterations per [`Driver::run_until`] call (one
/// action's job, idle wait or checkpoint drain), guarding against
/// revocation livelock (MTTF far below task granularity).
const MAX_ITERATIONS: u64 = 5_000_000;

/// Fixed per-task overhead (scheduling, deserialization).
const TASK_OVERHEAD: SimDuration = SimDuration::from_millis(80);

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
    /// Durably write a checkpoint of a block: an RDD partition, or a
    /// shuffle map output (systems-level baseline).
    Ckpt(BlockKey),
}

/// What a [`Driver::run_until`] call steps virtual time toward.
#[derive(Debug, Clone, Copy)]
enum Goal {
    /// Every partition of the RDD is materialized (an action's job).
    Materialize(RddId),
    /// Virtual time has reached the instant and nothing is running (an
    /// idle wait).
    Until(SimTime),
    /// No checkpoint write is queued or running (a checkpoint drain).
    Drain,
}

impl Goal {
    /// Whether a step toward this goal polls the policy hooks. A drain
    /// does not: a timer policy firing mid-drain would enqueue writes
    /// that `checkpoint_now` then waits for as well.
    fn polls(self) -> bool {
        !matches!(self, Goal::Drain)
    }

    /// The error a run toward this goal returns when it exceeds
    /// [`MAX_ITERATIONS`].
    fn budget_error(self, iterations: u64) -> EngineError {
        let phase = match self {
            Goal::Materialize(rdd) => return EngineError::RetryBudgetExhausted { rdd },
            Goal::Until(_) => "idle",
            Goal::Drain => "drain-checkpoints",
        };
        EngineError::JobBudgetExhausted { phase, iterations }
    }
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
    /// Serverless invocation id assigned at admission (0 on a VM
    /// cluster).
    invocation: u64,
}

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
    /// The serverless backend, if installed; `None` is a VM cluster.
    serverless: Option<ServerlessBackend>,
    hooks: Box<dyn CheckpointHooks>,
    injector: Box<dyn FailureInjector>,
    clock: Clock,
    stats: RunStats,
    trace: TraceHandle,
    config: DriverConfig,
    range_cache: BTreeMap<ShuffleId, RangePartitioner>,
    computed_once: HashSet<(RddId, u32)>,
    fired_materialized: HashSet<RddId>,
    ckpt_queue: ckpt_pump::CkptQueue,
    running: Vec<Running>,
    in_flight: BTreeSet<TaskKey>,
    last_pumped: SimTime,
    next_local_ext: u64,
    task_seq: u64,
    /// Blocks whose corrupt/unavailable checkpoint the driver has
    /// already paired with a `RestoreFallback` event (dedup across
    /// planning iterations).
    corrupt_reported: HashSet<BlockKey>,
    flaps: recovery::FlapGuard,
    resume: ResumeState,
}

impl Driver {
    /// Creates a driver with explicit policy hooks and failure injector.
    pub fn new(
        config: DriverConfig,
        hooks: Box<dyn CheckpointHooks>,
        injector: Box<dyn FailureInjector>,
    ) -> Self {
        Driver {
            ctx: EngineContext::new(),
            cluster: Cluster::new(),
            ckpt: CheckpointStore::new(config.storage),
            planner: Planner::default(),
            column: ColumnCounters::default(),
            serverless: None,
            hooks,
            injector,
            clock: Clock::new(),
            stats: RunStats::default(),
            trace: TraceHandle::disabled(),
            config,
            range_cache: BTreeMap::new(),
            computed_once: HashSet::new(),
            fired_materialized: HashSet::new(),
            ckpt_queue: Default::default(),
            running: Vec::new(),
            in_flight: BTreeSet::new(),
            last_pumped: SimTime::ZERO,
            next_local_ext: 1 << 40,
            task_seq: 0,
            corrupt_reported: HashSet::new(),
            flaps: Default::default(),
            resume: Default::default(),
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
        self.resume.waves_committed()
    }

    /// Arms a resume replay against `manifest` (see [`RunManifest`]).
    ///
    /// Call on a freshly built driver (same config, workload, and
    /// injector as the crashed run) before re-running the actions: when
    /// the replay's committed-wave frontier crosses `manifest.frontier`,
    /// the driver checks virtual time and stats against the manifest and
    /// emits `RunResumed`, or fails with [`EngineError::ResumeDiverged`]
    /// instead of continuing a divergent run. Rejects a manifest whose
    /// config fingerprint does not match this driver's.
    pub fn resume(&mut self, manifest: &RunManifest) -> Result<()> {
        let now = self.clock.now();
        self.resume.resume(manifest, &self.config, now, &self.trace)
    }

    /// `Ok` unless a resume replay armed by [`Driver::resume`] ended
    /// short of its manifest's frontier, which verified nothing: then
    /// [`EngineError::ResumeDiverged`] naming `frontier`. Call after the
    /// replayed actions return.
    pub fn resume_verified(&self) -> Result<()> {
        self.resume.verified()
    }

    /// The typed interruption pending at a scheduler loop boundary, as an
    /// error: a failed resume verification or an armed suspension.
    fn take_interrupt(&mut self) -> Result<()> {
        let now = self.clock.now();
        self.resume
            .take_interrupt(&self.config, now, &self.stats, &mut self.ckpt, &self.trace)
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
        self.run_until(Goal::Drain)
    }

    /// Advances virtual time to `t`, draining checkpoint writes and
    /// processing failure events while "idle" (an interactive session
    /// between queries).
    pub fn idle_until(&mut self, t: SimTime) -> Result<()> {
        self.run_until(Goal::Until(t))
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
        self.run_until(Goal::Materialize(target))?;
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

    /// The scheduler loop: steps virtual time until `goal` is reached.
    ///
    /// Each step takes a pending interrupt and polls the policy hooks
    /// (see [`Goal::polls`]). Toward `Materialize` it then plans: a done
    /// plan ends the run, else the ready tasks run as a compute wave.
    /// Then the queued checkpoint writes run as a wave and the goal is
    /// tested. A step ends at the next instant anything can happen — a
    /// task finish, an injector event, or `Until`'s deadline — so a
    /// revocation or a replacement is acted on at the instant it
    /// arrives. With none of the three pending, nothing can ever run:
    /// [`EngineError::NoWorkers`]. Waiting with nothing running is stall
    /// time, except in an idle wait.
    fn run_until(&mut self, goal: Goal) -> Result<()> {
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(goal.budget_error(iterations));
            }
            self.take_interrupt()?;
            if goal.polls() {
                self.poll_hooks();
            }
            if let Goal::Materialize(target) = goal {
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
                let pending: Vec<TaskKey> = ready
                    .into_iter()
                    .filter(|k| !self.in_flight.contains(k))
                    .collect();
                if !pending.is_empty() && self.cluster.alive_count() > 0 {
                    self.trace
                        .emit_with(self.clock.now(), || EventKind::WaveStarted {
                            tasks: pending.len() as u64,
                        });
                    // A task no worker could host is planned again next step.
                    self.run_wave(&pending);
                }
            }
            self.assign_checkpoint_jobs();

            let now = self.clock.now();
            let reached = match goal {
                Goal::Materialize(_) => false,
                Goal::Until(t) => now >= t && self.running.is_empty(),
                Goal::Drain => self.pending_checkpoints() == 0,
            };
            if reached {
                return Ok(());
            }
            let t_task = self.running.iter().map(|r| r.finish).min();
            let t_inj = self.injector.next_event_after(now);
            debug_assert!(
                t_inj.is_none_or(|ti| ti > now),
                "next_event_after({now:?}) returned {t_inj:?}, not after it"
            );
            let horizon = match goal {
                Goal::Until(t) if now < t => Some(t),
                _ => None,
            };
            let Some(next) = [t_task, t_inj, horizon].into_iter().flatten().min() else {
                return Err(EngineError::NoWorkers);
            };
            if t_task == Some(next) {
                self.advance_and_commit(next);
            } else if self.running.is_empty() && !matches!(goal, Goal::Until(_)) {
                self.stall_until(next);
            } else {
                self.clock.advance_to(next);
                self.pump_injector();
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
            let now = self.clock.now();
            self.resume
                .wave_committed(&self.config, now, &self.stats, &self.ckpt, &self.trace);
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

    /// Runs this driver's tasks as serverless invocations instead of on
    /// VMs. Install before running actions: swapping backends mid-job
    /// would orphan in-flight invocations.
    pub fn set_serverless(&mut self, backend: ServerlessBackend) {
        self.serverless = Some(backend);
    }

    /// The installed serverless backend; `None` on a VM cluster.
    pub fn serverless(&self) -> Option<&ServerlessBackend> {
        self.serverless.as_ref()
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

    /// Runs one wave: materializes `keys` in parallel against the
    /// wave-start snapshot (compute tasks, or the serialization walks of
    /// checkpoint writes), then admits the outputs sequentially in `keys`
    /// order, so scheduling and accounting are bit-identical for any
    /// `host_threads` setting. A key whose output is `None` (a transient
    /// shuffle miss or a vanished checkpoint payload) is dropped; returns
    /// the keys no worker could host.
    fn run_wave(&mut self, keys: &[TaskKey]) -> Vec<TaskKey> {
        let ctx = self.wave_ctx();
        let outputs = flint_simtime::fan_out(self.config.host_threads, keys, |k| {
            executor::compute_task(&ctx, *k)
        });
        let mut unhosted = Vec::new();
        for (&key, out) in keys.iter().zip(outputs) {
            if let Some(out) = out {
                if !self.admit(key, out) {
                    unhosted.push(key);
                }
            }
        }
        unhosted
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
        for &(rdd, part, _) in &out.touched {
            self.computed_once.insert((rdd, part));
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
            TaskKey::Output { rdd, part } | TaskKey::Ckpt(BlockKey::RddPart { rdd, part }) => {
                self.place(rdd, part)
            }
            TaskKey::ShuffleMap { shuffle, map_part } => {
                self.place(self.ctx.lineage().shuffle(shuffle).parent, map_part)
            }
            // A shuffle snapshot is written by the worker holding the
            // map output block.
            TaskKey::Ckpt(BlockKey::ShuffleMap { .. }) => {
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
            // On a serverless backend the map output is written to the
            // durable store at commit; the producing task pays the
            // store-write time up front (reducers pay the store read in
            // `fetch_shuffle_bucket`, exactly like a checkpointed
            // shuffle).
            if self.serverless.is_some() && matches!(key, TaskKey::ShuffleMap { .. }) {
                dur += self.ckpt.config().write_time(out.vbytes, 1);
            }
            (dur, None)
        };
        let now = self.clock.now();
        // Core choice and start instant from an immutable view first, so
        // the serverless backend can observe the start before the
        // reservation is written back.
        let (core, start) = {
            let w = self.cluster.worker(worker);
            let core = w.earliest_free_core();
            (core, w.cores_busy_until[core].max(now))
        };
        let mut invocation = 0;
        if let Some(backend) = &mut self.serverless {
            let inv = backend.on_task_admitted(worker, start);
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

    fn commit_task(&mut self, r: Running) {
        let now = self.clock.now();
        // Per-invocation billing fires for every commit, in commit
        // order — also for checkpoint tasks and for writes the store
        // subsequently faults (the invocation ran either way).
        if let Some(backend) = &mut self.serverless {
            let bill = backend.on_task_committed(r.worker, r.duration, now);
            let invocation = r.invocation;
            self.trace.emit_with(now, || EventKind::InvocationBilled {
                invocation,
                gb_seconds: bill.gb_seconds,
                cost: bill.cost,
            });
        }
        let (kind, id, part, block) = match r.key {
            TaskKey::Ckpt(block) => return self.commit_checkpoint(block, r, now),
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
            BlockKey::ShuffleMap { shuffle, map_part } if self.serverless.is_some() => {
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
}
