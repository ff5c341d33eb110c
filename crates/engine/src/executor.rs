//! Parallel wave execution with deterministic commit.
//!
//! The driver schedules work in *waves*: every planning pass yields the
//! set of ready tasks, whose real-data materialization (lineage
//! recomputation, shuffle-bucket fetches, checkpoint serialization) is
//! the expensive part of a simulated run. This module computes those
//! results on a pool of scoped host threads ([`flint_simtime::fan_out`])
//! while keeping the simulation bit-for-bit deterministic:
//!
//! * **Compute phase (parallel, pure).** Each task, checkpoint writes
//!   (`TaskKey::Ckpt`) included, runs [`compute_task`] against an
//!   immutable [`WaveCtx`] snapshot of the lineage, cluster caches,
//!   checkpoint store, and cost model. A checkpoint write materializes
//!   (or peeks) its payload and runs the byte-exact serialization walk.
//!   Nothing is mutated; every would-be side effect (LRU bumps,
//!   cache inserts, stat deltas, resolved range partitioners) is
//!   *recorded* in the returned [`TaskOutput`]. Durations that depend on
//!   the executing worker (network fetches) are recorded as
//!   [`NetFetch`]es and priced later.
//! * **Commit phase (sequential, ordered).** The driver admits outputs
//!   in fixed task-key order on its own thread: it picks the worker,
//!   prices network time, applies the recorded effects, and reserves a
//!   core. Because admission order, worker choice, and every mutation are
//!   independent of how the compute phase was scheduled, any
//!   `host_threads` setting produces identical results, stats, and
//!   virtual-time trajectories.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use flint_simtime::{SimDuration, SimTime};
use flint_trace::EventKind;

use crate::block::{BlockData, BlockKey, BlockLocation, Records};
use crate::checkpoint::CheckpointStore;
use crate::cluster::{Cluster, WorkerId};
use crate::column::{
    radix_key_i64, radix_sort, typed_agg, typed_sort_by_key, Column, ColumnBatch, ColumnCounters,
    FlatMapKernel, PredKernel,
};
use crate::cost::CostModel;
use crate::driver::TaskKey;
use crate::lineage::Lineage;
use crate::rdd::{AggFn, PartitionData, RddId, RddOp};
use crate::shuffle::{
    scan_flat_bucket, BucketedBlock, HashPartitioner, Partitioner, RangePartitioner, ShuffleId,
    ShuffleInfo, ShuffleKind,
};
use crate::value::Value;

/// Internal materialization failure: a required shuffle input vanished
/// between planning and execution (cannot normally happen; handled by
/// replanning).
#[derive(Debug)]
pub(crate) struct MissingShuffle;

/// Immutable snapshot of everything a wave's tasks may read.
///
/// All fields are shared references, so the whole context is `Sync` and
/// can be borrowed by every host thread of a wave simultaneously.
pub(crate) struct WaveCtx<'a> {
    pub lineage: &'a Lineage,
    pub cluster: &'a Cluster,
    pub ckpt: &'a CheckpointStore,
    pub cost: &'a CostModel,
    pub computed_once: &'a HashSet<(RddId, u32)>,
    pub range_cache: &'a BTreeMap<ShuffleId, RangePartitioner>,
    /// Wave-start instant: the snapshot time every store-readability
    /// check in this wave is evaluated at. Planner and executor share
    /// it, so both sides agree on which checkpoints are restorable.
    pub now: SimTime,
    /// Whether a trace sink is attached. When false, tasks skip
    /// recording [`TaskOutput::events`] entirely, preserving the
    /// zero-overhead-when-disabled contract on the hot path.
    pub trace_enabled: bool,
    /// Whether vectorized kernels may run. Fixed at plan time from the
    /// driver config — never per wave — so the row and columnar paths
    /// produce byte-identical observables and either one can replay a
    /// pinned trace.
    pub columnar: bool,
    /// Which arm kernel-declared ops took and how many records changed
    /// form; host-side counters outside the deterministic stream.
    pub column: &'a ColumnCounters,
}

// The wave executor shares the snapshot and task closures across scoped
// threads; this fails to compile if any engine type silently loses
// Send/Sync (e.g. an Rc or RefCell sneaking into the lineage).
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<WaveCtx<'static>>();
};

/// A block read whose network cost depends on the (not yet chosen)
/// executing worker: priced at admission, charged only if the source is
/// remote.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetFetch {
    pub source: WorkerId,
    pub vbytes: u64,
}

/// A deferred, ordered cache mutation recorded during the compute phase
/// and replayed at admission. Replaying in recorded order reproduces the
/// LRU stamp sequence a sequential execution of the task would have
/// produced.
#[derive(Debug, Clone)]
pub(crate) enum CacheEffect {
    /// Bump the LRU stamp of a block on the worker that held it.
    Touch(WorkerId, BlockKey),
    /// Bump a block inserted earlier by this same task (it lives on the
    /// executing worker, unknown during compute).
    TouchLocal(BlockKey),
    /// Insert an RDD partition into the executing worker's store, in
    /// the form the producing task materialized it.
    Insert(BlockKey, Records, u64),
}

/// Everything a task's parallel compute phase produced: the data, the
/// worker-independent duration, and a ledger of deferred mutations for
/// the driver to apply in task-key order.
pub(crate) struct TaskOutput {
    /// Final block payload (map-side combine applied; hash-shuffle map
    /// outputs bucketed).
    pub data: BlockData,
    /// Virtual size of `data` under the cost model.
    pub vbytes: u64,
    /// Byte-exact serialized size (checkpoint tasks only, else 0).
    pub wire: u64,
    /// Source/compute/disk/durable-read time, independent of the
    /// executing worker.
    pub base_dur: SimDuration,
    /// Reads whose network time depends on the chosen worker.
    pub net: Vec<NetFetch>,
    /// Deferred cache mutations, in execution order.
    pub effects: Vec<CacheEffect>,
    /// Partition sizes computed along the chain (ancestors first).
    pub touched: Vec<(RddId, u32, u64)>,
    /// Range partitioners resolved during this task.
    pub resolved: Vec<(ShuffleId, RangePartitioner)>,
    /// For shuffle checkpoint jobs: the worker holding the map block.
    pub source: Option<WorkerId>,
    /// Checkpoint restores performed.
    pub restores: u64,
    /// Time spent in those restores.
    pub restore_time: SimDuration,
    /// Portion of `base_dur` that recomputed previously-materialized
    /// partitions.
    pub recompute_time: SimDuration,
    /// Trace events recorded during the parallel compute phase
    /// (restores, recomputation cascades). Buffered here — part of the
    /// effect ledger — and emitted by the driver at admission, in
    /// task-key order, so the trace stream is bit-identical for any
    /// `host_threads` setting. Empty when tracing is disabled.
    pub events: Vec<EventKind>,
}

/// Computes one task against the wave snapshot. Returns `None` when a
/// required shuffle input vanished between planning and execution (the
/// driver replans) or a checkpoint payload is gone.
pub(crate) fn compute_task(ctx: &WaveCtx<'_>, key: TaskKey) -> Option<TaskOutput> {
    let (rdd, part) = match key {
        TaskKey::Output { rdd, part } => (rdd, part),
        TaskKey::ShuffleMap { shuffle, map_part } => {
            (ctx.lineage.shuffle(shuffle).parent, map_part)
        }
        TaskKey::Ckpt(block) => return compute_ckpt(ctx, block),
    };
    let mut b = TaskBuilder::new(ctx);
    let (data, mut vbytes, mut dur) = match b.materialize(rdd, part) {
        Ok(x) => x,
        Err(MissingShuffle) => return None,
    };
    // Hash-shuffle map outputs bucket once, here: one pass over the
    // records replaces the per-reduce-task O(N) scans. A hash shuffle with
    // no combine, or with a declared combine kernel, buckets typed (the
    // kernel encodes a row payload first); anything else takes the row
    // path with identical observables. Range-shuffle map outputs stay
    // rows — their partitioner is sampled from them by the reduce side,
    // which scans — and never combine.
    let out: BlockData = match key {
        TaskKey::ShuffleMap { shuffle, .. } => {
            let info = ctx.lineage.shuffle(shuffle);
            if info.combine.is_some() {
                // Map-side pre-aggregation: input vbytes at factor 1.0,
                // before the output resize, whichever form runs it.
                dur += ctx.cost.compute_time(vbytes, 1.0);
            }
            if let Some(bb) = columnar_map_output(ctx, info, &data) {
                vbytes = ctx.cost.vbytes(bb.payload_bytes() + 16);
                Arc::new(bb).into()
            } else {
                let mut rows = data.rows(ctx.column);
                if let Some(combine) = &info.combine {
                    rows = Arc::new(fold_by_key(rows.iter(), &combine.f, true));
                }
                match info.kind {
                    ShuffleKind::Hash { parts } => {
                        let bb = BucketedBlock::partition(&rows, parts);
                        // Bucketing preserves the record multiset, so the
                        // virtual size is unchanged; the bucket walk
                        // already summed the payload bytes.
                        vbytes = ctx.cost.vbytes(bb.payload_bytes() + 16);
                        Arc::new(bb).into()
                    }
                    ShuffleKind::Range { .. } => Records::Rows(rows).into(),
                }
            }
        }
        _ => data.into(),
    };
    Some(b.finish(out, vbytes, 0, dur, None))
}

/// The fully-columnar map side of a hash shuffle: typed map-side combine
/// (when the shuffle declares one) followed by columnar hash bucketing.
/// A kernel-declared combine whose input arrived as rows (an opaque
/// closure upstream) encodes them once, here, so everything downstream
/// of the shuffle stays a batch. Returns `None` — row fallback — when
/// columnar execution is off, the shuffle is a range shuffle, its
/// combine is an opaque closure, a grouping or cogroup shuffle's payload
/// is rows, the rows do not encode, or the batch shape defeats the typed
/// kernels; each is a pure function of the lineage and the data.
fn columnar_map_output(
    ctx: &WaveCtx<'_>,
    info: &ShuffleInfo,
    data: &Records,
) -> Option<BucketedBlock> {
    let (true, &ShuffleKind::Hash { parts }) = (ctx.columnar, &info.kind) else {
        return None;
    };
    let Some(combine) = &info.combine else {
        return BucketedBlock::partition_columnar(data.batch()?, parts);
    };
    let kernel = combine.kernel.as_ref()?;
    let encoded;
    let batch = match data {
        Records::Col(b) => Some(b.as_ref()),
        Records::Rows(rows) => {
            encoded = ctx.column.encode(rows);
            encoded.as_ref()
        }
    };
    // Typed combine needs the key/payload pair layout; scalar pair
    // encodings (whole-record keys) take the row path instead.
    let out = match batch {
        Some(ColumnBatch::Pair { key, val }) => typed_agg(kernel, &[(key, val.as_ref())])
            .and_then(|combined| BucketedBlock::partition_columnar(&combined, parts)),
        _ => None,
    };
    ctx.column.kernel_ran(out.is_some());
    out
}

/// Computes one checkpoint job: materializes (or peeks) the payload and
/// runs the serialization walk on the wave thread. Returns `None` when
/// the payload is gone (vanished shuffle block or missing shuffle input)
/// and the job should be dropped silently, as the sequential path did.
fn compute_ckpt(ctx: &WaveCtx<'_>, key: BlockKey) -> Option<TaskOutput> {
    match key {
        BlockKey::RddPart { rdd, part } => {
            let mut b = TaskBuilder::new(ctx);
            // Only the durable write is charged: Flint's checkpoint tasks
            // capture partitions as they are produced (§4), so the
            // materialization duration is discarded.
            let (data, vbytes, _resolve) = match b.materialize(rdd, part) {
                Ok(x) => x,
                Err(MissingShuffle) => return None,
            };
            // The store keeps the handle the producer made: wire and
            // virtual bytes are functions of the records, not of their
            // layout ([`Records::wire_size`]).
            let wire = data.wire_size();
            Some(b.finish(data.into(), vbytes, wire, SimDuration::ZERO, None))
        }
        BlockKey::ShuffleMap { .. } => {
            let (wid, data, _, vbytes) = ctx.cluster.peek_fetch(&key)?;
            let mut b = TaskBuilder::new(ctx);
            b.effects.push(CacheEffect::Touch(wid, key));
            let wire = data.wire_size();
            Some(b.finish(data, vbytes, wire, SimDuration::ZERO, Some(wid)))
        }
    }
}

/// Deterministic Bernoulli sampling for [`RddOp::Sample`]: keyed by seed,
/// RDD, and partition, so results are independent of execution order and
/// thread count.
pub(crate) fn deterministic_sample(
    data: &[Value],
    fraction: f64,
    seed: u64,
    rdd: RddId,
    part: u32,
) -> Vec<Value> {
    use rand::Rng;
    let mut rng =
        flint_simtime::rng::stream(seed ^ (u64::from(rdd.0) << 32), &format!("sample:{part}"));
    let keep = fraction.clamp(0.0, 1.0);
    let mut out = Vec::with_capacity(data.len());
    out.extend(data.iter().filter(|_| rng.gen_bool(keep)).cloned());
    out
}

/// Accumulates one task's pure computation against a [`WaveCtx`].
struct TaskBuilder<'c, 'a> {
    ctx: &'c WaveCtx<'a>,
    net: Vec<NetFetch>,
    effects: Vec<CacheEffect>,
    touched: Vec<(RddId, u32, u64)>,
    resolved: Vec<(ShuffleId, RangePartitioner)>,
    restores: u64,
    restore_time: SimDuration,
    recompute_time: SimDuration,
    /// Buffered trace events (only filled when `ctx.trace_enabled`).
    events: Vec<EventKind>,
    /// Current `materialize` recursion depth: 0 for the task's own
    /// partition, increasing toward recomputed ancestors.
    depth: u32,
    /// Blocks this task has queued for insertion, with their virtual
    /// sizes, visible to its own later reads (mirrors the sequential
    /// materializer, where a persisted ancestor cached mid-task is a
    /// free local hit for the rest of the task).
    local: HashMap<BlockKey, (Records, u64)>,
}

impl<'c, 'a> TaskBuilder<'c, 'a> {
    fn new(ctx: &'c WaveCtx<'a>) -> Self {
        TaskBuilder {
            ctx,
            net: Vec::new(),
            effects: Vec::new(),
            touched: Vec::new(),
            resolved: Vec::new(),
            restores: 0,
            restore_time: SimDuration::ZERO,
            recompute_time: SimDuration::ZERO,
            events: Vec::new(),
            depth: 0,
            local: HashMap::new(),
        }
    }

    fn finish(
        self,
        data: BlockData,
        vbytes: u64,
        wire: u64,
        base_dur: SimDuration,
        source: Option<WorkerId>,
    ) -> TaskOutput {
        TaskOutput {
            data,
            vbytes,
            wire,
            base_dur,
            net: self.net,
            effects: self.effects,
            touched: self.touched,
            resolved: self.resolved,
            source,
            restores: self.restores,
            restore_time: self.restore_time,
            recompute_time: self.recompute_time,
            events: self.events,
        }
    }

    fn was_computed_before(&self, rdd: RddId, part: u32) -> bool {
        self.ctx.computed_once.contains(&(rdd, part))
            || self.touched.iter().any(|&(r, p, _)| (r, p) == (rdd, part))
    }

    /// Computes `(rdd, part)`, returning the data, its virtual size
    /// under the cost model, and the worker-independent duration. Uses
    /// (in order): this task's own pending inserts, the wave-start
    /// cluster cache, the durable checkpoint store, recursive
    /// recomputation through the lineage.
    ///
    /// The returned virtual size equals `cost.vbytes(data.real_bytes())`
    /// on every path (caches and the checkpoint store record it at
    /// insert time), so callers reuse it instead of re-walking the
    /// payload.
    fn materialize(
        &mut self,
        rdd: RddId,
        part: u32,
    ) -> std::result::Result<(Records, u64, SimDuration), MissingShuffle> {
        self.depth += 1;
        let r = self.materialize_inner(rdd, part);
        self.depth -= 1;
        r
    }

    fn materialize_inner(
        &mut self,
        rdd: RddId,
        part: u32,
    ) -> std::result::Result<(Records, u64, SimDuration), MissingShuffle> {
        let bk = BlockKey::RddPart { rdd, part };

        // 0. A block this task already queued for insertion: a free
        //    local memory hit on the executing worker.
        if let Some((data, vb)) = self.local.get(&bk) {
            let (data, vb) = (data.clone(), *vb);
            self.effects.push(CacheEffect::TouchLocal(bk));
            return Ok((data, vb, SimDuration::ZERO));
        }

        // 1. Cluster cache (memory or local disk beats a durable read).
        if let Some((wid, data, loc, vb)) = self.ctx.cluster.peek_fetch(&bk) {
            let data = data
                .part()
                .expect("RDD partition blocks are never bucketed")
                .clone();
            self.effects.push(CacheEffect::Touch(wid, bk));
            let mut dur = SimDuration::ZERO;
            if loc == BlockLocation::Disk {
                dur += self.ctx.cost.disk_time(vb);
            }
            self.net.push(NetFetch {
                source: wid,
                vbytes: vb,
            });
            return Ok((data, vb, dur));
        }

        // 2. Durable checkpoint. The restore runs the integrity check
        //    first: a torn write or an outage window abandons the
        //    restore and falls through to lineage recomputation, so a
        //    degraded store can slow a wave down but never corrupt it.
        if self.ctx.ckpt.has(&bk) {
            match self.ctx.ckpt.read_fault(&bk, self.ctx.now) {
                None => {
                    let data = self
                        .ctx
                        .ckpt
                        .get(rdd, part)
                        .expect("checkpoint bitmap and store agree")
                        .clone();
                    let vb = self
                        .ctx
                        .ckpt
                        .size_of(rdd, part)
                        .unwrap_or_else(|| self.ctx.cost.vbytes(data.real_bytes()));
                    let dur = self.ctx.ckpt.config().read_time(vb, 1);
                    self.restore_time += dur;
                    self.restores += 1;
                    if self.ctx.trace_enabled {
                        self.events.push(EventKind::Restored {
                            block: bk.to_string(),
                            millis: dur.as_millis(),
                        });
                    }
                    // Re-cache the restored partition if the RDD is persisted so
                    // subsequent reads stay in memory — the stored handle, in
                    // the stored form, so a restored table stays on the path
                    // it was on before the loss.
                    if self.ctx.lineage.is_persisted(rdd) {
                        self.effects.push(CacheEffect::Insert(bk, data.clone(), vb));
                        self.local.insert(bk, (data.clone(), vb));
                    }
                    return Ok((data, vb, dur));
                }
                Some(fault) => {
                    if self.ctx.trace_enabled {
                        self.events.extend(fault.fallback_events(&bk));
                    }
                    // Fall through to lineage recomputation.
                }
            }
        }

        // 3. Recompute from lineage. The op is borrowed from the wave's
        //    lineage, not from `self`, so no kernel tree is cloned.
        let meta = self.ctx.lineage.meta(rdd);
        let parents = &meta.parents;
        let was_before = self.was_computed_before(rdd, part);
        let factor = meta.op.cost_factor();

        // Arms yield `Records` so pass-through operators (`Union`, the
        // shared identity `Map`) hand the parent's payload onward in
        // whichever form it arrived, and vectorized kernels keep batches
        // columnar end to end.
        let (data, own_dur, child_dur): (Records, SimDuration, SimDuration) = match &meta.op {
            RddOp::Parallelize { data } => {
                // Source partitions encode once into a per-partition
                // columnar batch cached in the lineage; later reads share
                // the Arc instead of deep-cloning the row vector.
                let rows = &data[part as usize];
                let out = if self.ctx.columnar {
                    let encode = || self.ctx.column.encode(rows);
                    match self.ctx.lineage.source_batch(rdd, part, encode) {
                        Some(b) => Records::Col(b),
                        None => Records::Rows(Arc::new(rows.clone())),
                    }
                } else {
                    Records::Rows(Arc::new(rows.clone()))
                };
                let vb = self.ctx.cost.vbytes(out.real_bytes());
                (out, self.ctx.cost.source_time(vb), SimDuration::ZERO)
            }
            RddOp::Union => {
                let (p, pp) = self.ctx.lineage.union_source(rdd, part);
                let (pd, _, pdur) = self.materialize(p, pp)?;
                (pd, SimDuration::ZERO, pdur)
            }
            RddOp::Map { f, kernel } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                // The identity transform shares the parent's records; the
                // charged compute time depends only on the input size, so
                // the short-circuit cannot move the clock.
                let out = if crate::rdd::is_identity(f) {
                    pd
                } else if let Some(b) = self.kernel_arm(kernel, |k| k.eval_batch(pd.batch()?)) {
                    b
                } else {
                    let rows = pd.rows(self.ctx.column);
                    let mut out = Vec::with_capacity(rows.len());
                    out.extend(rows.iter().map(|v| f(v)));
                    Records::Rows(Arc::new(out))
                };
                (out, self.ctx.cost.compute_time(vb, factor), pdur)
            }
            RddOp::Filter { p, kernel } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                let batch = |k: &PredKernel| k.filter_batch(pd.batch()?).map(Arc::new);
                let out = if let Some(b) = self.kernel_arm(kernel, batch) {
                    b
                } else {
                    let rows = pd.rows(self.ctx.column);
                    let mut out = Vec::with_capacity(rows.len());
                    out.extend(rows.iter().filter(|v| p(v)).cloned());
                    Records::Rows(Arc::new(out))
                };
                (out, self.ctx.cost.compute_time(vb, factor), pdur)
            }
            RddOp::FlatMap { f, kernel } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                let rows = pd.rows(self.ctx.column);
                // The batch arm reads rows (a cogroup reduce always emits
                // them), so no output row is made and a kernel-declared
                // shuffle downstream buckets the batch with no encode.
                let batch = |k: &FlatMapKernel| k.eval_rows(&rows).map(Arc::new);
                let out = if let Some(b) = self.kernel_arm(kernel, batch) {
                    b
                } else {
                    let mut out: Vec<Value> = Vec::with_capacity(rows.len());
                    out.extend(rows.iter().flat_map(|v| f(v)));
                    Records::Rows(Arc::new(out))
                };
                (out, self.ctx.cost.compute_time(vb, factor), pdur)
            }
            RddOp::MapPartitions { f, kernel, .. } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                let out = if let Some(b) = self.kernel_arm(kernel, |k| k.eval_batch(pd.batch()?)) {
                    b
                } else {
                    Records::Rows(Arc::new(f(part, &pd.rows(self.ctx.column))))
                };
                (out, self.ctx.cost.compute_time(vb, factor), pdur)
            }
            RddOp::Sample { fraction, seed } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                let rows = pd.rows(self.ctx.column);
                let out = deterministic_sample(&rows, *fraction, *seed, rdd, part);
                (
                    Records::Rows(Arc::new(out)),
                    self.ctx.cost.compute_time(vb, factor),
                    pdur,
                )
            }
            RddOp::ShuffleAgg { shuffle } => {
                let (chunks, bytes, fdur) = self.fetch_shuffle_bucket(*shuffle, part)?;
                let vb = self.ctx.cost.vbytes(bytes + 16);
                let out = self.reduce_agg(*shuffle, &chunks);
                (out, self.ctx.cost.compute_time(vb, factor), fdur)
            }
            RddOp::ShuffleGroup { shuffle } => {
                let (chunks, bytes, fdur) = self.fetch_shuffle_bucket(*shuffle, part)?;
                let vb = self.ctx.cost.vbytes(bytes + 16);
                let out = self.reduce_group(&chunks);
                (out, self.ctx.cost.compute_time(vb, factor), fdur)
            }
            RddOp::CoGroup { shuffles } => {
                let mut fdur = SimDuration::ZERO;
                let mut total = 0u64;
                let mut sides: Vec<Vec<Records>> = Vec::with_capacity(shuffles.len());
                for s in shuffles {
                    let (chunks, bytes, d) = self.fetch_shuffle_bucket(*s, part)?;
                    fdur += d;
                    total += bytes + 16;
                    sides.push(chunks);
                }
                let vb = self.ctx.cost.vbytes(total);
                let column = self.ctx.column;
                let out = cogroup_radix(&sides, column).unwrap_or_else(|| {
                    let rows =
                        |chunks: &Vec<Records>| chunks.iter().map(|c| c.rows(column)).collect();
                    cogroup_tree(&sides.iter().map(rows).collect::<Vec<_>>())
                });
                (
                    Records::Rows(Arc::new(out)),
                    self.ctx.cost.compute_time(vb, factor),
                    fdur,
                )
            }
            RddOp::SortByKey { shuffle } => {
                let ShuffleKind::Range { ascending, .. } = self.ctx.lineage.shuffle(*shuffle).kind
                else {
                    unreachable!("sort_by_key reads a range shuffle")
                };
                let (chunks, bytes, fdur) = self.fetch_shuffle_bucket(*shuffle, part)?;
                let vb = self.ctx.cost.vbytes(bytes + 16);
                // Concatenate the buckets (decoded to rows) in the same
                // map-partition-major order the flat fetch produced, then
                // sort stably: equal keys keep fetch order, exactly as
                // before. The typed sort extracts a homogeneous key
                // column and sorts index vectors; mixed keys fall back to
                // the general comparator with identical ordering.
                let inputs: Vec<PartitionData> =
                    chunks.iter().map(|c| c.rows(self.ctx.column)).collect();
                let mut out: Vec<Value> = Vec::with_capacity(inputs.iter().map(|c| c.len()).sum());
                for c in &inputs {
                    out.extend(c.iter().cloned());
                }
                if !(self.ctx.columnar && typed_sort_by_key(&mut out, ascending)) {
                    out.sort_by(|a, b| {
                        let ka = a.key().unwrap_or(a);
                        let kb = b.key().unwrap_or(b);
                        if ascending {
                            ka.cmp(kb)
                        } else {
                            kb.cmp(ka)
                        }
                    });
                }
                (
                    Records::Rows(Arc::new(out)),
                    self.ctx.cost.compute_time(vb, factor),
                    fdur,
                )
            }
        };

        if was_before {
            self.recompute_time += own_dur;
            if self.ctx.trace_enabled {
                self.events.push(EventKind::Recomputed {
                    block: bk.to_string(),
                    depth: u64::from(self.depth - 1),
                    millis: own_dur.as_millis(),
                });
            }
        }
        let real = data.real_bytes();
        let vb = self.ctx.cost.vbytes(real);
        // Deferred: the size is recorded into the lineage when the task
        // commits, so materialization hooks observe RDDs in completion
        // order (ancestors before descendants within one task chain).
        self.touched.push((rdd, part, real));
        if self.ctx.lineage.is_persisted(rdd) {
            self.effects.push(CacheEffect::Insert(bk, data.clone(), vb));
            self.local.insert(bk, (data.clone(), vb));
        }
        Ok((data, vb, own_dur + child_dur))
    }

    /// The batch arm of an op that carries a kernel: runs `batch` when
    /// columnar execution is on and the op declared `kernel`, and counts
    /// which arm the op took. `batch` yields `None` when the input does
    /// not fit the kernel's typed evaluator; `None` → the op's own row
    /// closure.
    fn kernel_arm<K>(
        &self,
        kernel: &Option<K>,
        batch: impl FnOnce(&K) -> Option<Arc<ColumnBatch>>,
    ) -> Option<Records> {
        let kernel = kernel.as_ref().filter(|_| self.ctx.columnar)?;
        let out = batch(kernel);
        self.ctx.column.kernel_ran(out.is_some());
        out.map(Records::Col)
    }

    /// Reduce side of `ShuffleAgg`: typed columnar aggregation when the
    /// shuffle's combine declares a kernel and every fetched bucket
    /// arrived as a key/payload batch, else [`fold_by_key`] over decoded
    /// rows. Both produce the same sorted pair sequence and the same
    /// bytes.
    fn reduce_agg(&self, shuffle: ShuffleId, chunks: &[Records]) -> Records {
        let combine = self.ctx.lineage.shuffle(shuffle).combine.as_ref();
        let combine = combine.expect("reduce_by_key reads a combining shuffle");
        if let Some(kernel) = combine.kernel.as_ref().filter(|_| self.ctx.columnar) {
            let typed = pair_chunks(chunks).and_then(|typed| typed_agg(kernel, &typed));
            self.ctx.column.kernel_ran(typed.is_some());
            if let Some(batch) = typed {
                return Records::Col(Arc::new(batch));
            }
        }
        let rows: Vec<PartitionData> = chunks.iter().map(|c| c.rows(self.ctx.column)).collect();
        let records = rows.iter().flat_map(|c| c.iter());
        Records::Rows(Arc::new(fold_by_key(records, &combine.f, false)))
    }

    /// Reduce side of `ShuffleGroup`: groups the decoded rows of every
    /// bucket by key in a `BTreeMap`, so a batch bucket counts one
    /// decode per record.
    fn reduce_group(&self, chunks: &[Records]) -> Records {
        let rows: Vec<PartitionData> = chunks.iter().map(|c| c.rows(self.ctx.column)).collect();
        let mut groups: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
        for v in rows.iter().flat_map(|c| c.iter()) {
            if let Value::Pair(p) = v {
                groups
                    .entry(p.key().clone())
                    .or_default()
                    .push(p.val().clone());
            }
        }
        let mut out: Vec<Value> = Vec::with_capacity(groups.len());
        out.extend(
            groups
                .into_iter()
                .map(|(k, vs)| Value::pair(k, Value::list(vs))),
        );
        Records::Rows(Arc::new(out))
    }

    /// Fetches the reduce-side bucket `part` of `shuffle` from every map
    /// output block, charging disk/durable time directly and recording
    /// network transfers for pricing at admission. Returns one shared
    /// chunk per map block (map-partition order), the records' summed
    /// payload bytes (without the 16-byte partition overhead), and the
    /// worker-independent duration.
    ///
    /// Bucketed map blocks (hash shuffles) serve the request as an O(1)
    /// shared handle — zero record copies — in whichever form the map
    /// side produced (row bucket or contiguous columnar slice);
    /// un-bucketed ones (range shuffles) take the partition-assignment
    /// scan. Both yield the same records in the same order — buckets
    /// preserve production order, and flattening the chunks in order
    /// reproduces a concatenated fetch exactly.
    fn fetch_shuffle_bucket(
        &mut self,
        shuffle: ShuffleId,
        part: u32,
    ) -> std::result::Result<(Vec<Records>, u64, SimDuration), MissingShuffle> {
        let lineage = self.ctx.lineage;
        let info = lineage.shuffle(shuffle);
        let m = lineage.meta(info.parent).num_partitions;

        // Resolve the partitioner (range bounds are sampled at the
        // barrier and cached for deterministic recomputation).
        let partitioner: Box<dyn Partitioner> = match info.kind {
            ShuffleKind::Hash { parts } => Box::new(HashPartitioner::new(parts)),
            ShuffleKind::Range { parts, ascending } => {
                let cached = self
                    .ctx
                    .range_cache
                    .get(&shuffle)
                    .or_else(|| {
                        self.resolved
                            .iter()
                            .find(|(s, _)| *s == shuffle)
                            .map(|(_, rp)| rp)
                    })
                    .cloned();
                let rp = match cached {
                    Some(rp) => rp,
                    None => {
                        let rp = self.resolve_range_partitioner(shuffle, m, parts, ascending)?;
                        self.resolved.push((shuffle, rp.clone()));
                        rp
                    }
                };
                Box::new(rp)
            }
        };

        let mut out: Vec<Records> = Vec::with_capacity(m as usize);
        // At most one cache touch and one network fetch per map block.
        self.effects.reserve(m as usize);
        self.net.reserve(m as usize);
        let mut payload = 0u64;
        let mut dur = SimDuration::ZERO;
        for mp in 0..m {
            let (block, source, from_disk, from_store) = self.read_shuffle_block(shuffle, mp)?;
            let bucket_bytes = match &block {
                BlockData::Bucketed(bb) => {
                    out.extend(bb.bucket(part).cloned());
                    bb.bucket_bytes(part)
                }
                BlockData::Part(records) => {
                    let rows = records.rows(self.ctx.column);
                    let (sel, bytes) = scan_flat_bucket(&rows, partitioner.as_ref(), part);
                    out.push(Records::Rows(Arc::new(sel)));
                    bytes
                }
            };
            payload += bucket_bytes;
            let vb = self.ctx.cost.vbytes(bucket_bytes);
            if from_store {
                dur += self.ctx.ckpt.config().read_time(vb, 1);
            } else {
                if from_disk {
                    dur += self.ctx.cost.disk_time(vb);
                }
                if let Some(wid) = source {
                    self.net.push(NetFetch {
                        source: wid,
                        vbytes: vb,
                    });
                }
            }
        }
        Ok((out, payload, dur))
    }

    /// Reads one shuffle map block: `(data, holding worker, from_disk,
    /// from_store)`. The worker is `None` for durable-store reads.
    #[allow(clippy::type_complexity)]
    fn read_shuffle_block(
        &mut self,
        shuffle: ShuffleId,
        mp: u32,
    ) -> std::result::Result<(BlockData, Option<WorkerId>, bool, bool), MissingShuffle> {
        let bk = BlockKey::ShuffleMap {
            shuffle,
            map_part: mp,
        };
        if let Some((wid, data, loc, _)) = self.ctx.cluster.peek_fetch(&bk) {
            self.effects.push(CacheEffect::Touch(wid, bk));
            return Ok((data, Some(wid), loc == BlockLocation::Disk, false));
        }
        // A corrupt or outage-blocked shuffle checkpoint counts as
        // missing: the driver replans and recomputes the map task
        // rather than serving bad bytes.
        if self.ctx.ckpt.readable(&bk, self.ctx.now) {
            if let Some(data) = self.ctx.ckpt.block(&bk) {
                return Ok((data.clone(), None, false, true));
            }
        }
        Err(MissingShuffle)
    }

    fn resolve_range_partitioner(
        &mut self,
        shuffle: ShuffleId,
        map_parts: u32,
        parts: u32,
        ascending: bool,
    ) -> std::result::Result<RangePartitioner, MissingShuffle> {
        let mut sample = Vec::new();
        for mp in 0..map_parts {
            let (block, _, _, _) = self.read_shuffle_block(shuffle, mp)?;
            // Sampling raw production order keeps the resolved bounds
            // byte-identical to the pre-bucketing engine.
            let block = block
                .part()
                .expect("range shuffle map blocks are never bucketed")
                .rows(self.ctx.column);
            // Cap the per-block sample to keep planning cheap.
            let stride = (block.len() / 256).max(1);
            for v in block.iter().step_by(stride) {
                sample.push(v.key().unwrap_or(v).clone());
            }
        }
        Ok(RangePartitioner::from_sample(sample, parts, ascending))
    }
}

/// Folds the pairs of `rows` by key with `f`, in arrival order, and
/// returns them in key order. The map side of a combining shuffle keeps
/// the non-pair records after them, in arrival order (`keep_non_pairs`);
/// the reduce side drops them.
fn fold_by_key<'a>(
    rows: impl IntoIterator<Item = &'a Value>,
    f: &AggFn,
    keep_non_pairs: bool,
) -> Vec<Value> {
    let mut agg: BTreeMap<Value, Value> = BTreeMap::new();
    let mut non_pairs: Vec<Value> = Vec::new();
    for v in rows {
        match v {
            Value::Pair(p) => match agg.get_mut(p.key()) {
                Some(acc) => *acc = f(acc, p.val()),
                None => {
                    agg.insert(p.key().clone(), p.val().clone());
                }
            },
            other if keep_non_pairs => non_pairs.push(other.clone()),
            _ => {}
        }
    }
    let mut out: Vec<Value> = Vec::with_capacity(agg.len() + non_pairs.len());
    out.extend(agg.into_iter().map(|(k, v)| Value::pair(k, v)));
    out.extend(non_pairs);
    out
}

/// `CoGroup`'s reduce: one `(k, [side 0 values, side 1 values, …])` pair
/// per distinct pair key across `sides`, keys ascending, each side's
/// values in arrival order; records that are not pairs are skipped.
fn cogroup_tree(sides: &[Vec<PartitionData>]) -> Vec<Value> {
    let mut groups: BTreeMap<Value, Vec<Vec<Value>>> = BTreeMap::new();
    for (i, chunks) in sides.iter().enumerate() {
        for v in chunks.iter().flat_map(|c| c.iter()) {
            if let Value::Pair(p) = v {
                groups
                    .entry(p.key().clone())
                    .or_insert_with(|| vec![Vec::new(); sides.len()])[i]
                    .push(p.val().clone());
            }
        }
    }
    groups
        .into_iter()
        .map(|(k, gs)| cogroup_pair(k, gs))
        .collect()
}

/// One output record of `CoGroup`: the key and one list per side.
fn cogroup_pair(k: Value, sides: Vec<Vec<Value>>) -> Value {
    Value::pair(k, Value::list(sides.into_iter().map(Value::list).collect()))
}

/// Where a [`cogroup_radix`] record's value lives: a pair row, or a row
/// of a `ColumnBatch::Pair`'s payload batch.
#[derive(Clone, Copy)]
enum CoChunk<'a> {
    Rows(&'a [Value]),
    Col(&'a ColumnBatch),
}

/// [`cogroup_tree`]'s output over fetched chunks in either form, grouped
/// by one stable radix sort instead of a map. Pairs of a row chunk and
/// rows of a `ColumnBatch::Pair` chunk keyed by an `Int` column are
/// collected as `(key, chunk, row)` in the order the tree visits records
/// (side-major, then chunk, then row), sorted by the key's `u64` image,
/// and each run of equal keys becomes one output pair whose per-side
/// lists are sized exactly. A batch's values are read one at a time
/// (`value_at`, counted in `ColumnStats::decodes`); its keys never leave
/// the column. Non-pair rows and empty chunks contribute nothing. `None`
/// as soon as a pair key is not an `Int` or a non-empty batch has another
/// layout: `Value`'s order equates `Int(3)` with `Float(3.0)`, which no
/// per-type image can, so any other key takes the tree over decoded rows.
fn cogroup_radix(sides: &[Vec<Records>], column: &ColumnCounters) -> Option<Vec<Value>> {
    let mut chunks: Vec<(usize, CoChunk<'_>)> = Vec::new();
    let mut recs: Vec<(i64, u32, u32)> =
        Vec::with_capacity(sides.iter().flatten().map(Records::len).sum());
    let mut batch_rows = 0u64;
    for (side, chunk) in sides
        .iter()
        .enumerate()
        .flat_map(|(s, cs)| cs.iter().map(move |c| (s, c)))
    {
        let c = chunks.len() as u32;
        match chunk {
            Records::Rows(rows) => {
                for (i, v) in rows.iter().enumerate() {
                    if let Value::Pair(p) = v {
                        let Value::Int(k) = p.key() else {
                            return None;
                        };
                        recs.push((*k, c, i as u32));
                    }
                }
                chunks.push((side, CoChunk::Rows(rows)));
            }
            Records::Col(_) if chunk.is_empty() => {}
            Records::Col(batch) => {
                let ColumnBatch::Pair {
                    key: Column::Int(keys),
                    val,
                } = batch.as_ref()
                else {
                    return None;
                };
                recs.extend(keys.iter().enumerate().map(|(i, k)| (*k, c, i as u32)));
                batch_rows += keys.len() as u64;
                chunks.push((side, CoChunk::Col(val)));
            }
        }
    }
    radix_sort(&mut recs, |r| radix_key_i64(r.0));
    let side_of = |r: &(i64, u32, u32)| chunks[r.1 as usize].0;
    let mut out = Vec::new();
    for run in recs.chunk_by(|a, b| a.0 == b.0) {
        // The sort is stable and `recs` was collected side-major, so each
        // side's values are one contiguous sub-run, in side order.
        let mut lists: Vec<Value> = Vec::with_capacity(sides.len());
        for sub in run.chunk_by(|a, b| side_of(a) == side_of(b)) {
            while lists.len() < side_of(&sub[0]) {
                lists.push(Value::list(Vec::new()));
            }
            let mut vals = Vec::with_capacity(sub.len());
            vals.extend(sub.iter().map(|&(_, c, i)| match chunks[c as usize].1 {
                CoChunk::Rows(rows) => rows[i as usize].val().expect("a pair").clone(),
                CoChunk::Col(val) => val.value_at(i as usize),
            }));
            lists.push(Value::list(vals));
        }
        lists.resize_with(sides.len(), || Value::list(Vec::new()));
        out.push(Value::pair(Value::Int(run[0].0), Value::list(lists)));
    }
    column.decoded(batch_rows);
    Some(out)
}

/// The typed key/payload views of a fetched bucket set, if every chunk
/// is a columnar batch in pair layout. Any row chunk that holds a record
/// or scalar-encoded pair batch disqualifies the set: the typed reduce
/// kernels key on the dedicated key column, which only the pair layout
/// guarantees matches the row path's `v.key()` routing. Empty row chunks
/// (a map task that emitted nothing had no batch to bucket) contribute no
/// record to either path and are skipped.
fn pair_chunks(chunks: &[Records]) -> Option<Vec<(&Column, &ColumnBatch)>> {
    chunks
        .iter()
        .filter(|c| !matches!(c, Records::Rows(rows) if rows.is_empty()))
        .map(|c| match c.batch()?.as_ref() {
            ColumnBatch::Pair { key, val } => Some((key, val.as_ref())),
            ColumnBatch::Scalar(_) | ColumnBatch::Rows(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The radix `CoGroup` builds exactly what the `BTreeMap` arm
        /// (`cogroup_tree`) builds over the decoded rows, whichever form
        /// each fetched chunk arrives in: 1–3 sides, each chunk handed
        /// over as rows or as its `ColumnBatch::from_rows` encoding (an
        /// empty one as an empty batch of a foreign layout). Chunks are
        /// `Int`-keyed pairs with scalar, string or list payloads, keys
        /// repeated within and across sides, negative and extreme; or
        /// mixed rows with non-pair records; or `Float`-keyed (equal to
        /// `Int` keys), `Str`-keyed or scalar-layout chunks. A row chunk
        /// with a non-`Int` pair key, or a non-empty batch that is not an
        /// `Int`-keyed pair batch, sends the reduce to the tree; otherwise
        /// the radix path counts one decode per batch row.
        #[test]
        fn typed_cogroup_is_the_tree(
            sides in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0usize..16,
                        any::<bool>(),
                        proptest::collection::vec((0usize..10, -50i64..50), 0..12),
                    ),
                    0..4,
                ),
                1..4,
            ),
        ) {
            const KEYS: [i64; 6] = [i64::MIN, -3, -1, 0, 2, i64::MAX];
            let record = |shape: usize, pick: usize, v: i64| {
                let k = KEYS.get(pick).copied().unwrap_or(v);
                match shape {
                    0..=3 => Value::pair(Value::Int(k), Value::Int(v)),
                    4..=6 => Value::pair(
                        Value::Int(k),
                        Value::list(vec![Value::Int(v), Value::Float(v as f64)]),
                    ),
                    7 | 8 => Value::pair(Value::Int(k), Value::from_str_(&v.to_string())),
                    9 => Value::pair(Value::Float(k as f64), Value::Int(v)),
                    10 => Value::pair(Value::from_str_(&k.to_string()), Value::Int(v)),
                    11 => Value::Int(v),
                    _ => match pick % 3 {
                        0 => Value::pair(Value::Int(k), Value::Float(v as f64)),
                        1 => Value::Int(v),
                        _ => Value::from_str_("not a pair"),
                    },
                }
            };
            let chunk = |&(shape, encode, ref recs): &(usize, bool, Vec<(usize, i64)>)| {
                let rows: Vec<Value> = recs.iter().map(|&(p, v)| record(shape, p, v)).collect();
                match (encode, ColumnBatch::from_rows(&rows)) {
                    (true, Some(batch)) => Records::Col(Arc::new(batch)),
                    (true, None) if rows.is_empty() => {
                        Records::Col(Arc::new(ColumnBatch::Scalar(Column::Str(Vec::new()))))
                    }
                    _ => Records::Rows(Arc::new(rows)),
                }
            };
            let sides: Vec<Vec<Records>> =
                sides.iter().map(|cs| cs.iter().map(chunk).collect()).collect();
            let radix_ready = sides.iter().flatten().all(|c| match c {
                Records::Rows(rows) => rows.iter().all(|v| matches!(v.key(), None | Some(Value::Int(_)))),
                Records::Col(b) => {
                    b.is_empty() || matches!(b.as_ref(), ColumnBatch::Pair { key: Column::Int(_), .. })
                }
            });
            let batch_rows: usize = sides.iter().flatten().filter_map(Records::batch).map(|b| b.len()).sum();

            let rows: Vec<Vec<PartitionData>> = sides
                .iter()
                .map(|cs| cs.iter().map(Records::to_rows).collect())
                .collect();
            let tree = cogroup_tree(&rows);
            let column = ColumnCounters::default();
            let radix = cogroup_radix(&sides, &column);
            prop_assert_eq!(radix.is_some(), radix_ready);
            if let Some(got) = radix {
                prop_assert_eq!(format!("{got:?}"), format!("{tree:?}"));
                prop_assert_eq!(column.snapshot().decodes, batch_rows as u64);
            }
        }
    }
}
