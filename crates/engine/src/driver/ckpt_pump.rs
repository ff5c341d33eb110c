//! The checkpoint pump: the queue of pending durable writes, the policy
//! hooks that fill it, and the commits that land them in the store.

use std::collections::{BTreeSet, HashSet, VecDeque};

use flint_simtime::SimTime;
use flint_trace::{EventKind, TraceHandle};

use super::{Driver, Running, TaskKey};
use crate::block::BlockKey;
use crate::checkpoint::WriteFault;
use crate::hooks::{CheckpointDirective, CheckpointHooks, LineageView};
use crate::rdd::RddId;

/// Pending checkpoint writes: FIFO, each block at most once, plus the
/// RDDs a `Checkpoint` directive has already marked.
#[derive(Debug, Default)]
pub(super) struct CkptQueue {
    jobs: VecDeque<BlockKey>,
    queued: BTreeSet<BlockKey>,
    marked: HashSet<RddId>,
}

impl CkptQueue {
    /// Queues a checkpoint write unless it is already queued; returns
    /// whether it was added.
    pub(super) fn push(&mut self, key: BlockKey) -> bool {
        let added = self.queued.insert(key);
        if added {
            self.jobs.push_back(key);
        }
        added
    }

    /// Empties the queue, returning its blocks in queue order.
    fn take(&mut self) -> VecDeque<BlockKey> {
        self.queued.clear();
        std::mem::take(&mut self.jobs)
    }

    /// Marks `rdd` for checkpointing; `false` if it already was.
    fn mark(&mut self, rdd: RddId) -> bool {
        self.marked.insert(rdd)
    }
}

impl Driver {
    /// Number of queued (not yet written) checkpoint partitions.
    pub(super) fn pending_checkpoints(&self) -> usize {
        self.ckpt_queue.jobs.len()
            + self
                .running
                .iter()
                .filter(|r| matches!(r.key, TaskKey::Ckpt(_)))
                .count()
    }

    /// True when a checkpoint write of `key` needs no work: it is
    /// already in flight or the block is already durable.
    fn ckpt_satisfied(&self, key: BlockKey) -> bool {
        self.in_flight.contains(&TaskKey::Ckpt(key)) || self.ckpt.has(&key)
    }

    /// Runs every queued checkpoint write as one wave (see
    /// [`Driver::run_wave`]); admission stays in queue order. A write no
    /// worker could host is requeued; one whose payload vanished (dead
    /// shuffle block, missing shuffle input) is dropped, as its partition
    /// is replanned or moot.
    pub(super) fn assign_checkpoint_jobs(&mut self) {
        if self.ckpt_queue.jobs.is_empty() || self.cluster.alive_count() == 0 {
            return; // keep the queue intact until workers exist
        }
        let todo: Vec<TaskKey> = self
            .ckpt_queue
            .take()
            .into_iter()
            .filter(|&key| !self.ckpt_satisfied(key))
            .map(TaskKey::Ckpt)
            .collect();
        for key in self.run_wave(&todo) {
            if let TaskKey::Ckpt(block) = key {
                self.ckpt_queue.push(block);
            }
        }
    }

    /// Commits a checkpoint write to the durable store. Partition sizes
    /// are recorded, but no materialization hook fires: the write
    /// produced no new partition.
    pub(super) fn commit_checkpoint(&mut self, block: BlockKey, r: Running, now: SimTime) {
        for (rdd, part, bytes) in r.touched {
            self.ctx
                .lineage_mut()
                .record_partition_size(rdd, part, bytes);
        }
        let fault = match block {
            BlockKey::RddPart { rdd, part } => {
                let n = self.ctx.lineage().meta(rdd).num_partitions;
                self.ckpt.put(rdd, part, n, r.data, r.vbytes, now)
            }
            BlockKey::ShuffleMap { shuffle, map_part } => self
                .ckpt
                .put_shuffle(shuffle, map_part, r.data, r.vbytes, now),
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
        if let BlockKey::RddPart { rdd, .. } = block {
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
    pub(super) fn note_write_fault(
        &self,
        fault: WriteFault,
        kinds: [&str; 2],
        block: BlockKey,
        now: SimTime,
    ) {
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

    /// The read-only view the policy hooks decide on, beside the hooks
    /// themselves and the trace they narrate into.
    fn policy(&mut self) -> (LineageView<'_>, &mut dyn CheckpointHooks, &mut TraceHandle) {
        let view = LineageView {
            lineage: self.ctx.lineage(),
            checkpoints: &self.ckpt,
            alive_workers: self.cluster.alive_count(),
            cost: &self.config.cost,
        };
        (view, self.hooks.as_mut(), &mut self.trace)
    }

    /// Fires the materialization hook for `rdd` the first time it becomes
    /// fully materialized.
    pub(super) fn fire_materialized(&mut self, rdd: RddId, now: SimTime) {
        if self.fired_materialized.contains(&rdd) || !self.ctx.lineage().is_fully_materialized(rdd)
        {
            return;
        }
        self.fired_materialized.insert(rdd);
        let (view, hooks, trace) = self.policy();
        let directives = hooks.on_rdd_materialized(&view, trace, rdd, now);
        self.apply_directives(directives);
    }

    pub(super) fn poll_hooks(&mut self) {
        let now = self.clock.now();
        let (view, hooks, trace) = self.policy();
        let directives = hooks.poll(&view, trace, now);
        self.apply_directives(directives);
    }

    pub(super) fn apply_directives(&mut self, directives: Vec<CheckpointDirective>) {
        for d in directives {
            match d {
                CheckpointDirective::Checkpoint(rdd) => {
                    if !self.ctx.lineage().contains(rdd) {
                        continue;
                    }
                    if !self.ckpt_queue.mark(rdd) {
                        continue;
                    }
                    let n = self.ctx.lineage().meta(rdd).num_partitions;
                    let mut enqueued = 0u64;
                    for part in 0..n {
                        let key = BlockKey::RddPart { rdd, part };
                        if !self.ckpt_satisfied(key) && self.ckpt_queue.push(key) {
                            enqueued += 1;
                        }
                    }
                    if self.trace.is_enabled() {
                        let now = self.clock.now();
                        let (view, _, trace) = self.policy();
                        let delta_ms = view.checkpoint_delta(rdd).as_millis();
                        trace.emit(
                            now,
                            EventKind::CheckpointScheduled {
                                rdd: u64::from(rdd.0),
                                parts: enqueued,
                                delta_ms,
                            },
                        );
                    }
                }
                CheckpointDirective::CheckpointAllCached => {
                    for (_, key, _) in self.cluster.snapshot().blocks {
                        if !self.ckpt_satisfied(key) {
                            self.ckpt_queue.push(key);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Goal;
    use crate::{DriverConfig, NoCheckpoint, NoFailures, Value, WorkerSpec};

    /// Neither directive queues a block whose write is already in
    /// flight: with two of a persisted RDD's four parts being written,
    /// `CheckpointAllCached` and `Checkpoint(rdd)` each queue only the
    /// other two, and `CheckpointScheduled` counts those two. The drain
    /// then writes each part once.
    #[test]
    fn directives_skip_writes_in_flight() {
        let mut d = Driver::new(
            DriverConfig::default(),
            Box::new(NoCheckpoint),
            Box::new(NoFailures),
        );
        d.add_worker_with_ext(1, WorkerSpec::r3_large());
        d.add_worker_with_ext(2, WorkerSpec::r3_large());
        let src = d.ctx().parallelize((0..20_000).map(Value::from_i64), 4);
        let mapped = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() ^ 5));
        let persisted = d.ctx().persist(mapped);
        d.count(persisted).unwrap();
        let rdd = persisted.id();
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        d.set_trace(trace);
        let part = |part| BlockKey::RddPart { rdd, part };

        d.ckpt_queue.push(part(0));
        d.ckpt_queue.push(part(1));
        d.assign_checkpoint_jobs();
        assert!(d.ckpt_queue.jobs.is_empty());
        assert_eq!(d.running.len(), 2, "parts 0 and 1 are in flight");

        d.apply_directives(vec![CheckpointDirective::CheckpointAllCached]);
        assert_eq!(d.ckpt_queue.take(), [part(2), part(3)]);

        d.apply_directives(vec![CheckpointDirective::Checkpoint(rdd)]);
        assert_eq!(Vec::from(d.ckpt_queue.jobs.clone()), [part(2), part(3)]);
        let scheduled: Vec<u64> = reader
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::CheckpointScheduled { parts, .. } => Some(parts),
                _ => None,
            })
            .collect();
        assert_eq!(scheduled, [2]);

        d.run_until(Goal::Drain).unwrap();
        assert!((0..4).all(|p| d.ckpt.has(&part(p))));
        assert_eq!(d.stats().checkpoints_written, 4);
    }
}
