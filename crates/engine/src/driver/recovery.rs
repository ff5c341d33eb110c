//! Recovery: delivering failure-injector events, discarding the work a
//! revoked worker held, quarantining flapping instances, reporting
//! unreadable checkpoints with their fallback, and gathering an action's
//! result past lost blocks and store outages.

use std::collections::{HashMap, HashSet, VecDeque};

use flint_simtime::{SimDuration, SimTime};
use flint_trace::{EventKind, TraceHandle};

use super::{Driver, Goal, Running, TaskKey};
use crate::block::{BlockKey, Records};
use crate::checkpoint::ReadFault;
use crate::cluster::WorkerId;
use crate::error::{EngineError, Result};
use crate::injector::WorkerEvent;
use crate::rdd::RddId;

/// Revocations of one external id within [`FLAP_WINDOW`] that mark it as
/// flapping and quarantine it: its further joins are ignored.
const FLAP_THRESHOLD: usize = 3;

/// Sliding window over which repeated revocations of one external id
/// count as flapping.
const FLAP_WINDOW: SimDuration = SimDuration::from_secs(600);

/// Gather passes per action: the first, plus up to two job re-runs when
/// a result block vanished between job completion and gather (a
/// same-instant revocation). A failed last pass returns
/// [`EngineError::RetryBudgetExhausted`].
const GATHER_PASSES: u64 = 3;

/// Flap detection: a worker revoked [`FLAP_THRESHOLD`] times within
/// [`FLAP_WINDOW`] is quarantined — its future joins are ignored, so
/// replacement capacity comes from stable instances instead.
#[derive(Debug, Default)]
pub(super) struct FlapGuard {
    /// Recent revocation instants per external id.
    remove_times: HashMap<u64, VecDeque<SimTime>>,
    /// External ids quarantined for flapping: their joins are ignored.
    quarantined: HashSet<u64>,
}

impl FlapGuard {
    /// Records a revocation of `ext_id` at `t`, quarantining it when it
    /// makes the id flap.
    fn note_remove(&mut self, ext_id: u64, t: SimTime, trace: &TraceHandle) {
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
            trace.emit_with(t, || EventKind::WorkerQuarantined {
                ext: ext_id,
                removes,
            });
        }
    }
}

impl Driver {
    /// Delivers all failure-injector events up to the current instant,
    /// interleaving any planted-fault notes (chaos campaigns) into the
    /// trace by time so the stream stays chronologically ordered.
    pub(super) fn pump_injector(&mut self) {
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
                    if self.flaps.quarantined.contains(&ext_id) {
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
                }
                WorkerEvent::Remove { ext_id } => {
                    if let Some(wid) = self.cluster.remove_by_ext(ext_id) {
                        self.stats.revocations += 1;
                        self.trace
                            .emit_with(t, || EventKind::WorkerRevoked { ext: ext_id });
                        self.invalidate_worker(wid);
                        self.flaps.note_remove(ext_id, t, &self.trace);
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

    /// Discards in-flight tasks on a dead worker; checkpoint jobs are
    /// requeued, compute tasks are replanned naturally.
    fn invalidate_worker(&mut self, wid: WorkerId) {
        let (lost, kept): (Vec<Running>, Vec<Running>) = std::mem::take(&mut self.running)
            .into_iter()
            .partition(|r| r.worker == wid);
        self.running = kept;
        for r in lost {
            self.in_flight.remove(&r.key);
            if let TaskKey::Ckpt(block) = r.key {
                self.ckpt_queue.push(block);
            }
        }
    }

    /// Emits the detection/fallback event pair for shuffle checkpoints
    /// the planner just declared unreadable (corrupt or mid-outage):
    /// the scheduled `ShuffleMap` recompute in `ready` is their
    /// fallback. RDD-part fallbacks are reported by the executor at the
    /// restore site; this covers the shuffle side, where "fallback"
    /// means the planner re-runs the map task instead. Deduplicated per
    /// block so replanning iterations do not repeat the pair.
    pub(super) fn report_unreadable_shuffles(&mut self, ready: &[TaskKey]) {
        let now = self.clock.now();
        for key in ready {
            let TaskKey::ShuffleMap { shuffle, map_part } = *key else {
                continue;
            };
            let block = BlockKey::ShuffleMap { shuffle, map_part };
            if !self.ckpt.has(&block) {
                continue;
            }
            let Some(fault) = self.ckpt.read_fault(&block, now) else {
                continue;
            };
            self.report_fallback(block, fault, now);
        }
    }

    /// Emits the detection/fallback event pair for an unreadable
    /// checkpoint of `block`, once per block.
    pub(super) fn report_fallback(&mut self, block: BlockKey, fault: ReadFault, now: SimTime) {
        if !self.corrupt_reported.insert(block) {
            return;
        }
        if self.trace.is_enabled() {
            for ev in fault.fallback_events(&block) {
                self.trace.emit(now, ev);
            }
        }
    }

    /// Waits (in virtual time) until a *present* checkpoint of `block`
    /// is restorable. Transient outages are retried with capped
    /// exponential backoff; a corrupt object returns `Ok(false)`
    /// (with the detection/fallback event pair) so the caller falls
    /// back to cluster state or recomputation — corrupt bytes are never
    /// served. Exhausting the retry budget returns
    /// [`EngineError::StoreUnavailable`].
    fn await_store_readable(&mut self, block: BlockKey) -> Result<bool> {
        let mut attempt = 0u64;
        loop {
            match self.ckpt.read_fault(&block, self.clock.now()) {
                None => return Ok(true),
                Some(ReadFault::Corrupt) => {
                    let now = self.clock.now();
                    self.report_fallback(block, ReadFault::Corrupt, now);
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
    pub(super) fn gather(&mut self, target: RddId) -> Result<Vec<Records>> {
        for pass in 0..GATHER_PASSES {
            if pass > 0 {
                self.run_until(Goal::Materialize(target))?;
            }
            let n = self.ctx.lineage().meta(target).num_partitions;
            let mut parts = Vec::with_capacity(n as usize);
            let mut total_vb = 0u64;
            let mut ok = true;
            for p in 0..n {
                let block = BlockKey::RddPart {
                    rdd: target,
                    part: p,
                };
                if self.ckpt.has(&block) && self.await_store_readable(block)? {
                    let d = self.ckpt.get(target, p).expect("bitmap agrees").clone();
                    total_vb += self.ckpt.size_of(target, p).unwrap_or(0);
                    self.stats.restores += 1;
                    // Gather reads count as restores but charge no restore
                    // time (the transfer is priced below), hence millis: 0.
                    self.trace
                        .emit_with(self.clock.now(), || EventKind::Restored {
                            block: block.to_string(),
                            millis: 0,
                        });
                    parts.push(d);
                } else if let Some((_, d, _, vb)) = self.cluster.fetch(&block) {
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
}
