//! Policy hooks: how checkpointing decisions are injected into the driver.
//!
//! The engine provides the checkpoint *mechanism* (durable partition
//! writes, restore-on-miss, garbage collection); *policy* — what to
//! checkpoint and when — is supplied by an implementation of
//! [`CheckpointHooks`]. Flint's fault-tolerance manager (in `flint-core`)
//! implements the paper's frontier policy with the adaptive interval
//! `τ = √(2·δ·MTTF)`; baselines implement no-op or whole-memory variants.

use flint_simtime::{SimDuration, SimTime};
use flint_trace::EventSink;

use crate::{CheckpointStore, CostModel, Lineage, RddId};

/// Read-only context handed to policy hooks.
pub struct LineageView<'a> {
    /// The lineage graph.
    pub lineage: &'a Lineage,
    /// Current durable checkpoints.
    pub checkpoints: &'a CheckpointStore,
    /// Number of alive workers (write parallelism for δ estimation).
    pub alive_workers: usize,
    /// The cost model (for virtual sizing).
    pub cost: &'a CostModel,
}

impl LineageView<'_> {
    /// Estimated virtual size of `rdd` from recorded partition sizes.
    pub fn rdd_vbytes(&self, rdd: RddId) -> u64 {
        self.cost.vbytes(self.lineage.known_size(rdd))
    }

    /// Estimated time δ to checkpoint `rdd` with the cluster's current
    /// write parallelism.
    pub(crate) fn checkpoint_delta(&self, rdd: RddId) -> SimDuration {
        self.checkpoints
            .config()
            .write_time(self.rdd_vbytes(rdd), self.alive_workers.max(1) as u32)
    }

    /// Estimated time δ to checkpoint the *collective* execution frontier
    /// (§3.1.2: δ is based on "the collective size of the RDDs at the
    /// frontier of the lineage chain").
    pub fn frontier_delta(&self) -> SimDuration {
        let bytes: u64 = self
            .lineage
            .execution_frontier()
            .iter()
            .map(|r| self.rdd_vbytes(*r))
            .sum();
        self.checkpoints
            .config()
            .write_time(bytes, self.alive_workers.max(1) as u32)
    }
}

/// A policy decision returned from a hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointDirective {
    /// Durably write every partition of this RDD.
    Checkpoint(RddId),
    /// Durably write every cached block on every worker (the
    /// systems-level baseline of Fig. 6b).
    CheckpointAllCached,
}

/// Checkpointing policy callbacks, invoked by the driver.
///
/// All methods have no-op defaults so trivial policies stay trivial.
/// Decision-point hooks also receive the run's [`EventSink`], so a policy
/// can narrate *why* it decided (e.g. τ re-estimation) into the same
/// ordered stream the engine's lifecycle events land in.
pub trait CheckpointHooks {
    /// Called when every partition of `rdd` has been materialized for the
    /// first time. This is the paper's "new RDD generated at the frontier"
    /// moment: returning a directive here implements mark-on-generation.
    fn on_rdd_materialized(
        &mut self,
        _view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        _rdd: RddId,
        _now: SimTime,
    ) -> Vec<CheckpointDirective> {
        Vec::new()
    }

    /// Called on every scheduler event-loop step outside a checkpoint
    /// drain; lets timer-based policies (e.g. periodic whole-memory
    /// checkpoints) fire without a materialization event.
    fn poll(
        &mut self,
        _view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        _now: SimTime,
    ) -> Vec<CheckpointDirective> {
        Vec::new()
    }
}

/// The null policy: never checkpoints (the paper's "Recomputation"
/// baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCheckpoint;

impl CheckpointHooks for NoCheckpoint {}

/// The eager policy: checkpoints every RDD the moment it materializes.
/// Chaos campaigns use it to push the most traffic through a degraded
/// store, so torn writes, lost writes and outage-window reads all get
/// exercised.
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckpointEveryRdd;

impl CheckpointHooks for CheckpointEveryRdd {
    fn on_rdd_materialized(
        &mut self,
        _view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        rdd: RddId,
        _now: SimTime,
    ) -> Vec<CheckpointDirective> {
        vec![CheckpointDirective::Checkpoint(rdd)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdd::RddOp;
    use flint_store::StorageConfig;
    use std::sync::Arc;

    #[test]
    fn view_estimates_delta_from_sizes() {
        let mut lineage = Lineage::new();
        let a = lineage.add_rdd(
            "src",
            RddOp::Parallelize {
                data: Arc::new(vec![vec![], vec![]]),
            },
            vec![],
            2,
        );
        lineage.record_partition_size(a, 0, 50 << 20);
        lineage.record_partition_size(a, 1, 50 << 20);
        let ckpt = CheckpointStore::new(StorageConfig::default());
        let cost = CostModel::default();
        let view = LineageView {
            lineage: &lineage,
            checkpoints: &ckpt,
            alive_workers: 10,
            cost: &cost,
        };
        assert_eq!(view.rdd_vbytes(a), 100 << 20);
        let d10 = view.checkpoint_delta(a);
        let view1 = LineageView {
            alive_workers: 1,
            ..view
        };
        let d1 = view1.checkpoint_delta(a);
        assert!(d10 < d1, "more workers should checkpoint faster");
    }

    #[test]
    fn no_checkpoint_yields_nothing() {
        let lineage = Lineage::new();
        let ckpt = CheckpointStore::new(StorageConfig::default());
        let cost = CostModel::default();
        let view = LineageView {
            lineage: &lineage,
            checkpoints: &ckpt,
            alive_workers: 1,
            cost: &cost,
        };
        let mut h = NoCheckpoint;
        let mut sink = flint_trace::TraceHandle::disabled();
        assert!(h.poll(&view, &mut sink, SimTime::ZERO).is_empty());
        assert!(h
            .on_rdd_materialized(&view, &mut sink, RddId(0), SimTime::ZERO)
            .is_empty());
    }
}
