//! Flint's fault-tolerance manager: the automated checkpointing policy.

use std::sync::{Arc, Mutex};

use flint_engine::{
    CheckpointDirective, CheckpointHooks, Event, EventKind, EventSink, LineageView, RddId,
};
use flint_simtime::{lock, SimDuration, SimTime};

use crate::optimal_tau;

/// State shared between the node manager and the fault-tolerance manager
/// (Fig. 5: the two components exchange the cluster MTTF and the current
/// δ/τ estimates).
#[derive(Debug, Clone)]
pub struct FtShared {
    /// Estimated MTTF of the current cluster composition.
    pub mttf: SimDuration,
    /// Current estimate of the checkpoint write time δ.
    pub(crate) delta: SimDuration,
    /// The most recent checkpoint interval τ.
    pub(crate) tau: SimDuration,
}

impl Default for FtShared {
    fn default() -> Self {
        FtShared {
            mttf: SimDuration::MAX,
            delta: SimDuration::from_mins(2),
            tau: SimDuration::MAX,
        }
    }
}

/// A cloneable handle to the shared fault-tolerance state.
pub(crate) type FtSharedHandle = Arc<Mutex<FtShared>>;

/// Creates a fresh shared-state handle.
pub fn new_shared(mttf: SimDuration) -> FtSharedHandle {
    Arc::new(Mutex::new(FtShared {
        mttf,
        ..FtShared::default()
    }))
}

/// Returns `true` if `rdd` is a durable-write candidate.
///
/// Only RDDs whose partitions are *resident* can be checkpointed without
/// recomputation (§3.1.1: transient intermediates "have no guarantee of
/// being in memory"):
///
/// * persisted RDDs (in the block cache by construction);
/// * aggregated shuffle outputs (`reduce_by_key`/`group_by_key`/
///   `sort_by_key` — the "shuffle RDDs" the fast-path interval targets;
///   their partitions pass through the checkpoint task as produced);
/// * but **not** cogroup views (Spark streams `CoGroupedRDD` partitions
///   straight into their consumer without materializing them) and
///   **not** source collections (already durable on S3/disk).
fn checkpoint_eligible(view: &LineageView<'_>, rdd: RddId) -> bool {
    use flint_engine::RddOp;
    let meta = view.lineage.meta(rdd);
    match &meta.op {
        RddOp::Parallelize { .. } => false,
        RddOp::CoGroup { .. } => view.lineage.is_persisted(rdd),
        op if op.is_shuffle() => true,
        _ => view.lineage.is_persisted(rdd),
    }
}

/// Flint's checkpointing policy (Policy 1, §3.1.1).
///
/// * A timer fires every `τ = √(2·δ·MTTF)`; once due, the *next* RDD that
///   completes at the frontier of the lineage graph is checkpointed.
/// * Shuffle-produced RDDs use a faster private timer of
///   `τ / #map-partitions`, because their wide dependencies make
///   recomputation disproportionately expensive.
/// * δ is re-estimated from the sizes of the RDDs actually checkpointed
///   and the storage bandwidth at the current cluster size, with
///   exponential smoothing; τ adapts as δ and the MTTF move.
///
/// The MTTF arrives through the `FtSharedHandle` maintained by the node
/// manager, which re-derives it after every (re)selection of markets.
pub struct FlintCheckpointPolicy {
    shared: FtSharedHandle,
    last_ckpt: SimTime,
    last_shuffle_ckpt: SimTime,
    /// Checkpoint shuffle RDDs at the faster `τ / #map-partitions`
    /// interval (§3.1.1). Disabled only by the ablation benches.
    pub shuffle_fastpath: bool,
    /// Re-estimate δ from observed frontier sizes (§3.1.1). Disabled
    /// only by the ablation benches (τ then stays at its initial guess).
    pub adaptive_delta: bool,
}

impl FlintCheckpointPolicy {
    /// Creates the policy bound to shared FT state.
    pub(crate) fn new(shared: FtSharedHandle) -> Self {
        FlintCheckpointPolicy {
            shared,
            last_ckpt: SimTime::ZERO,
            last_shuffle_ckpt: SimTime::ZERO,
            shuffle_fastpath: true,
            adaptive_delta: true,
        }
    }

    /// Creates the policy with a fixed MTTF (no node-manager coupling),
    /// for controlled experiments.
    pub fn with_mttf(mttf: SimDuration) -> Self {
        Self::new(new_shared(mttf))
    }

    fn current_tau(&self) -> SimDuration {
        let s = lock(&self.shared);
        optimal_tau(s.delta, s.mttf)
    }

    /// Exponential-smoothing factor for δ updates.
    const ALPHA: f64 = 0.5;

    fn update_delta(&mut self, observed: SimDuration) {
        let mut s = lock(&self.shared);
        let blended =
            s.delta.as_secs_f64() * (1.0 - Self::ALPHA) + observed.as_secs_f64() * Self::ALPHA;
        s.delta = SimDuration::from_secs_f64(blended.max(0.001));
        s.tau = optimal_tau(s.delta, s.mttf);
    }
}

impl CheckpointHooks for FlintCheckpointPolicy {
    fn on_rdd_materialized(
        &mut self,
        view: &LineageView<'_>,
        events: &mut dyn EventSink,
        rdd: RddId,
        now: SimTime,
    ) -> Vec<CheckpointDirective> {
        // Policy 1 checkpoints the *execution* frontier: an RDD whose
        // descendants have already been computed is stale by the time it
        // (re)materializes.
        if view.lineage.has_materialized_child(rdd) {
            return Vec::new();
        }
        if !checkpoint_eligible(view, rdd) {
            return Vec::new();
        }
        // Keep δ tracking the collective frontier size and write
        // parallelism (§3.1.1: "Flint maintains a current estimate of the
        // checkpointing time δ ... As δ changes, Flint dynamically
        // updates the checkpointing interval τ").
        if self.adaptive_delta {
            self.update_delta(view.frontier_delta());
            let s = lock(&self.shared);
            events.emit(&Event {
                t: now,
                kind: EventKind::TauAdapted {
                    delta_ms: s.delta.as_millis(),
                    tau_ms: s.tau.as_millis(),
                    mttf_ms: s.mttf.as_millis(),
                },
            });
        }
        let tau = self.current_tau();
        if tau == SimDuration::MAX {
            return Vec::new(); // on-demand cluster: never checkpoint
        }
        let meta = view.lineage.meta(rdd);
        let is_shuffle = meta.op.is_shuffle();
        let due = if is_shuffle && self.shuffle_fastpath {
            // Shuffle RDDs: interval τ / (#partitions shuffled from).
            let map_parts: u32 = meta
                .op
                .input_shuffles()
                .iter()
                .map(|s| {
                    view.lineage
                        .meta(view.lineage.shuffle(*s).parent)
                        .num_partitions
                })
                .sum::<u32>()
                .max(1);
            let interval = tau / u64::from(map_parts);
            now - self.last_shuffle_ckpt >= interval
        } else {
            now - self.last_ckpt >= tau
        };
        if !due {
            return Vec::new();
        }
        if is_shuffle && self.shuffle_fastpath {
            self.last_shuffle_ckpt = now;
        } else {
            self.last_ckpt = now;
            self.last_shuffle_ckpt = now; // a frontier checkpoint covers shuffles too
        }
        // Policy 1 checkpoints "RDDs at the current frontier" (plural):
        // this wave covers every fully-materialized frontier RDD that is
        // not yet durably stored (multi-sink programs — e.g. several
        // resident tables — all get covered by one wave).
        let mut wave: Vec<CheckpointDirective> = vec![CheckpointDirective::Checkpoint(rdd)];
        for other in view.lineage.execution_frontier() {
            if other != rdd
                && checkpoint_eligible(view, other)
                && !view.checkpoints.is_fully_checkpointed(other)
            {
                wave.push(CheckpointDirective::Checkpoint(other));
            }
        }
        wave
    }
}

/// The Spark-Streaming-style baseline (§6): automated *periodic* RDD
/// checkpointing on a fixed wall-clock interval, with no awareness of
/// recomputation overhead or cluster volatility — the paper contrasts
/// this with Flint's adaptive `τ = √(2δ·MTTF)`.
///
/// Like Flint's policy it writes frontier RDDs (the mechanism is shared);
/// unlike Flint's, the interval never moves.
pub struct PeriodicRddCheckpoint {
    interval: SimDuration,
    last: SimTime,
}

impl PeriodicRddCheckpoint {
    /// Creates the baseline with a fixed interval.
    pub fn new(interval: SimDuration) -> Self {
        PeriodicRddCheckpoint {
            interval,
            last: SimTime::ZERO,
        }
    }
}

impl CheckpointHooks for PeriodicRddCheckpoint {
    fn on_rdd_materialized(
        &mut self,
        view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        rdd: RddId,
        now: SimTime,
    ) -> Vec<CheckpointDirective> {
        if view.lineage.has_materialized_child(rdd)
            || !checkpoint_eligible(view, rdd)
            || now - self.last < self.interval
        {
            return Vec::new();
        }
        self.last = now;
        vec![CheckpointDirective::Checkpoint(rdd)]
    }
}

/// The systems-level baseline (Fig. 6b): every `interval`, snapshot the
/// entire memory state of every worker — all cached RDD partitions *and*
/// shuffle buffers — to durable storage.
pub struct PeriodicSystemCheckpoint {
    interval: SimDuration,
    last: SimTime,
}

impl PeriodicSystemCheckpoint {
    /// Creates the baseline with a fixed snapshot interval. For a fair
    /// comparison with Flint, pass Flint's `τ` for the same MTTF.
    pub fn new(interval: SimDuration) -> Self {
        PeriodicSystemCheckpoint {
            interval,
            last: SimTime::ZERO,
        }
    }
}

impl CheckpointHooks for PeriodicSystemCheckpoint {
    fn poll(
        &mut self,
        _view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        now: SimTime,
    ) -> Vec<CheckpointDirective> {
        if self.interval == SimDuration::MAX || now - self.last < self.interval {
            return Vec::new();
        }
        self.last = now;
        vec![CheckpointDirective::CheckpointAllCached]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_engine::{CheckpointStore, CostModel, Lineage, RddOp};
    use flint_store::StorageConfig;
    use std::sync::Arc as StdArc;

    fn sink() -> flint_engine::TraceHandle {
        flint_engine::TraceHandle::disabled()
    }

    struct Fixture {
        lineage: Lineage,
        ckpt: CheckpointStore,
        cost: CostModel,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                lineage: Lineage::new(),
                ckpt: CheckpointStore::new(StorageConfig::default()),
                cost: CostModel::default(),
            }
        }

        fn add_chain(&mut self, n: usize) -> Vec<RddId> {
            let mut ids = Vec::new();
            let src = self.lineage.add_rdd(
                "src",
                RddOp::Parallelize {
                    data: StdArc::new(vec![vec![]]),
                },
                vec![],
                1,
            );
            self.lineage.record_partition_size(src, 0, 100 << 20);
            ids.push(src);
            for _ in 1..n {
                let prev = *ids.last().unwrap();
                let id = self.lineage.add_rdd(
                    "map",
                    RddOp::Map {
                        f: StdArc::new(|v: &flint_engine::Value| v.clone()),
                        kernel: None,
                    },
                    vec![prev],
                    1,
                );
                self.lineage.record_partition_size(id, 0, 100 << 20);
                ids.push(id);
            }
            ids
        }

        fn view(&self) -> LineageView<'_> {
            LineageView {
                lineage: &self.lineage,
                checkpoints: &self.ckpt,
                alive_workers: 10,
                cost: &self.cost,
            }
        }
    }

    #[test]
    fn frontier_rdd_checkpointed_when_timer_due() {
        let mut fx = Fixture::new();
        let ids = fx.add_chain(3);
        let tip = *ids.last().unwrap();
        // Only persisted or shuffle-produced RDDs are checkpointable.
        fx.lineage.persist(tip);
        let mut p = FlintCheckpointPolicy::with_mttf(SimDuration::from_hours(1));
        // τ for δ=2min, MTTF=1h is ~28 min; at t = 1h the timer is due.
        let now = SimTime::from_hours_f64(1.0);
        let d = p.on_rdd_materialized(&fx.view(), &mut sink(), tip, now);
        assert_eq!(d, vec![CheckpointDirective::Checkpoint(tip)]);
    }

    #[test]
    fn transient_narrow_intermediates_not_checkpointed() {
        let mut fx = Fixture::new();
        let ids = fx.add_chain(3);
        let tip = *ids.last().unwrap(); // not persisted, not shuffle
        let mut p = FlintCheckpointPolicy::with_mttf(SimDuration::from_hours(1));
        let d = p.on_rdd_materialized(&fx.view(), &mut sink(), tip, SimTime::from_hours_f64(1.0));
        assert!(
            d.is_empty(),
            "transient narrow RDDs are not durable-write candidates"
        );
    }

    #[test]
    fn non_frontier_rdd_never_checkpointed() {
        let mut fx = Fixture::new();
        let ids = fx.add_chain(3);
        let mut p = FlintCheckpointPolicy::with_mttf(SimDuration::from_hours(1));
        let now = SimTime::from_hours_f64(1.0);
        assert!(p
            .on_rdd_materialized(&fx.view(), &mut sink(), ids[0], now)
            .is_empty());
        assert!(p
            .on_rdd_materialized(&fx.view(), &mut sink(), ids[1], now)
            .is_empty());
    }

    #[test]
    fn timer_not_due_means_no_checkpoint() {
        let mut fx = Fixture::new();
        let ids = fx.add_chain(2);
        let mut p = FlintCheckpointPolicy::with_mttf(SimDuration::from_hours(50));
        // τ(2min, 50h) ≈ 1.8h; a few minutes in, nothing should fire.
        let d = p.on_rdd_materialized(
            &fx.view(),
            &mut sink(),
            ids[1],
            SimTime::from_hours_f64(0.1),
        );
        assert!(d.is_empty());
    }

    #[test]
    fn on_demand_mttf_disables_checkpointing() {
        let mut fx = Fixture::new();
        let ids = fx.add_chain(2);
        let mut p = FlintCheckpointPolicy::with_mttf(SimDuration::MAX);
        let d = p.on_rdd_materialized(
            &fx.view(),
            &mut sink(),
            ids[1],
            SimTime::from_hours_f64(1000.0),
        );
        assert!(d.is_empty());
    }

    #[test]
    fn delta_update_moves_tau() {
        let p = FlintCheckpointPolicy::with_mttf(SimDuration::from_hours(10));
        let shared = p.shared.clone();
        let tau0 = optimal_tau(lock(&shared).delta, SimDuration::from_hours(10));
        let mut p = p;
        p.update_delta(SimDuration::from_mins(20));
        let s = lock(&shared);
        assert!(s.delta > SimDuration::from_mins(2));
        assert!(s.tau > tau0, "bigger δ must stretch τ");
    }

    #[test]
    fn shuffle_timer_uses_divided_interval() {
        let mut fx = Fixture::new();
        let src = fx.lineage.add_rdd(
            "src",
            RddOp::Parallelize {
                data: StdArc::new((0..8).map(|_| vec![]).collect()),
            },
            vec![],
            8,
        );
        for p in 0..8 {
            fx.lineage.record_partition_size(src, p, 10 << 20);
        }
        let sh = fx
            .lineage
            .add_shuffle(src, flint_engine::ShuffleKind::Hash { parts: 8 });
        let red = fx
            .lineage
            .add_rdd("reduce", RddOp::ShuffleGroup { shuffle: sh }, vec![src], 8);
        for p in 0..8 {
            fx.lineage.record_partition_size(red, p, 10 << 20);
        }
        let mut p = FlintCheckpointPolicy::with_mttf(SimDuration::from_hours(50));
        let tau = optimal_tau(SimDuration::from_mins(2), SimDuration::from_hours(50));
        // At τ/8 past zero the narrow timer is NOT due but the shuffle
        // timer IS.
        let now = SimTime::ZERO + tau / 8 + SimDuration::from_secs(1);
        let d = p.on_rdd_materialized(&fx.view(), &mut sink(), red, now);
        assert_eq!(d, vec![CheckpointDirective::Checkpoint(red)]);
    }

    #[test]
    fn periodic_rdd_policy_ignores_volatility() {
        let mut fx = Fixture::new();
        let src = fx.lineage.add_rdd(
            "src",
            RddOp::Parallelize {
                data: StdArc::new(vec![vec![]]),
            },
            vec![],
            1,
        );
        fx.lineage.record_partition_size(src, 0, 10 << 20);
        let sh = fx
            .lineage
            .add_shuffle(src, flint_engine::ShuffleKind::Hash { parts: 1 });
        let red = fx
            .lineage
            .add_rdd("reduce", RddOp::ShuffleGroup { shuffle: sh }, vec![src], 1);
        fx.lineage.record_partition_size(red, 0, 10 << 20);
        let mut p = PeriodicRddCheckpoint::new(SimDuration::from_mins(10));
        // Not due yet.
        assert!(p
            .on_rdd_materialized(&fx.view(), &mut sink(), red, SimTime::from_millis(1000))
            .is_empty());
        // Due: fires exactly on the fixed interval, MTTF-independent.
        let d = p.on_rdd_materialized(&fx.view(), &mut sink(), red, SimTime::from_hours_f64(0.2));
        assert_eq!(d, vec![CheckpointDirective::Checkpoint(red)]);
    }

    #[test]
    fn system_checkpoint_fires_periodically() {
        let fx = Fixture::new();
        let mut p = PeriodicSystemCheckpoint::new(SimDuration::from_mins(30));
        assert!(p
            .poll(&fx.view(), &mut sink(), SimTime::from_hours_f64(0.1))
            .is_empty());
        let d = p.poll(&fx.view(), &mut sink(), SimTime::from_hours_f64(0.6));
        assert_eq!(d, vec![CheckpointDirective::CheckpointAllCached]);
        // Immediately after firing, quiet again.
        assert!(p
            .poll(&fx.view(), &mut sink(), SimTime::from_hours_f64(0.7))
            .is_empty());
        let d2 = p.poll(&fx.view(), &mut sink(), SimTime::from_hours_f64(1.2));
        assert_eq!(d2.len(), 1);
    }
}
