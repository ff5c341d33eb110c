//! RDD descriptors: identifiers, operators, and lineage metadata.

use std::fmt;
use std::sync::Arc;

use crate::column::{FlatMapKernel, MapKernel, PredKernel};
use crate::shuffle::ShuffleId;
use crate::Value;

/// Identifier of an RDD within a [`crate::Lineage`] graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RddId(pub u32);

/// A user-facing handle to an RDD.
///
/// Handles are cheap copies of the id; all state lives in the lineage
/// graph. The newtype exists so user code cannot fabricate ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RddRef {
    pub(crate) id: RddId,
}

impl RddRef {
    /// Returns the underlying lineage id.
    pub fn id(&self) -> RddId {
        self.id
    }
}

/// The materialized contents of one partition.
pub type PartitionData = Arc<Vec<Value>>;

/// Element-wise transformation.
pub(crate) type MapFn = Arc<dyn Fn(&Value) -> Value + Send + Sync>;
/// Element-to-many transformation.
pub(crate) type FlatMapFn = Arc<dyn Fn(&Value) -> Vec<Value> + Send + Sync>;
/// Element predicate.
pub(crate) type PredFn = Arc<dyn Fn(&Value) -> bool + Send + Sync>;
/// Whole-partition transformation; receives the partition index.
pub(crate) type PartsFn = Arc<dyn Fn(u32, &[Value]) -> Vec<Value> + Send + Sync>;
/// Two-value combiner for keyed aggregation and `reduce`.
pub(crate) type AggFn = Arc<dyn Fn(&Value, &Value) -> Value + Send + Sync>;

/// The shared identity transform. Code that needs a no-op `Map` (e.g.
/// forcing a materialization point before a checkpoint) should use this
/// single instance: the executor recognizes it by pointer and shares the
/// parent partition's records outright instead of cloning each one.
pub(crate) fn identity() -> MapFn {
    static IDENTITY: std::sync::OnceLock<MapFn> = std::sync::OnceLock::new();
    IDENTITY
        .get_or_init(|| Arc::new(|v: &Value| v.clone()))
        .clone()
}

/// Whether `f` is the shared [`identity`] transform.
pub(crate) fn is_identity(f: &MapFn) -> bool {
    Arc::ptr_eq(f, &identity())
}

/// The operator that produces an RDD from its parents.
///
/// Operators fall into two classes, mirroring Spark's narrow/wide
/// dependency split (§2.2): narrow operators compute partition `p` from
/// partition `p` of the parent(s); shuffle operators consume *all* parent
/// partitions through a [`ShuffleId`].
///
/// An op built through a `*_kernel` constructor of
/// [`crate::EngineContext`] carries its kernel: the closure is generated
/// from it, and the executor may run the kernel's batch form instead.
#[derive(Clone)]
pub enum RddOp {
    /// A durable source collection, pre-partitioned. Reading it charges
    /// source-read time (the paper's "re-fetch from S3" path, §5.4).
    Parallelize {
        /// The source partitions (never lost; models data on S3/disk).
        data: Arc<Vec<Vec<Value>>>,
    },
    /// Element-wise map.
    Map {
        /// The transformation.
        f: MapFn,
        /// The declared total kernel `f` was generated from, if any.
        kernel: Option<MapKernel>,
    },
    /// Element-wise filter.
    Filter {
        /// The predicate.
        p: PredFn,
        /// The declared kernel `p` was generated from, if any.
        kernel: Option<PredKernel>,
    },
    /// Element-to-many map.
    FlatMap {
        /// The transformation.
        f: FlatMapFn,
        /// The declared kernel `f` was generated from, if any.
        kernel: Option<FlatMapKernel>,
    },
    /// Whole-partition transformation with an explicit compute-intensity
    /// multiplier (lets workloads model CPU-heavy kernels like KMeans
    /// distance evaluation).
    MapPartitions {
        /// The transformation.
        f: PartsFn,
        /// Relative compute cost per byte versus a plain map.
        cost_factor: f64,
        /// The declared filter-map kernel `f` was generated from, if any.
        kernel: Option<MapKernel>,
    },
    /// Concatenation of the parents' partition lists.
    Union,
    /// Narrow N→M repartitioning: output partition `p` concatenates a
    /// contiguous run of parent partitions (Spark's `coalesce` without
    /// shuffle).
    Coalesce {
        /// Parent partitions per output partition (ceiling division).
        group: u32,
    },
    /// Deterministic Bernoulli sample of the parent.
    Sample {
        /// Keep probability in `[0, 1]`.
        fraction: f64,
        /// Sampling seed (combined with partition index).
        seed: u64,
    },
    /// Keyed aggregation (`reduce_by_key`): pairs with equal keys are
    /// combined with the shuffle's [`crate::ShuffleInfo`] combine.
    ShuffleAgg {
        /// The shuffle this operator reads.
        shuffle: ShuffleId,
    },
    /// Keyed grouping (`group_by_key`): output pairs `(k, List(values))`.
    ShuffleGroup {
        /// The shuffle this operator reads.
        shuffle: ShuffleId,
    },
    /// Multi-parent grouping: output pairs
    /// `(k, List[List(values from parent 0), List(values from parent 1), …])`.
    CoGroup {
        /// One shuffle per parent, in parent order.
        shuffles: Vec<ShuffleId>,
    },
    /// Global sort by key via range partitioning; the direction is the
    /// shuffle's [`crate::ShuffleKind::Range`] `ascending`.
    SortByKey {
        /// The shuffle this operator reads.
        shuffle: ShuffleId,
    },
}

impl RddOp {
    /// Returns a short operator name for logs and debugging.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            RddOp::Parallelize { .. } => "parallelize",
            RddOp::Map { .. } => "map",
            RddOp::Filter { .. } => "filter",
            RddOp::FlatMap { .. } => "flat_map",
            RddOp::MapPartitions { .. } => "map_partitions",
            RddOp::Union => "union",
            RddOp::Coalesce { .. } => "coalesce",
            RddOp::Sample { .. } => "sample",
            RddOp::ShuffleAgg { .. } => "reduce_by_key",
            RddOp::ShuffleGroup { .. } => "group_by_key",
            RddOp::CoGroup { .. } => "cogroup",
            RddOp::SortByKey { .. } => "sort_by_key",
        }
    }

    /// Returns the shuffles this operator reads (empty for narrow ops).
    pub fn input_shuffles(&self) -> &[ShuffleId] {
        match self {
            RddOp::ShuffleAgg { shuffle }
            | RddOp::ShuffleGroup { shuffle }
            | RddOp::SortByKey { shuffle } => std::slice::from_ref(shuffle),
            RddOp::CoGroup { shuffles } => shuffles,
            _ => &[],
        }
    }

    /// Returns `true` if this operator reads its parents through a
    /// shuffle (a wide dependency).
    pub fn is_shuffle(&self) -> bool {
        !self.input_shuffles().is_empty()
    }

    /// Relative compute cost per input byte versus a plain map.
    ///
    /// These weights shape the checkpoint-vs-recompute trade-off per
    /// workload; absolute time comes from [`crate::CostModel`].
    pub(crate) fn cost_factor(&self) -> f64 {
        match self {
            RddOp::Parallelize { .. } => 0.0, // charged as source read, not compute
            RddOp::Map { .. } => 1.0,
            RddOp::Filter { .. } => 0.6,
            RddOp::FlatMap { .. } => 1.3,
            RddOp::MapPartitions { cost_factor, .. } => *cost_factor,
            RddOp::Union => 0.1,
            RddOp::Coalesce { .. } => 0.1,
            RddOp::Sample { .. } => 0.4,
            RddOp::ShuffleAgg { .. } => 1.6,
            RddOp::ShuffleGroup { .. } => 1.4,
            RddOp::CoGroup { .. } => 2.0,
            RddOp::SortByKey { .. } => 1.8,
        }
    }
}

impl fmt::Debug for RddOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind())
    }
}

/// Metadata of one RDD in the lineage graph.
#[derive(Clone)]
pub struct RddMeta {
    /// The RDD's id.
    pub(crate) id: RddId,
    /// Human-readable name (defaults to the operator kind).
    pub(crate) name: String,
    /// The producing operator.
    pub op: RddOp,
    /// Parent RDDs, in operator order.
    pub(crate) parents: Vec<RddId>,
    /// Number of partitions.
    pub num_partitions: u32,
}

impl fmt::Debug for RddMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RddMeta")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("op", &self.op)
            .field("parents", &self.parents)
            .field("num_partitions", &self.num_partitions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_and_shuffle_classification() {
        let map = RddOp::Map {
            f: Arc::new(|v| v.clone()),
            kernel: None,
        };
        assert_eq!(map.kind(), "map");
        assert!(!map.is_shuffle());
        assert!(map.input_shuffles().is_empty());

        let agg = RddOp::ShuffleAgg {
            shuffle: ShuffleId(3),
        };
        assert!(agg.is_shuffle());
        assert_eq!(agg.input_shuffles(), [ShuffleId(3)]);

        let cg = RddOp::CoGroup {
            shuffles: vec![ShuffleId(1), ShuffleId(2)],
        };
        assert_eq!(cg.input_shuffles().len(), 2);
    }

    #[test]
    fn cost_factors_are_positive_for_compute_ops() {
        let ops: Vec<RddOp> = vec![
            RddOp::Map {
                f: Arc::new(|v| v.clone()),
                kernel: None,
            },
            RddOp::Filter {
                p: Arc::new(|_| true),
                kernel: None,
            },
            RddOp::SortByKey {
                shuffle: ShuffleId(0),
            },
        ];
        for op in ops {
            assert!(op.cost_factor() > 0.0, "{}", op.kind());
        }
    }
}
