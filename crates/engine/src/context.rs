//! The RDD construction API.

use std::sync::Arc;

use crate::column::{AggKernel, FlatMapKernel, MapKernel, PredKernel};
use crate::lineage::Lineage;
use crate::rdd::{RddId, RddOp, RddRef};
use crate::shuffle::{Combine, ShuffleKind};
use crate::Value;

/// Builds RDDs and records their lineage.
///
/// The context is the engine's equivalent of a `SparkContext`: programs
/// create source datasets with [`EngineContext::parallelize`] and derive
/// new ones with transformations; nothing executes until an action is run
/// through the [`crate::Driver`].
///
/// # Examples
///
/// ```
/// use flint_engine::{Driver, Value};
///
/// let mut driver = Driver::local(2);
/// let words = driver.ctx().parallelize(
///     ["a", "b", "a"].iter().map(|s| Value::from_str_(s)),
///     2,
/// );
/// let pairs = driver.ctx().map(words, |w| Value::pair(w.clone(), Value::Int(1)));
/// let counts = driver.ctx().reduce_by_key(pairs, 2, |a, b| {
///     Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
/// });
/// let mut out = driver.collect(counts).unwrap();
/// out.sort();
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct EngineContext {
    lineage: Lineage,
}

impl EngineContext {
    /// Creates an empty context.
    pub(crate) fn new() -> Self {
        EngineContext {
            lineage: Lineage::new(),
        }
    }

    /// Returns the lineage graph.
    pub(crate) fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    /// Returns the lineage graph mutably (driver internals).
    pub(crate) fn lineage_mut(&mut self) -> &mut Lineage {
        &mut self.lineage
    }

    /// Registers `op` over `parents`, named after its kind.
    fn add(&mut self, op: RddOp, parents: Vec<RddId>, num_partitions: u32) -> RddRef {
        let name = op.kind();
        let id = self.lineage.add_rdd(name, op, parents, num_partitions);
        RddRef { id }
    }

    /// Registers a narrow `op` over `r`, partitioned as `r` is.
    fn narrow(&mut self, r: RddRef, op: RddOp) -> RddRef {
        let n = self.num_partitions(r);
        self.add(op, vec![r.id], n)
    }

    /// Creates a source RDD from an iterator, split into `parts`
    /// partitions round-robin. Source data is durable (never lost to
    /// revocations), like input files on S3/HDFS.
    pub fn parallelize(&mut self, data: impl IntoIterator<Item = Value>, parts: u32) -> RddRef {
        let parts = parts.max(1);
        let mut partitions: Vec<Vec<Value>> = (0..parts).map(|_| Vec::new()).collect();
        for (i, v) in data.into_iter().enumerate() {
            partitions[i % parts as usize].push(v);
        }
        self.parallelize_parts(partitions)
    }

    /// Creates a source RDD from explicit partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty.
    pub fn parallelize_parts(&mut self, partitions: Vec<Vec<Value>>) -> RddRef {
        assert!(!partitions.is_empty(), "need at least one partition");
        let n = partitions.len() as u32;
        let op = RddOp::Parallelize {
            data: Arc::new(partitions),
        };
        self.add(op, vec![], n)
    }

    /// Element-wise transformation.
    pub fn map(
        &mut self,
        r: RddRef,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) -> RddRef {
        let op = RddOp::Map {
            f: Arc::new(f),
            kernel: None,
        };
        self.narrow(r, op)
    }

    /// Keeps elements satisfying `p`.
    pub fn filter(
        &mut self,
        r: RddRef,
        p: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> RddRef {
        let op = RddOp::Filter {
            p: Arc::new(p),
            kernel: None,
        };
        self.narrow(r, op)
    }

    /// Element-to-many transformation.
    pub fn flat_map(
        &mut self,
        r: RddRef,
        f: impl Fn(&Value) -> Vec<Value> + Send + Sync + 'static,
    ) -> RddRef {
        let op = RddOp::FlatMap {
            f: Arc::new(f),
            kernel: None,
        };
        self.narrow(r, op)
    }

    /// Whole-partition transformation. `cost_factor` scales the charged
    /// compute time relative to a plain map (use > 1 for CPU-heavy
    /// kernels).
    pub fn map_partitions(
        &mut self,
        r: RddRef,
        cost_factor: f64,
        f: impl Fn(u32, &[Value]) -> Vec<Value> + Send + Sync + 'static,
    ) -> RddRef {
        let op = RddOp::MapPartitions {
            f: Arc::new(f),
            cost_factor,
            kernel: None,
        };
        self.narrow(r, op)
    }

    /// Element-wise transformation declared as a [`MapKernel`]: the row
    /// closure is generated from the kernel, and the executor may run
    /// the kernel's vectorized batch evaluator instead — the two agree
    /// by construction, and non-encodable partitions fall back to the
    /// row path transparently.
    ///
    /// The kernel must be total (`Scalar`/`Pair` shapes);
    /// [`MapKernel::NearestCenter`] has filter-map semantics and must go
    /// through [`EngineContext::map_partitions_kernel`] instead.
    pub fn map_kernel(&mut self, r: RddRef, kernel: MapKernel) -> RddRef {
        assert!(
            !matches!(kernel, MapKernel::NearestCenter { .. }),
            "NearestCenter skips records; use map_partitions_kernel"
        );
        let k = kernel.clone();
        let op = RddOp::Map {
            f: Arc::new(move |v| k.eval_value(v).unwrap_or_else(|| v.clone())),
            kernel: Some(kernel),
        };
        self.narrow(r, op)
    }

    /// Filter declared as a [`PredKernel`], with a vectorized mask+gather
    /// batch path (see [`EngineContext::map_kernel`] for the contract).
    pub fn filter_kernel(&mut self, r: RddRef, pred: PredKernel) -> RddRef {
        let p = pred.clone();
        let op = RddOp::Filter {
            p: Arc::new(move |v| p.eval_value(v)),
            kernel: Some(pred),
        };
        self.narrow(r, op)
    }

    /// Element-to-many transformation declared as a [`FlatMapKernel`]:
    /// the row closure is generated from the kernel, and the executor may
    /// build the whole partition's output as one batch instead (see
    /// [`EngineContext::map_kernel`] for the contract). The batch arm
    /// reads rows, so it runs whatever form the parent arrived in.
    pub fn flat_map_kernel(&mut self, r: RddRef, kernel: FlatMapKernel) -> RddRef {
        let k = kernel.clone();
        let op = RddOp::FlatMap {
            f: Arc::new(move |v| k.eval_value(v)),
            kernel: Some(kernel),
        };
        self.narrow(r, op)
    }

    /// Whole-partition transformation declared as a [`MapKernel`] with
    /// filter-map semantics (records the kernel declines are dropped,
    /// like [`MapKernel::NearestCenter`] on non-vector records).
    /// `cost_factor` scales the charged compute time as in
    /// [`EngineContext::map_partitions`].
    pub fn map_partitions_kernel(
        &mut self,
        r: RddRef,
        cost_factor: f64,
        kernel: MapKernel,
    ) -> RddRef {
        let k = kernel.clone();
        let op = RddOp::MapPartitions {
            f: Arc::new(move |_part, data| {
                let mut out = Vec::with_capacity(data.len());
                out.extend(data.iter().filter_map(|v| k.eval_value(v)));
                out
            }),
            cost_factor,
            kernel: Some(kernel),
        };
        self.narrow(r, op)
    }

    /// Keyed aggregation declared as an [`AggKernel`]: the combine
    /// closure (map-side and reduce-side) is generated from the kernel,
    /// so map outputs may be bucketed as columnar row groups and the
    /// reducer may run the typed accumulation path.
    pub fn reduce_by_key_kernel(&mut self, r: RddRef, parts: u32, kernel: AggKernel) -> RddRef {
        let k = kernel.clone();
        let combine = Combine {
            f: Arc::new(move |a, b| k.combine_values(a, b)),
            kernel: Some(kernel),
        };
        self.reduce(r, parts, combine)
    }

    /// A `reduce_by_key` over a hash shuffle that folds pairs by key with
    /// `combine`, map-side and reduce-side.
    fn reduce(&mut self, r: RddRef, parts: u32, combine: Combine) -> RddRef {
        let parts = parts.max(1);
        let shuffle = self.lineage.add_combining_shuffle(r.id, parts, combine);
        self.add(RddOp::ShuffleAgg { shuffle }, vec![r.id], parts)
    }

    /// Concatenates two RDDs (partition lists are appended).
    pub fn union(&mut self, a: RddRef, b: RddRef) -> RddRef {
        let n = self.num_partitions(a) + self.num_partitions(b);
        self.add(RddOp::Union, vec![a.id, b.id], n)
    }

    /// Deterministic Bernoulli sample.
    pub fn sample(&mut self, r: RddRef, fraction: f64, seed: u64) -> RddRef {
        let op = RddOp::Sample {
            fraction: fraction.clamp(0.0, 1.0),
            seed,
        };
        self.narrow(r, op)
    }

    /// Aggregates pair elements by key with an associative combiner.
    ///
    /// Like Spark's `reduceByKey`, the combiner also runs map-side, so
    /// shuffle volume collapses to roughly one record per key per map
    /// partition.
    pub fn reduce_by_key(
        &mut self,
        r: RddRef,
        parts: u32,
        f: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
    ) -> RddRef {
        let combine = Combine {
            f: Arc::new(f),
            kernel: None,
        };
        self.reduce(r, parts, combine)
    }

    /// Groups pair elements by key into `(k, List(values))`.
    pub fn group_by_key(&mut self, r: RddRef, parts: u32) -> RddRef {
        let parts = parts.max(1);
        // Grouping has no combine, so columnar map outputs bucket
        // without decoding whenever the upstream produced a batch.
        let shuffle = self.lineage.add_shuffle(r.id, ShuffleKind::Hash { parts });
        self.add(RddOp::ShuffleGroup { shuffle }, vec![r.id], parts)
    }

    /// Groups two pair RDDs by key into
    /// `(k, List[List(values from a), List(values from b)])`.
    pub fn cogroup(&mut self, a: RddRef, b: RddRef, parts: u32) -> RddRef {
        let parts = parts.max(1);
        // Like grouping, a cogroup has no combine: batch map outputs
        // bucket typed and the reduce groups straight off the key column.
        let sa = self.lineage.add_shuffle(a.id, ShuffleKind::Hash { parts });
        let sb = self.lineage.add_shuffle(b.id, ShuffleKind::Hash { parts });
        let op = RddOp::CoGroup {
            shuffles: vec![sa, sb],
        };
        self.add(op, vec![a.id, b.id], parts)
    }

    /// Inner-joins two pair RDDs: output `(k, List[va, vb])` for every
    /// combination of values sharing a key.
    pub fn join(&mut self, a: RddRef, b: RddRef, parts: u32) -> RddRef {
        let grouped = self.cogroup(a, b, parts);
        self.flat_map(grouped, |v| {
            let Value::Pair(p) = v else { return vec![] };
            let groups = match p.val().as_list() {
                Some(g) if g.len() == 2 => g,
                _ => return vec![],
            };
            let left = groups[0].as_list().unwrap_or(&[]);
            let right = groups[1].as_list().unwrap_or(&[]);
            let mut out = Vec::with_capacity(left.len() * right.len());
            for l in left {
                for r in right {
                    out.push(Value::pair(
                        p.key().clone(),
                        Value::list(vec![l.clone(), r.clone()]),
                    ));
                }
            }
            out
        })
    }

    /// Globally sorts pair elements by key via range partitioning.
    pub fn sort_by_key(&mut self, r: RddRef, parts: u32, ascending: bool) -> RddRef {
        let parts = parts.max(1);
        let shuffle = self
            .lineage
            .add_shuffle(r.id, ShuffleKind::Range { parts, ascending });
        self.add(RddOp::SortByKey { shuffle }, vec![r.id], parts)
    }

    /// Removes duplicate elements (via a shuffle).
    pub fn distinct(&mut self, r: RddRef, parts: u32) -> RddRef {
        let paired = self.map(r, |v| Value::pair(v.clone(), Value::Null));
        let reduced = self.reduce_by_key(paired, parts, |a, _| a.clone());
        self.map(reduced, |p| p.key().cloned().unwrap_or(Value::Null))
    }

    /// Redistributes elements into `parts` partitions (via a shuffle on a
    /// synthetic key).
    pub fn repartition(&mut self, r: RddRef, parts: u32) -> RddRef {
        let keyed = self.map(r, |v| {
            // Key by the value itself: deterministic spread.
            Value::pair(v.clone(), v.clone())
        });
        let grouped = self.group_by_key(keyed, parts);
        self.flat_map(grouped, |p| {
            p.val()
                .and_then(Value::as_list)
                .map(<[Value]>::to_vec)
                .unwrap_or_default()
        })
    }

    /// Transforms only the value side of pair elements, keeping keys.
    pub fn map_values(
        &mut self,
        r: RddRef,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) -> RddRef {
        self.map(r, move |p| match p {
            Value::Pair(kv) => Value::pair(kv.key().clone(), f(kv.val())),
            other => other.clone(),
        })
    }

    /// Projects pair elements to their keys.
    pub fn keys(&mut self, r: RddRef) -> RddRef {
        self.map(r, |p| p.key().cloned().unwrap_or(Value::Null))
    }

    /// Projects pair elements to their values.
    pub fn values(&mut self, r: RddRef) -> RddRef {
        self.map(r, |p| p.val().cloned().unwrap_or(Value::Null))
    }

    /// Marks an RDD for in-memory caching across jobs (Spark `persist`).
    pub fn persist(&mut self, r: RddRef) -> RddRef {
        self.lineage.persist(r.id);
        r
    }

    /// Returns the number of partitions of `r`.
    pub fn num_partitions(&self, r: RddRef) -> u32 {
        self.lineage.meta(r.id).num_partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_splits_round_robin() {
        let mut ctx = EngineContext::new();
        let r = ctx.parallelize((0..10).map(Value::from_i64), 3);
        assert_eq!(ctx.num_partitions(r), 3);
        let meta = ctx.lineage().meta(r.id());
        match &meta.op {
            RddOp::Parallelize { data } => {
                assert_eq!(data.len(), 3);
                assert_eq!(data[0].len(), 4); // 0,3,6,9
                assert_eq!(data[1].len(), 3);
            }
            _ => panic!("expected parallelize"),
        }
    }

    #[test]
    fn transformations_record_lineage() {
        let mut ctx = EngineContext::new();
        let a = ctx.parallelize((0..4).map(Value::from_i64), 2);
        let b = ctx.map(a, |v| v.clone());
        let c = ctx.reduce_by_key(b, 4, |x, _| x.clone());
        assert_eq!(ctx.lineage().meta(c.id()).parents, vec![b.id()]);
        assert_eq!(ctx.lineage().meta(c.id()).num_partitions, 4);
        assert!(ctx.lineage().meta(c.id()).op.is_shuffle());
    }

    #[test]
    fn union_partition_count() {
        let mut ctx = EngineContext::new();
        let a = ctx.parallelize((0..4).map(Value::from_i64), 2);
        let b = ctx.parallelize((0..9).map(Value::from_i64), 3);
        let u = ctx.union(a, b);
        assert_eq!(ctx.num_partitions(u), 5);
    }

    #[test]
    fn persist_marks_lineage() {
        let mut ctx = EngineContext::new();
        let a = ctx.parallelize((0..4).map(Value::from_i64), 2);
        assert!(!ctx.lineage().is_persisted(a.id()));
        ctx.persist(a);
        assert!(ctx.lineage().is_persisted(a.id()));
    }

    #[test]
    fn zero_partition_requests_clamp_to_one() {
        let mut ctx = EngineContext::new();
        let a = ctx.parallelize((0..4).map(Value::from_i64), 0);
        assert_eq!(ctx.num_partitions(a), 1);
        let g = ctx.group_by_key(a, 0);
        assert_eq!(ctx.num_partitions(g), 1);
    }
}
