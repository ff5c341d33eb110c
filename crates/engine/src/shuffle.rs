//! Shuffle identifiers and partitioners.

use std::sync::Arc;

use crate::block::Records;
use crate::column::{AggKernel, ColumnBatch};
use crate::value::stable_hash;
use crate::Value;

/// Identifier of a shuffle (one per wide dependency edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShuffleId(pub u32);

/// Maps shuffle keys to reduce-side partitions.
pub trait Partitioner {
    /// Returns the reduce partition for `key`, in `0..num_partitions()`.
    fn partition_for(&self, key: &Value) -> u32;
    /// The number of reduce partitions.
    fn num_partitions(&self) -> u32;
}

/// Deterministic hash partitioning (used by `reduce_by_key`,
/// `group_by_key`, `join`).
///
/// # Examples
///
/// ```
/// use flint_engine::{HashPartitioner, Partitioner, Value};
///
/// let p = HashPartitioner::new(4);
/// let k = Value::from_str_("user-17");
/// assert!(p.partition_for(&k) < 4);
/// // Stable across calls.
/// assert_eq!(p.partition_for(&k), p.partition_for(&k));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPartitioner {
    parts: u32,
}

impl HashPartitioner {
    /// Creates a hash partitioner over `parts` partitions (at least 1).
    pub fn new(parts: u32) -> Self {
        HashPartitioner {
            parts: parts.max(1),
        }
    }
}

impl Partitioner for HashPartitioner {
    fn partition_for(&self, key: &Value) -> u32 {
        (stable_hash(key) % u64::from(self.parts)) as u32
    }

    fn num_partitions(&self) -> u32 {
        self.parts
    }
}

/// Range partitioning for `sort_by_key`: keys ≤ `bounds[0]` go to
/// partition 0, and so on. With `ascending = false` the partition order is
/// reversed so concatenating partitions yields a descending sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePartitioner {
    /// Ascending boundary keys; `bounds.len() + 1` partitions.
    bounds: Vec<Value>,
    ascending: bool,
}

impl RangePartitioner {
    /// Builds a partitioner with `parts` partitions from a sample of keys.
    ///
    /// The sample is sorted and evenly-spaced boundaries are chosen, the
    /// same approach Spark's `RangePartitioner` takes.
    pub fn from_sample(mut sample: Vec<Value>, parts: u32, ascending: bool) -> Self {
        let parts = parts.max(1);
        sample.sort();
        sample.dedup();
        let mut bounds = Vec::new();
        if !sample.is_empty() {
            for i in 1..parts {
                let idx = (i as usize * sample.len()) / parts as usize;
                let idx = idx.min(sample.len() - 1);
                let b = sample[idx].clone();
                if bounds.last() != Some(&b) {
                    bounds.push(b);
                }
            }
        }
        RangePartitioner { bounds, ascending }
    }
}

impl Partitioner for RangePartitioner {
    fn partition_for(&self, key: &Value) -> u32 {
        let idx = match self.bounds.binary_search(key) {
            Ok(i) => i, // on-boundary keys go left
            Err(i) => i,
        } as u32;
        if self.ascending {
            idx
        } else {
            self.num_partitions() - 1 - idx
        }
    }

    fn num_partitions(&self) -> u32 {
        self.bounds.len() as u32 + 1
    }
}

/// A hash-shuffle map output pre-partitioned into its reduce buckets.
///
/// Built once, by the map task, when the block materializes: records are
/// routed to `parts` buckets in original block order, and each bucket's
/// payload bytes are summed as a side effect. Reduce tasks then read
/// their bucket in O(1) instead of rescanning and rehashing the whole
/// block, and the per-fetch byte accounting is a lookup instead of a
/// walk. (Range-shuffle map outputs are never bucketed — their
/// partitioner does not exist until the reduce side samples them — and
/// are served by [`scan_flat_bucket`].)
///
/// Buckets are `Arc`-shared [`Records`]: a reduce-side fetch takes a
/// refcount-bumped handle via [`BucketedBlock::bucket`] — row records,
/// or a contiguous columnar row group when the map output was
/// batch-partitioned — rather than copying the records.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketedBlock {
    /// Per-reduce-partition records, original order preserved within
    /// each bucket, shared with every fetcher.
    buckets: Vec<Records>,
    /// Per-bucket payload bytes (sum of [`Value::size_bytes`], no
    /// per-partition framing overhead) — exactly what a reduce-side scan
    /// of the flat block would have accumulated for that bucket.
    bucket_bytes: Vec<u64>,
}

impl BucketedBlock {
    /// Partitions `records` into `parts` hash buckets.
    ///
    /// Routing matches a reduce-side [`scan_flat_bucket`] under a
    /// [`HashPartitioner`]: pairs are bucketed by key, non-pair records
    /// by the value itself.
    pub fn partition(records: &[Value], parts: u32) -> Self {
        let p = HashPartitioner::new(parts);
        let n = p.num_partitions() as usize;
        // Pre-size each bucket for the uniform-routing expectation so the
        // hot push loop rarely reallocates.
        let per = records.len() / n + 1;
        let mut buckets: Vec<Vec<Value>> = (0..n).map(|_| Vec::with_capacity(per)).collect();
        let mut bucket_bytes = vec![0u64; n];
        for v in records {
            let idx = p.partition_for(v.key().unwrap_or(v)) as usize;
            bucket_bytes[idx] += v.size_bytes();
            buckets[idx].push(v.clone());
        }
        BucketedBlock {
            buckets: buckets
                .into_iter()
                .map(|b| Records::Rows(Arc::new(b)))
                .collect(),
            bucket_bytes,
        }
    }

    /// Partitions a columnar batch into `parts` hash buckets without
    /// decoding to rows, using the typed per-row key hashes.
    ///
    /// Routing is byte-identical to [`BucketedBlock::partition`]: the
    /// key of a pair batch is its key column, any other batch hashes the
    /// record itself, and the bucket index is `stable_hash(key) % parts`.
    /// Returns `None` when the batch has no hashable key column (e.g.
    /// vector keys or row-layout batches) — the caller then falls back
    /// to the row path. Bucket byte sums use the same per-record size
    /// constants as the row path.
    pub fn partition_columnar(batch: &ColumnBatch, parts: u32) -> Option<Self> {
        let parts = parts.max(1);
        let n = parts as usize;
        let per = batch.len() / n + 1;
        let mut idx: Vec<Vec<u32>> = (0..n).map(|_| Vec::with_capacity(per)).collect();
        let mut bucket_bytes = vec![0u64; n];
        for i in 0..batch.len() {
            let h = batch.route_hash_at(i)?;
            let b = (h % u64::from(parts)) as usize;
            bucket_bytes[b] += batch.size_at(i);
            idx[b].push(i as u32);
        }
        let buckets = idx
            .iter()
            .map(|ix| Records::Col(Arc::new(batch.gather(ix))))
            .collect();
        Some(BucketedBlock {
            buckets,
            bucket_bytes,
        })
    }

    /// The number of reduce buckets.
    pub fn num_buckets(&self) -> u32 {
        self.buckets.len() as u32
    }

    /// Reduce partition `part`'s records, in the form the map side
    /// produced (`None` for an out-of-range partition).
    pub fn bucket(&self, part: u32) -> Option<&Records> {
        self.buckets.get(part as usize)
    }

    /// Payload bytes of bucket `part` (sum of record sizes).
    pub fn bucket_bytes(&self, part: u32) -> u64 {
        self.bucket_bytes.get(part as usize).copied().unwrap_or(0)
    }

    /// Total records across all buckets.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Records::len).sum()
    }

    /// `true` when no bucket holds any record.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Records::is_empty)
    }

    /// Total payload bytes across all buckets (no framing overhead).
    pub fn payload_bytes(&self) -> u64 {
        self.bucket_bytes.iter().sum()
    }
}

/// Reduce-side scan over an un-bucketed map block (every range-shuffle
/// map output): collects the records routed to reduce partition `part`
/// along with their payload-byte sum.
///
/// Iterates by reference and clones only the matching records, so the
/// non-matching majority costs no refcount traffic at 64×64 fan-out.
pub fn scan_flat_bucket(records: &[Value], p: &dyn Partitioner, part: u32) -> (Vec<Value>, u64) {
    let mut out = Vec::with_capacity(records.len() / p.num_partitions().max(1) as usize + 1);
    let mut bytes = 0u64;
    for v in records {
        let key = v.key().unwrap_or(v);
        if p.partition_for(key) == part {
            bytes += v.size_bytes();
            out.push(v.clone());
        }
    }
    (out, bytes)
}

/// The partitioning scheme declared for a shuffle at RDD-creation time.
///
/// Range bounds cannot be known until the map side has produced keys, so
/// `Range` carries only the requested shape; the driver resolves the
/// concrete [`RangePartitioner`] at the shuffle barrier and caches it for
/// deterministic recomputation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleKind {
    /// Hash partitioning into `parts` partitions.
    Hash {
        /// Reduce partition count.
        parts: u32,
    },
    /// Range partitioning into `parts` partitions, resolved at runtime.
    Range {
        /// Reduce partition count.
        parts: u32,
        /// Sort direction.
        ascending: bool,
    },
}

/// A keyed aggregation's combine: the associative closure that both the
/// map side (Spark's `reduceByKey` pre-aggregation) and the reduce side
/// fold pairs with, and the declared kernel it was generated from, if any.
#[derive(Clone)]
pub(crate) struct Combine {
    /// The combining closure.
    pub(crate) f: crate::rdd::AggFn,
    /// The kernel `f` was generated from
    /// ([`crate::EngineContext::reduce_by_key_kernel`]). A hash shuffle
    /// buckets map outputs as batches when it has no combine or has this
    /// kernel.
    pub(crate) kernel: Option<AggKernel>,
}

impl std::fmt::Debug for Combine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combine")
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// Static description of a shuffle edge: the one owner of what the
/// shuffle does to its records (partitioning, sort direction, combine).
#[derive(Clone, Debug)]
pub struct ShuffleInfo {
    /// The map-side (parent) RDD.
    pub parent: crate::RddId,
    /// Partitioning scheme.
    pub(crate) kind: ShuffleKind,
    /// The keyed combine of a `reduce_by_key` shuffle: pairs with equal
    /// keys within one map output are folded before the block is stored,
    /// collapsing shuffle volume to ~one record per key per map
    /// partition, and the reducer folds the partials with the same value.
    pub(crate) combine: Option<Combine>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_covers_all_partitions() {
        let p = HashPartitioner::new(8);
        let mut seen = [false; 8];
        for i in 0..1000 {
            let part = p.partition_for(&Value::Int(i));
            seen[part as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all partitions should receive keys"
        );
    }

    #[test]
    fn hash_partitioner_minimum_one_partition() {
        let p = HashPartitioner::new(0);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.partition_for(&Value::Int(42)), 0);
    }

    #[test]
    fn range_partitioner_orders_keys() {
        let sample: Vec<Value> = (0..100).map(Value::Int).collect();
        let p = RangePartitioner::from_sample(sample, 4, true);
        assert_eq!(p.num_partitions(), 4);
        // Partition index must be monotone in the key.
        let mut last = 0;
        for k in 0..100 {
            let part = p.partition_for(&Value::Int(k));
            assert!(part >= last);
            last = part;
        }
        assert_eq!(p.partition_for(&Value::Int(0)), 0);
        assert_eq!(p.partition_for(&Value::Int(99)), 3);
    }

    #[test]
    fn descending_range_partitioner_reverses() {
        let sample: Vec<Value> = (0..100).map(Value::Int).collect();
        let p = RangePartitioner::from_sample(sample, 4, false);
        assert_eq!(p.partition_for(&Value::Int(0)), 3);
        assert_eq!(p.partition_for(&Value::Int(99)), 0);
    }

    #[test]
    fn range_partitioner_handles_tiny_samples() {
        let p = RangePartitioner::from_sample(vec![Value::Int(5)], 4, true);
        // One distinct key cannot produce 3 distinct bounds; everything
        // still lands in a valid partition.
        let part = p.partition_for(&Value::Int(5));
        assert!(part < p.num_partitions());

        let empty = RangePartitioner::from_sample(vec![], 4, true);
        assert_eq!(empty.num_partitions(), 1);
        assert_eq!(empty.partition_for(&Value::Int(1)), 0);
    }

    #[test]
    fn columnar_partition_refuses_unhashable_keys() {
        let rows: Vec<Value> = (0..4)
            .map(|i| Value::vector(vec![f64::from(i), 1.0]))
            .collect();
        let batch = ColumnBatch::from_rows(&rows).expect("vectors encode");
        assert!(BucketedBlock::partition_columnar(&batch, 4).is_none());
    }

    #[test]
    fn flat_scan_matches_partition_bucket() {
        let rows: Vec<Value> = (0..100)
            .map(|i| Value::pair(Value::Int(i), Value::Int(i * 2)))
            .collect();
        let p = HashPartitioner::new(4);
        let bb = BucketedBlock::partition(&rows, 4);
        for part in 0..4 {
            let (scanned, bytes) = scan_flat_bucket(&rows, &p, part);
            assert_eq!(scanned, *bb.bucket(part).unwrap().to_rows());
            assert_eq!(bytes, bb.bucket_bytes(part));
        }
    }
}
