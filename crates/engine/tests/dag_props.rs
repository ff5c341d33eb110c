//! Property test: for randomly generated small DAGs of
//! map/filter/reduce_by_key/sort_by_key/join chains, parallel wave
//! execution (`host_threads = 8`) is observably identical to sequential
//! execution (`host_threads = 1`) — same collected values, same
//! statistics, same virtual finish time.

use flint_engine::{
    scan_flat_bucket, BucketedBlock, Driver, DriverConfig, HashPartitioner, NoCheckpoint,
    NoFailures, Partitioner, RangePartitioner, RddRef, Value, WorkerSpec,
};
use proptest::prelude::*;

/// One step of a randomly generated pipeline. Every step consumes and
/// produces an RDD of `Pair(Int, Int)` records so steps compose freely.
#[derive(Debug, Clone, Copy)]
enum OpCode {
    MapShiftKey(i64),
    FilterValueMod(i64),
    ReduceByKey(u8),
    SortByKey(u8, bool),
    JoinWithEarlier(u8),
    SampleHalf(u64),
}

fn op_strategy() -> impl Strategy<Value = OpCode> {
    prop_oneof![
        (1i64..20).prop_map(OpCode::MapShiftKey),
        (2i64..6).prop_map(OpCode::FilterValueMod),
        (2u8..7).prop_map(OpCode::ReduceByKey),
        (2u8..5, proptest::bool::ANY).prop_map(|(p, asc)| OpCode::SortByKey(p, asc)),
        (2u8..5).prop_map(OpCode::JoinWithEarlier),
        (1u64..1000).prop_map(OpCode::SampleHalf),
    ]
}

/// Builds the pipeline and returns the sorted output plus run totals.
fn run_dag(host_threads: usize, seed: i64, ops: &[OpCode]) -> (Vec<Value>, String) {
    let mut d = Driver::new(
        DriverConfig::builder().host_threads(host_threads).build(),
        Box::new(NoCheckpoint),
        Box::new(NoFailures),
    );
    for _ in 0..4 {
        d.add_worker(WorkerSpec::r3_large());
    }
    let src = d.ctx().parallelize(
        (0..240).map(|i| {
            Value::pair(
                Value::Int((i * seed) % 17),
                Value::Int((i * 31 + seed) % 101),
            )
        }),
        6,
    );
    let mut stages: Vec<RddRef> = vec![src];
    let mut cur = src;
    for (i, op) in ops.iter().enumerate() {
        cur = match *op {
            OpCode::MapShiftKey(s) => d.ctx().map(cur, move |v| {
                let (k, val) = v.clone().into_pair().unwrap();
                Value::pair(Value::Int((k.as_i64().unwrap() + s) % 23), val)
            }),
            OpCode::FilterValueMod(m) => d.ctx().filter(cur, move |v| {
                v.key()
                    .map(|k| k.as_i64().unwrap_or(0) % m != 0)
                    .unwrap_or(false)
            }),
            OpCode::ReduceByKey(parts) => d.ctx().reduce_by_key(cur, parts as u32, |a, b| {
                Value::Int(a.as_i64().unwrap_or(0) + b.as_i64().unwrap_or(0))
            }),
            OpCode::SortByKey(parts, asc) => d.ctx().sort_by_key(cur, parts as u32, asc),
            OpCode::JoinWithEarlier(parts) => {
                let earlier = stages[i % stages.len()];
                let joined = d.ctx().join(cur, earlier, parts as u32);
                // Flatten the joined (v, w) payload back to Int so the
                // pipeline shape stays uniform.
                d.ctx()
                    .map_values(joined, |vw| Value::Int(i64::from(vw.size_bytes() as u32)))
            }
            OpCode::SampleHalf(s) => d.ctx().sample(cur, 0.5, s),
        };
        stages.push(cur);
    }
    let mut out = d.collect(cur).unwrap();
    out.sort();
    let fingerprint = format!("{:?} @ {:?}", d.stats(), d.now());
    (out, fingerprint)
}

/// The pre-bucketing reduce-side fetch: scan every record, keep those
/// the partitioner assigns to `part`, in production order, summing
/// their payload bytes. `BucketedBlock` (hash shuffles) and
/// `scan_flat_bucket` (range shuffles) must reproduce this exactly.
fn reference_scan(records: &[Value], p: &dyn Partitioner, part: u32) -> (Vec<Value>, u64) {
    let mut out = Vec::new();
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

/// Asserts that a bucketed block serves every reduce partition with the
/// same records, same order, and same byte accounting as the scan.
fn assert_buckets_match_scan(records: &[Value], parts: u32) {
    let p = &HashPartitioner::new(parts);
    let bb = BucketedBlock::partition(records, parts);
    assert_eq!(bb.num_buckets(), p.num_partitions());
    let mut total_records = 0usize;
    let mut total_bytes = 0u64;
    for part in 0..p.num_partitions() {
        let (want, want_bytes) = reference_scan(records, p, part);
        assert_eq!(
            &bb.bucket(part).expect("in range").to_rows()[..],
            want.as_slice(),
            "bucket {part} records"
        );
        assert_eq!(bb.bucket_bytes(part), want_bytes, "bucket {part} bytes");
        total_records += want.len();
        total_bytes += want_bytes;
    }
    assert_eq!(bb.len(), total_records, "no record lost or duplicated");
    assert_eq!(bb.payload_bytes(), total_bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel wave execution of a random DAG is bit-identical to
    /// sequential execution, in both results and accounting.
    #[test]
    fn parallel_equals_sequential(
        seed in 1i64..40,
        ops in proptest::collection::vec(op_strategy(), 1..6),
    ) {
        let (seq_out, seq_fp) = run_dag(1, seed, &ops);
        let (par_out, par_fp) = run_dag(8, seed, &ops);
        prop_assert_eq!(par_out, seq_out);
        prop_assert_eq!(par_fp, seq_fp);
    }

    /// Both reduce-side fetch paths — the bucket of a hash-bucketed map
    /// block, and `scan_flat_bucket` over a range shuffle's row block
    /// (ascending and descending) — are observably identical to the old
    /// scan-per-reduce-partition path, including byte accounting, on
    /// arbitrary mixes of pair and non-pair records.
    #[test]
    fn bucketed_block_equals_reference_scan(
        keys in proptest::collection::vec(-50i64..50, 0..120),
        parts in 1u32..9,
        sample_stride in 1usize..7,
    ) {
        let records: Vec<Value> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                if i % 11 == 3 {
                    // Non-pair records partition by their own value.
                    Value::Int(*k)
                } else {
                    Value::pair(Value::Int(*k), Value::Int(i as i64))
                }
            })
            .collect();
        assert_buckets_match_scan(&records, parts);
        let sample: Vec<Value> = records
            .iter()
            .step_by(sample_stride)
            .map(|v| v.key().unwrap_or(v).clone())
            .collect();
        for ascending in [true, false] {
            let range = RangePartitioner::from_sample(sample.clone(), parts, ascending);
            for part in 0..range.num_partitions() {
                prop_assert_eq!(
                    scan_flat_bucket(&records, &range, part),
                    reference_scan(&records, &range, part),
                    "range partition {}", part
                );
            }
        }
    }
}
