//! Criterion micro-benchmarks of engine hot paths: scheduler throughput,
//! shuffle partitioning, checkpoint store operations, and price-trace
//! lookups. These guard against performance regressions in the simulator
//! itself (wall-clock, not virtual time).

use std::collections::BTreeMap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use flint_engine::{
    radix_key_i64, radix_sort, AggKernel, BlockKey, BlockManager, Driver, DriverConfig,
    HashPartitioner, KeyExpr, MapKernel, NoCheckpoint, NoFailures, NumExpr, PartitionData,
    Partitioner, PayloadExpr, PredKernel, RddId, RddRef, ScalarExpr, ScriptedInjector, Value,
    WorkerEvent, WorkerSpec,
};
use flint_market::{MarketCatalog, TraceGenerator, TraceProfile};
use flint_simtime::{SimDuration, SimTime};
use flint_workloads::Tpch;

/// One 8-partition wide stage (map_partitions feeding a shuffle), the
/// workload shape the wave executor parallelizes: all 8 shuffle-map
/// tasks become ready in a single wave. `stall` emulates a blocking
/// data-source read per partition (zero for the pure CPU-bound variant).
fn wide_stage(host_threads: usize, stall: std::time::Duration) -> u64 {
    let mut d = Driver::new(
        DriverConfig::builder().host_threads(host_threads).build(),
        Box::new(NoCheckpoint),
        Box::new(NoFailures),
    );
    for _ in 0..4 {
        d.add_worker(WorkerSpec::r3_large());
    }
    let src = d.ctx().parallelize((0..8_000).map(Value::from_i64), 8);
    let hashed = d.ctx().map_partitions(src, 4.0, move |_, data| {
        if !stall.is_zero() {
            std::thread::sleep(stall);
        }
        data.iter()
            .map(|v| {
                // splitmix-style finalizer iterated to simulate a
                // CPU-bound kernel (~µs per element of real work).
                let mut x = v.as_i64().unwrap_or(0) as u64 ^ 0x9e37_79b9_7f4a_7c15;
                for _ in 0..400 {
                    x ^= x >> 33;
                    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
                    x ^= x >> 29;
                }
                Value::pair(Value::Int((x % 16) as i64), Value::Int((x % 1_000) as i64))
            })
            .collect()
    });
    let reduced = d.ctx().reduce_by_key(hashed, 8, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    d.count(reduced).unwrap()
}

/// Sequential-vs-parallel wave execution on the same wide stage, plus
/// one-shot speedup reports (the acceptance gate is >= 2x at 8 threads).
/// Two variants: a pure CPU-bound kernel, whose speedup tracks the
/// machine's core count, and a kernel with a blocking source read, whose
/// tasks overlap on any machine (that one carries the gate on 1-core
/// hosts).
fn bench_wave_executor(c: &mut Criterion) {
    let stall = std::time::Duration::from_millis(10);
    c.bench_function("wide_stage_8p_cpu_host_threads_1", |b| {
        b.iter(|| wide_stage(1, std::time::Duration::ZERO))
    });
    c.bench_function("wide_stage_8p_cpu_host_threads_8", |b| {
        b.iter(|| wide_stage(8, std::time::Duration::ZERO))
    });
    c.bench_function("wide_stage_8p_blocking_host_threads_1", |b| {
        b.iter(|| wide_stage(1, stall))
    });
    c.bench_function("wide_stage_8p_blocking_host_threads_8", |b| {
        b.iter(|| wide_stage(8, stall))
    });
    let timed = |threads: usize, stall: std::time::Duration| {
        let t0 = std::time::Instant::now();
        let n = wide_stage(threads, stall);
        (t0.elapsed(), n)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (label, s) in [
        ("cpu-bound", std::time::Duration::ZERO),
        ("blocking-source", stall),
    ] {
        let (seq, n1) = timed(1, s);
        let (par, n8) = timed(8, s);
        assert_eq!(n1, n8, "parallel wave changed the answer");
        println!(
            "wave executor {label} wide-stage speedup (8 vs 1 host threads, \
             {cores} cores): {:.2}x ({:?} -> {:?})",
            seq.as_secs_f64() / par.as_secs_f64().max(1e-9),
            seq,
            par
        );
    }
}

/// An M-maps-by-R-reduces shuffle with distinct keys (so map-side
/// combine collapses nothing): each of `parts` map partitions produces
/// `records_per_map` pairs that are grouped into `parts` reduce
/// partitions. The reduce-side fetch path dominates; single host thread
/// so the measurement is pure per-task cost, not parallel speedup.
fn shuffle_stage(parts: u32, records_per_map: i64) -> u64 {
    let mut d = Driver::new(
        DriverConfig::builder().host_threads(1).build(),
        Box::new(NoCheckpoint),
        Box::new(NoFailures),
    );
    for _ in 0..4 {
        d.add_worker(WorkerSpec::r3_large());
    }
    let n = i64::from(parts) * records_per_map;
    let src = d.ctx().parallelize((0..n).map(Value::from_i64), parts);
    let pairs = d.ctx().map(src, |v| Value::pair(v.clone(), Value::Int(1)));
    let grouped = d.ctx().group_by_key(pairs, parts);
    d.count(grouped).unwrap()
}

/// A balanced `Pair` tree five levels deep: 31 interior pairs over 32
/// `(Int, Str)` leaves, ~127 nodes in all. The pair *spine* is the part
/// of a record a structural copy must duplicate node-by-node (and a
/// recursive sizing walk must re-visit on every accounting pass), so
/// the record-path benches below measure per-record copy and sizing
/// cost through shuffle and checkpoint plumbing, not construction.
fn deep_record(seed: i64) -> Value {
    fn tree(seed: i64, depth: u32) -> Value {
        if depth == 0 {
            return Value::pair(
                Value::Int(seed),
                Value::from_str_(&format!("payload-{seed:016}")),
            );
        }
        Value::pair(
            tree(seed.wrapping_mul(2) + 1, depth - 1),
            tree(seed.wrapping_mul(2) + 2, depth - 1),
        )
    }
    tree(seed, 4)
}

/// `group_by_key` over deep nested records: every record crosses the
/// map-output bucketing, the reduce-side fetch, and the group-building
/// aggregation, so per-record copy cost dominates.
fn groupby_deep_pairs() -> u64 {
    let mut d = Driver::new(
        DriverConfig::builder().host_threads(1).build(),
        Box::new(NoCheckpoint),
        Box::new(NoFailures),
    );
    for _ in 0..4 {
        d.add_worker(WorkerSpec::r3_large());
    }
    let src = d.ctx().parallelize((0..2_400).map(Value::from_i64), 8);
    let pairs = d.ctx().map(src, |v| {
        let i = v.as_i64().unwrap();
        Value::pair(Value::Int(i % 48), deep_record(i))
    });
    let grouped = d.ctx().group_by_key(pairs, 16);
    d.count(grouped).unwrap()
}

/// An inner join where both sides carry fat payloads and every output
/// record repeats a shared key: the cogroup + cross-product path copies
/// each key and value once per joined combination.
fn join_shared_keys() -> u64 {
    let mut d = Driver::new(
        DriverConfig::builder().host_threads(1).build(),
        Box::new(NoCheckpoint),
        Box::new(NoFailures),
    );
    for _ in 0..4 {
        d.add_worker(WorkerSpec::r3_large());
    }
    let src_a = d.ctx().parallelize((0..1_200).map(Value::from_i64), 8);
    let left = d.ctx().map(src_a, |v| {
        let i = v.as_i64().unwrap();
        Value::pair(
            Value::from_str_(&format!("customer-key-{:06}", i % 40)),
            deep_record(i),
        )
    });
    let src_b = d.ctx().parallelize((0..1_200).map(Value::from_i64), 8);
    let right = d.ctx().map(src_b, |v| {
        let i = v.as_i64().unwrap();
        Value::pair(
            Value::from_str_(&format!("customer-key-{:06}", i % 40)),
            Value::vector((0..8).map(|k| (i + k) as f64).collect()),
        )
    });
    let joined = d.ctx().join(left, right, 8);
    d.count(joined).unwrap()
}

/// Checkpoint a deep-record RDD, lose the whole cluster, and re-read it
/// from the durable store: measures the serialize (wire sizing) walk on
/// write plus the restore path on read.
fn checkpoint_restore_roundtrip() -> u64 {
    let remove_at = SimTime::from_hours_f64(1.0);
    let add_at = SimTime::from_hours_f64(1.1);
    let mut events: Vec<(SimTime, WorkerEvent)> = (1..=4u64)
        .map(|ext| (remove_at, WorkerEvent::Remove { ext_id: ext }))
        .collect();
    events.extend((10..=13u64).map(|ext| {
        (
            add_at,
            WorkerEvent::Add {
                ext_id: ext,
                spec: WorkerSpec::r3_large(),
            },
        )
    }));
    let mut d = Driver::new(
        DriverConfig::builder().host_threads(1).build(),
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(events)),
    );
    for ext in 1..=4u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let src = d.ctx().parallelize((0..1_600).map(Value::from_i64), 8);
    let recs = d.ctx().map(src, |v| {
        let i = v.as_i64().unwrap();
        Value::pair(Value::Int(i % 64), deep_record(i))
    });
    d.checkpoint_now(recs).unwrap();
    d.idle_until(SimTime::from_hours_f64(1.2)).unwrap();
    d.count(recs).unwrap()
}

fn bench_record_path(c: &mut Criterion) {
    c.bench_function("groupby_deep_pairs", |b| b.iter(groupby_deep_pairs));
    c.bench_function("join_shared_keys", |b| b.iter(join_shared_keys));
    c.bench_function("checkpoint_restore_roundtrip", |b| {
        b.iter(checkpoint_restore_roundtrip)
    });
}

fn bench_shuffle_scaling(c: &mut Criterion) {
    c.bench_function("shuffle_16maps_x_16reduces", |b| {
        b.iter(|| shuffle_stage(16, 300))
    });
    c.bench_function("shuffle_64maps_x_64reduces", |b| {
        b.iter(|| shuffle_stage(64, 300))
    });
}

/// Sustained eviction churn: a small two-tier cache with thousands of
/// one-byte blocks pushed through it, interleaved with LRU touches. Every
/// insert past capacity evicts memory→disk and drops from disk, so this
/// measures the eviction-victim selection path.
fn bench_eviction_churn(c: &mut Criterion) {
    let empty: PartitionData = Arc::new(Vec::new());
    c.bench_function("block_manager_eviction_churn_4k", |b| {
        b.iter(|| {
            let mut bm = BlockManager::new(500, 500);
            let mut acc = 0u64;
            for i in 0..4000u32 {
                let k = BlockKey::RddPart {
                    rdd: RddId(0),
                    part: i,
                };
                bm.insert(k, empty.clone(), 1);
                // Re-touch an older block so the LRU order keeps churning.
                bm.touch(&BlockKey::RddPart {
                    rdd: RddId(0),
                    part: i / 2,
                });
                acc += bm.mem_used();
            }
            acc
        })
    });
}

/// A single-thread driver with the columnar batch path switched on or
/// off — the before/after axis for the vectorized-kernel benches.
fn kernel_driver(columnar: bool) -> Driver {
    let mut d = Driver::new(
        DriverConfig::builder()
            .host_threads(1)
            .columnar(columnar)
            .build(),
        Box::new(NoCheckpoint),
        Box::new(NoFailures),
    );
    for _ in 0..4 {
        d.add_worker(WorkerSpec::r3_large());
    }
    d
}

/// Synthetic lineitem rows `[orderkey, qty, price, disc, flag, status,
/// shipdate]`, the TPC-H scan shape.
fn gen_lineitem(n: i64) -> Vec<Value> {
    let flags = ["A", "N", "R"];
    let statuses = ["F", "O"];
    (0..n)
        .map(|i| {
            Value::list(vec![
                Value::Int(i % 4096),
                Value::Float(((i * 7) % 50) as f64 + 1.0),
                Value::Float(((i * 131) % 1000) as f64 * 10.0 + 900.0),
                Value::Float(((i * 3) % 11) as f64 / 100.0),
                Value::from_str_(flags[(i % 3) as usize]),
                Value::from_str_(statuses[(i % 2) as usize]),
                Value::Int((i * 37) % 2557),
            ])
        })
        .collect()
}

/// Persists `rows` as an 8-partition in-memory table and materializes it,
/// the way KMeans and PageRank hold their inputs: the source is loaded
/// once and iterations run from memory. With `columnar` on the cached
/// blocks hold the typed column batches, so the query benches below
/// measure kernel execution against the resident form rather than the
/// one-time encode.
fn prep_table(columnar: bool, rows: &[Value]) -> (Driver, RddRef) {
    let mut d = kernel_driver(columnar);
    let src = d.ctx().parallelize(rows.to_vec(), 8);
    d.ctx().persist(src);
    d.count(src).unwrap();
    (d, src)
}

/// The TPC-H table shape: `rows` through `Tpch::prepare`'s own
/// de-serialize pass before the persist, so the scan bench runs against
/// what `flint run tpch` queries. (Persisting the source directly, as
/// this bench once did, measured a table the product never had.)
fn prep_tpch_table(columnar: bool, rows: &[Value]) -> (Driver, RddRef) {
    let mut d = kernel_driver(columnar);
    let table = Tpch::load_table(&mut d, rows.to_vec(), 8).unwrap();
    (d, table)
}

/// TPC-H Q1-shaped scan + aggregation over a prepared lineitem table:
/// shipdate filter, revenue projection keyed by `(returnflag,
/// linestatus)`, and a combiner shuffle — the whole pipeline runs
/// vectorized when the driver is columnar and through the
/// kernel-generated row closures when not.
fn tpch_scan_agg(d: &mut Driver, lineitem: RddRef) -> u64 {
    let filtered = d.ctx().filter_kernel(
        lineitem,
        PredKernel::IntLe {
            field: 6,
            max: 2400,
        },
    );
    let keyed = d.ctx().map_kernel(
        filtered,
        MapKernel::Pair {
            key: KeyExpr::PairOfFields(4, 5),
            val: PayloadExpr::Scalar(ScalarExpr::Num(NumExpr::Mul(
                Box::new(NumExpr::Field(2)),
                Box::new(NumExpr::Sub(
                    Box::new(NumExpr::Lit(1.0)),
                    Box::new(NumExpr::Field(3)),
                )),
            ))),
        },
    );
    let agg = d.ctx().reduce_by_key_kernel(keyed, 8, AggKernel::SumFloat);
    d.count(agg).unwrap()
}

/// The KMeans assignment stage: a nearest-center distance scan over
/// dense 16-dim points plus the per-cluster vector-sum shuffle.
fn kmeans_assign(d: &mut Driver, points: RddRef, centers: &Arc<Vec<Vec<f64>>>) -> u64 {
    let assigned = d.ctx().map_partitions_kernel(
        points,
        4.0,
        MapKernel::NearestCenter {
            centers: Arc::clone(centers),
        },
    );
    let sums = d
        .ctx()
        .reduce_by_key_kernel(assigned, 10, AggKernel::VecSumCount);
    d.count(sums).unwrap()
}

/// One PageRank iteration's vectorized half over pre-built contribution
/// edges: the `Σ contributions` combiner shuffle plus the
/// `0.15 + 0.85·s` rank-update map.
fn pagerank_edge_scan(d: &mut Driver, contribs: RddRef) -> u64 {
    let summed = d
        .ctx()
        .reduce_by_key_kernel(contribs, 8, AggKernel::SumFloat);
    let ranks = d.ctx().map_kernel(
        summed,
        MapKernel::Pair {
            key: KeyExpr::PairKey,
            val: PayloadExpr::Scalar(ScalarExpr::Num(NumExpr::Add(
                Box::new(NumExpr::Lit(0.15)),
                Box::new(NumExpr::Mul(
                    Box::new(NumExpr::Lit(0.85)),
                    Box::new(NumExpr::Input),
                )),
            ))),
        },
    );
    d.count(ranks).unwrap()
}

/// The columnar-vs-row kernel benches, plus a one-shot `[min, mean,
/// max]` report per pipeline in the `BENCH_columnar.json` shape (the
/// acceptance gate is >= 2x mean speedup on the TPC-H scan+agg).
fn bench_columnar_kernels(c: &mut Criterion) {
    let lineitem = gen_lineitem(1_000_000);
    let points: Vec<Value> = (0..60_000i64)
        .map(|i| Value::vector((0..16).map(|k| ((i * 31 + k * 7) % 100) as f64).collect()))
        .collect();
    let centers: Arc<Vec<Vec<f64>>> = Arc::new(
        (0..10i64)
            .map(|c| (0..16).map(|k| ((c * 17 + k * 13) % 100) as f64).collect())
            .collect(),
    );
    let contribs: Vec<Value> = (0..600_000i64)
        .map(|i| {
            Value::pair(
                Value::Int(i % 4096),
                Value::Float(((i * 13) % 64) as f64 / 64.0),
            )
        })
        .collect();

    {
        let (mut d, li) = prep_tpch_table(true, &lineitem);
        c.bench_function("tpch_scan_agg_1m", |b| b.iter(|| tpch_scan_agg(&mut d, li)));
    }
    {
        let (mut d, li) = prep_tpch_table(false, &lineitem);
        c.bench_function("tpch_scan_agg_1m_row", |b| {
            b.iter(|| tpch_scan_agg(&mut d, li))
        });
    }
    {
        let (mut d, pts) = prep_table(true, &points);
        c.bench_function("kmeans_assign_batch", |b| {
            b.iter(|| kmeans_assign(&mut d, pts, &centers))
        });
    }
    {
        let (mut d, pts) = prep_table(false, &points);
        c.bench_function("kmeans_assign_batch_row", |b| {
            b.iter(|| kmeans_assign(&mut d, pts, &centers))
        });
    }
    {
        let (mut d, edges) = prep_table(true, &contribs);
        c.bench_function("pagerank_edge_scan", |b| {
            b.iter(|| pagerank_edge_scan(&mut d, edges))
        });
    }
    {
        let (mut d, edges) = prep_table(false, &contribs);
        c.bench_function("pagerank_edge_scan_row", |b| {
            b.iter(|| pagerank_edge_scan(&mut d, edges))
        });
    }

    fn sample<F: FnMut() -> u64>(mut f: F) -> ((f64, f64, f64), u64) {
        let mut times = Vec::with_capacity(10);
        let mut check = 0u64;
        for i in 0..10 {
            let t0 = std::time::Instant::now();
            let n = f();
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            if i == 0 {
                check = n;
            } else {
                assert_eq!(check, n, "repeated query changed the answer");
            }
        }
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        ((min, mean, max), check)
    }
    let report = |name: &str, before: (f64, f64, f64), after: (f64, f64, f64)| {
        println!(
            "columnar {name}: before_ms [{:.2}, {:.2}, {:.2}] after_ms [{:.2}, {:.2}, {:.2}] speedup_mean {:.2}x",
            before.0, before.1, before.2, after.0, after.1, after.2,
            before.1 / after.1.max(1e-9)
        );
    };
    {
        let (mut dr, li) = prep_tpch_table(false, &lineitem);
        let (before, n_row) = sample(|| tpch_scan_agg(&mut dr, li));
        let (mut dc, li) = prep_tpch_table(true, &lineitem);
        let (after, n_col) = sample(|| tpch_scan_agg(&mut dc, li));
        assert_eq!(n_row, n_col, "columnar changed the tpch answer");
        report("tpch_scan_agg_1m", before, after);
    }
    {
        let (mut dr, pts) = prep_table(false, &points);
        let (before, n_row) = sample(|| kmeans_assign(&mut dr, pts, &centers));
        let (mut dc, pts) = prep_table(true, &points);
        let (after, n_col) = sample(|| kmeans_assign(&mut dc, pts, &centers));
        assert_eq!(n_row, n_col, "columnar changed the kmeans answer");
        report("kmeans_assign_batch", before, after);
    }
    {
        let (mut dr, edges) = prep_table(false, &contribs);
        let (before, n_row) = sample(|| pagerank_edge_scan(&mut dr, edges));
        let (mut dc, edges) = prep_table(true, &contribs);
        let (after, n_col) = sample(|| pagerank_edge_scan(&mut dc, edges));
        assert_eq!(n_row, n_col, "columnar changed the pagerank answer");
        report("pagerank_edge_scan", before, after);
    }
}

/// Per-key `f64` sums by probing a map once per record: the row path's
/// `BTreeMap<Value, Value>` and the typed `BTreeMap<K, _>` are both this.
fn tree_fold<K: Ord>(keys: impl Iterator<Item = K>, vals: &[f64]) -> Vec<f64> {
    let mut acc: BTreeMap<K, f64> = BTreeMap::new();
    for (k, v) in keys.zip(vals) {
        *acc.entry(k).or_insert(0.0) += v;
    }
    acc.into_values().collect()
}

/// The same sums by a stable sort of `(key, row)` and one fold per run of
/// equal keys.
fn sort_fold<K: Ord + Copy>(keys: impl Iterator<Item = K>, vals: &[f64]) -> Vec<f64> {
    let mut recs: Vec<(K, u32)> = keys.zip(0u32..).collect();
    recs.sort_by_key(|r| r.0);
    fold_runs(recs, vals)
}

/// `sort_fold` with the engine's stable radix sort in place of the
/// comparison sort: what `typed_agg` does for `Int` keys.
fn radix_fold(keys: &[i64], vals: &[f64]) -> Vec<f64> {
    let mut recs: Vec<(i64, u32)> = keys.iter().copied().zip(0u32..).collect();
    radix_sort(&mut recs, |r| radix_key_i64(r.0));
    fold_runs(recs, vals)
}

fn fold_runs<K: PartialEq>(sorted: Vec<(K, u32)>, vals: &[f64]) -> Vec<f64> {
    let mut sums: Vec<f64> = Vec::new();
    let mut open: Option<K> = None;
    for (k, i) in sorted {
        if open.as_ref() != Some(&k) {
            open = Some(k);
            sums.push(0.0);
        }
        *sums.last_mut().expect("a run is open") += vals[i as usize];
    }
    sums
}

/// The evidence for the one rule in `typed_agg` (DESIGN.md §16: a radix
/// sort-fold for fixed-width keys, a tree for string keys): ns per record
/// of a keyed `f64` sum over 8 192 records — the row path's
/// `BTreeMap<Value, Value>` with the kernel's combine closure, a typed
/// tree, a typed comparison sort + fold, and (`Int` keys only) the
/// engine's radix sort + fold — at 4, 64 and 4 096 distinct keys, for
/// `Int` keys and for `(Str, Str)` keys. One line per cell; the table is
/// in EXPERIMENTS.md.
fn bench_keyed_agg(_c: &mut Criterion) {
    const N: usize = 8_192;
    fn ns_per_record(mut f: impl FnMut() -> Vec<f64>) -> (f64, Vec<f64>) {
        let out = f();
        let mut times: Vec<f64> = (0..41)
            .map(|_| {
                let t0 = std::time::Instant::now();
                criterion::black_box(f());
                t0.elapsed().as_nanos() as f64 / N as f64
            })
            .collect();
        times.sort_by(f64::total_cmp);
        (times[times.len() / 2], out)
    }
    let row_tree = |rows: &[Value]| {
        let kernel = AggKernel::SumFloat;
        let mut acc: BTreeMap<Value, Value> = BTreeMap::new();
        for r in rows {
            let (k, v) = (r.key().expect("pair"), r.val().expect("pair"));
            match acc.get_mut(k) {
                Some(a) => *a = kernel.combine_values(a, v),
                None => {
                    acc.insert(k.clone(), v.clone());
                }
            }
        }
        acc.values().map(|v| v.as_f64().expect("float")).collect()
    };
    let vals: Vec<f64> = (0..N).map(|i| ((i * 13) % 64) as f64 / 64.0).collect();
    for distinct in [4usize, 64, 4_096] {
        // Multiplicative scatter, so equal keys are not adjacent.
        let ids: Vec<usize> = (0..N).map(|i| (i * 2_654_435_761) % distinct).collect();

        let ints: Vec<i64> = ids.iter().map(|&k| k as i64).collect();
        let rows: Vec<Value> = ints
            .iter()
            .zip(&vals)
            .map(|(k, v)| Value::pair(Value::Int(*k), Value::Float(*v)))
            .collect();
        let (row, want) = ns_per_record(|| row_tree(&rows));
        let (tree, got_tree) = ns_per_record(|| tree_fold(ints.iter().copied(), &vals));
        let (sort, got_sort) = ns_per_record(|| sort_fold(ints.iter().copied(), &vals));
        let (radix, got_radix) = ns_per_record(|| radix_fold(&ints, &vals));
        assert!(
            got_tree == want && got_sort == want && got_radix == want,
            "folds disagree"
        );
        println!(
            "keyed_agg Int     distinct {distinct:>5}: row_tree {row:6.1}  typed_tree {tree:6.1}  sort_fold {sort:6.1}  radix_fold {radix:6.1}  ns/record"
        );

        let strs: Vec<(Arc<str>, Arc<str>)> = ids
            .iter()
            .map(|&k| {
                (
                    format!("k{:03}", k / 8).into(),
                    format!("s{}", k % 8).into(),
                )
            })
            .collect();
        let rows: Vec<Value> = strs
            .iter()
            .zip(&vals)
            .map(|((a, b), v)| {
                let key = Value::pair(Value::Str(Arc::clone(a)), Value::Str(Arc::clone(b)));
                Value::pair(key, Value::Float(*v))
            })
            .collect();
        let (row, want) = ns_per_record(|| row_tree(&rows));
        let (tree, got_tree) = ns_per_record(|| tree_fold(strs.iter().cloned(), &vals));
        let (sort, got_sort) =
            ns_per_record(|| sort_fold(strs.iter().map(|(a, b)| (&**a, &**b)), &vals));
        assert!(got_tree == want && got_sort == want, "folds disagree");
        println!(
            "keyed_agg StrPair distinct {distinct:>5}: row_tree {row:6.1}  typed_tree {tree:6.1}  sort_fold {sort:6.1}  ns/record"
        );
    }
}

fn bench_wordcount_job(c: &mut Criterion) {
    c.bench_function("engine_wordcount_2k_records", |b| {
        b.iter(|| {
            let mut d = Driver::local(4);
            let words = d.ctx().parallelize(
                (0..2000).map(|i| Value::from_str_(&format!("w{}", i % 100))),
                8,
            );
            let pairs = d
                .ctx()
                .map(words, |w| Value::pair(w.clone(), Value::Int(1)));
            let counts = d.ctx().reduce_by_key(pairs, 8, |a, b| {
                Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
            });
            d.count(counts).unwrap()
        })
    });
}

fn bench_hash_partitioner(c: &mut Criterion) {
    let keys: Vec<Value> = (0..10_000).map(Value::from_i64).collect();
    let p = HashPartitioner::new(32);
    c.bench_function("hash_partition_10k_keys", |b| {
        b.iter(|| keys.iter().map(|k| p.partition_for(k)).sum::<u32>())
    });
}

fn bench_trace_lookup(c: &mut Criterion) {
    let gen = TraceGenerator::new(1, SimTime::ZERO + SimDuration::from_days(365));
    let trace = gen.generate("bench", &TraceProfile::volatile(0.35));
    c.bench_function("price_trace_lookup_1k", |b| {
        b.iter(|| {
            (0..1000u64)
                .map(|i| trace.price_at(SimTime::from_hours_f64(i as f64 * 8.0)))
                .sum::<f64>()
        })
    });
}

fn bench_catalog_generation(c: &mut Criterion) {
    c.bench_function("synthetic_ec2_catalog_30d", |b| {
        b.iter(|| {
            MarketCatalog::synthetic_ec2(7, SimDuration::from_days(30))
                .markets()
                .len()
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = bench_keyed_agg, bench_wave_executor, bench_record_path, bench_shuffle_scaling, bench_eviction_churn, bench_columnar_kernels, bench_wordcount_job, bench_hash_partitioner, bench_trace_lookup, bench_catalog_generation
);
criterion_main!(micro);
