//! Property tests of the columnar batch path:
//!
//! * **Round-trip identity** — `ColumnBatch::from_rows` followed by
//!   `to_rows` reproduces the record sequence exactly, and the batch's
//!   per-row and total virtual sizes match `Value::size_bytes` constant
//!   for constant. The columnar form is a layout, not a semantic: every
//!   observable the engine derives from records (eviction order, τ
//!   estimation, checkpoint accounting) reads identically off either
//!   representation.
//! * **Kernel-vs-reference equivalence** — the same kernel-declared
//!   pipeline run with columnar execution on and off produces
//!   byte-identical results *and* byte-identical `RunStats`: the
//!   vectorized kernels and the row-at-a-time fallback are the same
//!   function, and every simulated duration (derived from vbytes) is
//!   bit-equal between the two paths. That holds when an opaque closure
//!   feeds the kernel-declared shuffle rows, which encode at its map side
//!   — or refuse to, and fall back; and for a join whose batch side
//!   buckets typed and is grouped off its key column, with a worker lost
//!   mid-job.
//! * **Form-blind checkpoint store** — putting a partition as a batch
//!   and as rows gives the same sizes, the same fate under write and
//!   read faults, and the same records back.
//! * **Form-blind `Records`** — `Records::Rows` and `Records::Col` of
//!   the same rows report the same sizes, decode to the same rows, and
//!   hash-partition into the same buckets with the same byte sums.

use std::sync::Arc;

use flint_engine::{
    AggKernel, BlockData, BlockKey, BucketedBlock, CheckpointStore, ColumnBatch, ColumnStats,
    Driver, DriverConfig, FlatMapKernel, KeyExpr, MapKernel, NoCheckpoint, NoFailures, NumExpr,
    PayloadExpr, PredKernel, RddId, RddRef, Records, RunStats, ScalarExpr, ScriptedInjector,
    StoreFaultPolicy, TraceHandle, Value, WorkerEvent, WorkerSpec, WriteFault,
};
use flint_simtime::{SimDuration, SimTime};
use flint_store::StorageConfig;
use flint_trace::MemoryReader;
use proptest::prelude::*;

/// Records that have a columnar layout (scalars, fixed-schema lists,
/// pairs of scalars) plus shapes that must stay on the row path (nested
/// lists, mixed types) — `from_rows` decides which is which.
fn arb_record() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::from_i64),
        any::<f64>().prop_map(Value::from_f64),
        "[a-z]{0,6}".prop_map(|s| Value::from_str_(&s)),
        proptest::collection::vec(any::<f64>(), 0..4).prop_map(Value::vector),
        (any::<i64>(), any::<f64>())
            .prop_map(|(k, v)| { Value::pair(Value::from_i64(k), Value::from_f64(v)) }),
        ("[a-z]{0,4}", "[a-z]{0,4}")
            .prop_map(|(k, v)| { Value::pair(Value::from_str_(&k), Value::from_str_(&v)) }),
        (any::<i64>(), any::<f64>(), "[a-z]{0,4}").prop_map(|(a, b, c)| {
            Value::list(vec![
                Value::from_i64(a),
                Value::from_f64(b),
                Value::from_str_(&c),
            ])
        }),
        // Nested list payload: no columnar layout, must encode to None.
        (any::<i64>(), any::<i64>()).prop_map(|(a, b)| {
            Value::list(vec![
                Value::from_i64(a),
                Value::list(vec![Value::from_i64(b)]),
            ])
        }),
        Just(Value::Null),
    ]
}

/// Homogeneous lineitem-shaped rows: `[key, qty, price, date]`.
fn arb_table() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        (0..8i64, 0..50i64, 0..1000i64, 0..2557i64).prop_map(|(k, q, p, d)| {
            Value::list(vec![
                Value::Int(k),
                Value::Float(q as f64 + 0.5),
                Value::Float(p as f64 * 10.0 - 1000.0),
                Value::Int(d),
            ])
        }),
        1..96,
    )
}

/// Pair rows `(Int, Float)` for the shuffle-side paths.
fn arb_pairs() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        (0..12i64, -100..100i64)
            .prop_map(|(k, v)| Value::pair(Value::Int(k), Value::Float(v as f64 / 4.0))),
        1..96,
    )
}

/// Partitions that have a columnar encoding: lineitem rows, `(Int,
/// Float)` and `(Str, Float)` pairs, bare ints.
fn arb_encodable() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        arb_table(),
        arb_pairs(),
        proptest::collection::vec(
            ("[a-z]{0,3}", -100..100i64)
                .prop_map(|(k, v)| Value::pair(Value::from_str_(&k), Value::Float(v as f64 * 0.5))),
            1..96,
        ),
        proptest::collection::vec((-50..50i64).prop_map(Value::Int), 1..96),
    ]
}

fn driver(columnar: bool) -> Driver {
    driver_with(4, columnar)
}

fn driver_with(host_threads: usize, columnar: bool) -> Driver {
    let cfg = DriverConfig::builder()
        .host_threads(host_threads)
        .size_scale(5e5)
        .columnar(columnar)
        .build();
    let mut d = Driver::new(cfg, Box::new(NoCheckpoint), Box::new(NoFailures));
    for _ in 0..4 {
        d.add_worker(WorkerSpec::r3_large());
    }
    d
}

/// Scan → project → hash-aggregate → sort, all declared through kernels;
/// the columnar flag selects vectorized vs row-at-a-time execution of
/// the *same* plan.
fn scan_agg(rows: &[Value], max_date: i64, columnar: bool) -> (Vec<Value>, RunStats) {
    let mut d = driver(columnar);
    let src = d.ctx().parallelize(rows.to_vec(), 4);
    let filtered = d.ctx().filter_kernel(
        src,
        PredKernel::IntLe {
            field: 3,
            max: max_date,
        },
    );
    let keyed = d.ctx().map_kernel(
        filtered,
        MapKernel::Pair {
            key: KeyExpr::Field(0),
            val: PayloadExpr::Scalar(ScalarExpr::Num(NumExpr::Mul(
                Box::new(NumExpr::Field(1)),
                Box::new(NumExpr::Field(2)),
            ))),
        },
    );
    let agg = d.ctx().reduce_by_key_kernel(keyed, 3, AggKernel::SumFloat);
    let sorted = d.ctx().sort_by_key(agg, 2, true);
    let out = d.collect(sorted).unwrap();
    (out, d.stats().clone())
}

/// What an opaque closure may hand a kernel-declared shuffle besides
/// clean `(Int, Float)` pairs.
#[derive(Debug, Clone)]
enum Poison {
    /// Nothing: every map partition encodes.
    Clean,
    /// One record's payload is an `Int`: its partition has no columnar
    /// layout (mixed payload column) and must stay rows.
    IntPayload(usize),
    /// One record is a bare `Float`, not a pair.
    Stray(usize),
    /// Every payload is an `Int`: the rows encode, the kernel declines
    /// the batch.
    AllInt,
}

fn arb_poison() -> impl Strategy<Value = Poison> {
    prop_oneof![
        Just(Poison::Clean),
        Just(Poison::Clean),
        any::<usize>().prop_map(Poison::IntPayload),
        any::<usize>().prop_map(Poison::Stray),
        Just(Poison::AllInt),
    ]
}

fn poisoned(mut rows: Vec<Value>, poison: &Poison) -> Vec<Value> {
    let int_payload = |v: &Value| {
        let (k, x) = (v.key().unwrap().clone(), v.val().unwrap().as_f64().unwrap());
        Value::pair(k, Value::Int(x as i64))
    };
    match poison {
        Poison::Clean => {}
        Poison::IntPayload(at) => {
            let i = at % rows.len();
            rows[i] = int_payload(&rows[i]);
        }
        Poison::Stray(at) => {
            let i = at % rows.len();
            rows[i] = Value::Float(i as f64);
        }
        Poison::AllInt => rows = rows.iter().map(int_payload).collect(),
    }
    rows
}

/// The shape PageRank had before `contribs` became a flat-map kernel: an
/// opaque `flat_map` (rows out, whatever came in) ahead of a
/// kernel-declared sum and a kernel-declared update of it.
/// The closure drops key 11 — a partition can come out empty — and
/// passes anything that is not a pair through.
fn closure_agg(
    rows: &[Value],
    host_threads: usize,
    columnar: bool,
) -> (Vec<Value>, RunStats, String) {
    let mut d = driver_with(host_threads, columnar);
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    let src = d.ctx().parallelize(rows.to_vec(), 4);
    let contribs = d.ctx().flat_map(src, |v| match v.key() {
        Some(Value::Int(11)) => vec![],
        Some(Value::Int(k)) => vec![
            v.clone(),
            Value::pair(Value::Int((k + 1) % 5), v.val().unwrap().clone()),
        ],
        _ => vec![v.clone()],
    });
    let summed = d
        .ctx()
        .reduce_by_key_kernel(contribs, 3, AggKernel::SumFloat);
    let updated = d.ctx().map_kernel(
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
    let out = d.collect(updated).unwrap();
    (out, d.stats().clone(), reader.to_jsonl())
}

/// group_by_key (no combiner) + descending sort over pair records.
fn group_sort(rows: &[Value], columnar: bool) -> (Vec<Value>, RunStats) {
    let mut d = driver(columnar);
    let src = d.ctx().parallelize(rows.to_vec(), 4);
    let grouped = d.ctx().group_by_key(src, 3);
    let sorted = d.ctx().sort_by_key(grouped, 2, false);
    let out = d.collect(sorted).unwrap();
    (out, d.stats().clone())
}

/// Which keys the two sides of [`keyed_join`] carry.
#[derive(Debug, Clone, Copy)]
enum JoinKeys {
    /// `Int` on both sides: the radix reduce over a batch and rows.
    Int,
    /// `Float` on both sides: `Float`-keyed buckets, grouped by the tree.
    Float,
    /// `Int` on the kernel side, `Float` on the closure side, so `Int(2)`
    /// and `Float(2.0)` meet as one key under `Value`'s order.
    Mixed,
}

fn arb_join_keys() -> impl Strategy<Value = JoinKeys> {
    prop_oneof![
        Just(JoinKeys::Int),
        Just(JoinKeys::Int),
        Just(JoinKeys::Float),
        Just(JoinKeys::Mixed),
    ]
}

/// `[Int key, Float key, Int payload]` rows; half the `Float` keys are
/// whole numbers, equal to an `Int` key.
fn arb_join_side() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        (0..12i64, -50..50i64).prop_map(|(k, v)| {
            Value::list(vec![
                Value::Int(k),
                Value::Float(k as f64 / 2.0),
                Value::Int(v),
            ])
        }),
        1..64,
    )
}

/// A traced four-worker driver whose worker on external id 1 is revoked
/// at `revoke_at` and replaced two minutes later.
fn revoked_driver(columnar: bool, revoke_at: SimTime) -> (Driver, MemoryReader) {
    let cfg = DriverConfig::builder()
        .host_threads(2)
        .size_scale(5e5)
        .columnar(columnar)
        .build();
    let script = vec![
        (revoke_at, WorkerEvent::Remove { ext_id: 1 }),
        (
            revoke_at + SimDuration::from_secs(120),
            WorkerEvent::Add {
                ext_id: 100,
                spec: WorkerSpec::r3_large(),
            },
        ),
    ];
    let mut d = Driver::new(
        cfg,
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(script)),
    );
    for ext in 1..=4 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    (d, reader)
}

/// `cogroup` and `join` of a `map_kernel`-keyed side (a batch under
/// `columnar`) with a row-closure-keyed side (always rows) on a
/// [`revoked_driver`]: `((cogroup, join), stats, trace, finish time)`.
fn keyed_join(
    a: &[Value],
    b: &[Value],
    keys: JoinKeys,
    columnar: bool,
    revoke_at: SimTime,
) -> ((Vec<Value>, Vec<Value>), RunStats, String, SimTime) {
    let (mut d, reader) = revoked_driver(columnar, revoke_at);
    let src_a = d.ctx().parallelize(a.to_vec(), 4);
    let key_field = match keys {
        JoinKeys::Int | JoinKeys::Mixed => 0,
        JoinKeys::Float => 1,
    };
    let kernel_keyed = d.ctx().map_kernel(
        src_a,
        MapKernel::Pair {
            key: KeyExpr::Field(key_field),
            val: PayloadExpr::Scalar(ScalarExpr::Field(2)),
        },
    );
    let src_b = d.ctx().parallelize(b.to_vec(), 3);
    let closure_keyed = d.ctx().map(src_b, move |row| {
        let c = row.as_list().expect("list row");
        let key = match keys {
            JoinKeys::Int => c[0].clone(),
            JoinKeys::Float | JoinKeys::Mixed => c[1].clone(),
        };
        Value::pair(
            key,
            Value::from_str_(&format!("b{}", c[2].as_i64().unwrap())),
        )
    });
    let grouped = d.ctx().cogroup(kernel_keyed, closure_keyed, 3);
    let joined = d.ctx().join(kernel_keyed, closure_keyed, 2);
    let grouped = d.collect(grouped).unwrap();
    let joined = d.collect(joined).unwrap();
    let finished = d.now();
    (
        (grouped, joined),
        d.stats().clone(),
        reader.to_jsonl(),
        finished,
    )
}

/// Records shaped like a cogroup's output as PageRank's `contribs` reads
/// it, and shapes it must emit nothing for: `(Int, [[adj, ..], [rank,
/// ..]])` with `Int` or `Float` destinations, empty adjacency lists,
/// an empty, `Int`-valued or missing rank side, a third side; pairs
/// whose payload is not a list of lists; non-pair records.
fn arb_cogroup_record() -> impl Strategy<Value = Value> {
    // One destination in seven is a `Float`.
    let dst = (0..7usize, -5..40i64).prop_map(|(pick, d)| match pick {
        0 => Value::Float(d as f64 / 2.0),
        _ => Value::Int(d),
    });
    let adj = proptest::collection::vec(dst, 0..6).prop_map(Value::list);
    let rank = (0..3usize, -100..100i64).prop_map(|(pick, r)| match pick {
        0 => Value::Float(r as f64 / 8.0),
        1 => Value::Int(r),
        _ => Value::from_str_("not a number"),
    });
    // A side is a list of 0–2 items, or (one time in five) not a list.
    fn side(item: impl Strategy<Value = Value>) -> impl Strategy<Value = Value> {
        (0..5usize, proptest::collection::vec(item, 0..3)).prop_map(|(pick, items)| match pick {
            0 => Value::Int(0),
            _ => Value::list(items),
        })
    }
    let groups = (side(adj), side(rank), 0..4usize).prop_map(|(a, r, shape)| match shape {
        0 => Value::list(vec![a]),
        1 => Value::list(vec![a, r.clone(), r]),
        _ => Value::list(vec![a, r]),
    });
    (0..11usize, -5..40i64, groups).prop_map(|(pick, k, groups)| match pick {
        0 => Value::pair(Value::Int(k), Value::Float(1.0)),
        1 => Value::Int(k),
        2 => Value::Null,
        _ => Value::pair(Value::Int(k), groups),
    })
}

/// PageRank's `contribs` closure as it stood before it was declared as
/// [`FlatMapKernel::ShareOverFirstList`], transcribed; a payload list
/// with fewer than two sides, which it indexed past, emits nothing.
fn contribs_closure(v: &Value) -> Vec<Value> {
    let Some(groups) = v.val().and_then(Value::as_list) else {
        return vec![];
    };
    if groups.len() < 2 {
        return vec![];
    }
    let (Some(adj), Some(rankside)) = (groups[0].as_list(), groups[1].as_list()) else {
        return vec![];
    };
    let Some(dsts) = adj.first().and_then(Value::as_list) else {
        return vec![];
    };
    let rank = rankside.first().and_then(Value::as_f64).unwrap_or(0.0);
    let share = rank / dsts.len().max(1) as f64;
    dsts.iter()
        .map(|d| Value::pair(d.clone(), Value::Float(share)))
        .collect()
}

/// A PageRank-shaped job over `(src, [dst, ..])` adjacency rows on a
/// [`revoked_driver`]: two iterations of cogroup → `flat_map_kernel` →
/// `SumFloat` → rank update: `(ranks, stats, trace, finish time, column
/// stats)`.
fn pagerank_shaped(
    links: &[Value],
    columnar: bool,
    revoke_at: SimTime,
) -> (Vec<Value>, RunStats, String, SimTime, ColumnStats) {
    let (mut d, reader) = revoked_driver(columnar, revoke_at);
    let links = d.ctx().parallelize(links.to_vec(), 4);
    d.ctx().persist(links);
    let rank_update = |input: NumExpr| MapKernel::Pair {
        key: KeyExpr::PairKey,
        val: PayloadExpr::Scalar(ScalarExpr::Num(input)),
    };
    let mut ranks = d.ctx().map_kernel(links, rank_update(NumExpr::Lit(1.0)));
    d.ctx().persist(ranks);
    for _ in 0..2 {
        let grouped = d.ctx().cogroup(links, ranks, 4);
        let contribs = d
            .ctx()
            .flat_map_kernel(grouped, FlatMapKernel::ShareOverFirstList);
        let summed = d
            .ctx()
            .reduce_by_key_kernel(contribs, 4, AggKernel::SumFloat);
        let damped = NumExpr::Add(
            Box::new(NumExpr::Lit(0.15)),
            Box::new(NumExpr::Mul(
                Box::new(NumExpr::Lit(0.85)),
                Box::new(NumExpr::Input),
            )),
        );
        ranks = d.ctx().map_kernel(summed, rank_update(damped));
        d.ctx().persist(ranks);
    }
    let out = d.collect(ranks).unwrap();
    let finished = d.now();
    (
        out,
        d.stats().clone(),
        reader.to_jsonl(),
        finished,
        d.column_stats(),
    )
}

/// 48 vertices, each linked to two to four others by a fixed stride
/// pattern (so no partition's adjacency lists share one length, and the
/// sources stay rows, as PageRank's do); vertex `float_at` (if any) also
/// links to `Float(7.0)`, which `Value`'s order equates with vertex 7.
fn adjacency(float_at: Option<i64>) -> Vec<Value> {
    (0..48i64)
        .map(|v| {
            let mut dsts: Vec<Value> = (1..=2 + v % 3)
                .map(|j| Value::Int((v * 7 + j * 13) % 48))
                .collect();
            if float_at == Some(v) {
                dsts.push(Value::Float(7.0));
            }
            Value::pair(Value::Int(v), Value::list(dsts))
        })
        .collect()
}

/// Writes meet the scripted faults in order (then succeed); reads fail
/// inside `[1 s, 2 s)`.
#[derive(Debug)]
struct ScriptedStore {
    writes: Vec<WriteFault>,
    next: usize,
}

impl StoreFaultPolicy for ScriptedStore {
    fn on_write(&mut self, _key: &str, _now: SimTime) -> WriteFault {
        self.next += 1;
        *self.writes.get(self.next - 1).unwrap_or(&WriteFault::None)
    }

    fn read_unavailable(&self, now: SimTime) -> bool {
        now >= SimTime::from_millis(1_000) && now < SimTime::from_millis(2_000)
    }
}

fn arb_write_fault() -> impl Strategy<Value = WriteFault> {
    prop_oneof![
        Just(WriteFault::None),
        Just(WriteFault::Torn),
        Just(WriteFault::Fail),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The checkpoint store cannot tell a batch partition from its row
    /// twin: same recorded vbytes, same wire size, same outcome
    /// of torn / failed writes and outage windows, same rows on `get`.
    #[test]
    fn checkpoint_store_is_form_blind(
        parts in proptest::collection::vec(arb_table(), 1..5),
        faults in proptest::collection::vec(arb_write_fault(), 0..8),
    ) {
        let n = parts.len() as u32;
        let store = || {
            let mut cs = CheckpointStore::new(StorageConfig::default());
            cs.set_fault_policy(Box::new(ScriptedStore { writes: faults.clone(), next: 0 }));
            cs
        };
        let (mut flat, mut col) = (store(), store());
        let rdd = RddId(0);
        // Two rounds, so a clean rewrite of a torn or lost object is
        // covered too.
        for round in 0..2u64 {
            for (p, rows) in parts.iter().enumerate() {
                let p = p as u32;
                let now = SimTime::from_millis(round * 10);
                let vbytes = 1_000 + u64::from(p);
                let as_rows = Records::Rows(Arc::new(rows.clone()));
                let as_batch = Records::Col(Arc::new(
                    ColumnBatch::from_rows(rows).expect("table rows must encode"),
                ));
                prop_assert_eq!(as_batch.wire_size(), as_rows.wire_size());
                prop_assert_eq!(
                    col.put(rdd, p, n, as_batch, vbytes, now),
                    flat.put(rdd, p, n, as_rows, vbytes, now)
                );
            }
        }
        prop_assert_eq!(col.is_fully_checkpointed(rdd), flat.is_fully_checkpointed(rdd));
        prop_assert_eq!(col.store().bytes_written(), flat.store().bytes_written());
        for (p, rows) in parts.iter().enumerate() {
            let p = p as u32;
            let key = BlockKey::RddPart { rdd, part: p };
            prop_assert_eq!(col.has(&key), flat.has(&key));
            prop_assert_eq!(col.size_of(rdd, p), flat.size_of(rdd, p));
            for ms in [0, 1_500, 2_000] {
                let now = SimTime::from_millis(ms);
                prop_assert_eq!(col.read_fault(&key, now), flat.read_fault(&key, now));
                prop_assert_eq!(col.readable(&key, now), flat.readable(&key, now));
            }
            match (col.get(rdd, p), flat.get(rdd, p)) {
                (Some(c), Some(f)) => {
                    prop_assert!(c.batch().is_some() && f.batch().is_none());
                    prop_assert_eq!(c.wire_size(), f.wire_size());
                    prop_assert_eq!(c.to_rows(), f.to_rows());
                    prop_assert_eq!(&*c.to_rows(), rows);
                }
                (None, None) => {}
                _ => prop_assert!(false, "one form landed, the other did not"),
            }
        }
    }

    /// Nothing that reads a `Records` through its own methods can tell
    /// the row form from the batch form of the same rows, and the hash
    /// map side buckets both identically.
    #[test]
    fn records_are_form_blind(rows in arb_encodable(), parts in 1u32..9) {
        let batch = ColumnBatch::from_rows(&rows).expect("encodable by construction");
        let as_rows = Records::Rows(Arc::new(rows.clone()));
        let as_col = Records::Col(Arc::new(batch.clone()));
        prop_assert_eq!(as_col.len(), as_rows.len());
        prop_assert_eq!(as_col.is_empty(), as_rows.is_empty());
        prop_assert_eq!(as_col.payload_bytes(), as_rows.payload_bytes());
        prop_assert_eq!(as_col.real_bytes(), as_rows.real_bytes());
        prop_assert_eq!(as_col.wire_size(), as_rows.wire_size());
        prop_assert_eq!(as_rows.wire_size(), flint_engine::wire_size(&rows));
        prop_assert_eq!(as_col.to_rows(), as_rows.to_rows());
        prop_assert_eq!(&*as_rows.to_rows(), &rows);

        let by_rows = BucketedBlock::partition(&rows, parts);
        let by_cols = BucketedBlock::partition_columnar(&batch, parts);
        // List rows have no typed routing key; everything else here does.
        let keyed = !matches!(rows.first(), Some(Value::List(_)));
        prop_assert_eq!(by_cols.is_some(), keyed);
        if let Some(by_cols) = by_cols {
            prop_assert_eq!(by_cols.num_buckets(), by_rows.num_buckets());
            prop_assert_eq!(by_cols.len(), by_rows.len());
            prop_assert_eq!(by_cols.payload_bytes(), by_rows.payload_bytes());
            for part in 0..parts {
                let (c, r) = (by_cols.bucket(part).unwrap(), by_rows.bucket(part).unwrap());
                prop_assert!(c.batch().is_some() && r.batch().is_none());
                prop_assert_eq!(c.to_rows(), r.to_rows(), "bucket {} records", part);
                prop_assert_eq!(
                    by_cols.bucket_bytes(part),
                    by_rows.bucket_bytes(part),
                    "bucket {} bytes", part
                );
            }
        }
    }

    /// Encoding a record sequence to columns and decoding it back is the
    /// identity, and every size observable matches `Value::size_bytes`.
    #[test]
    fn round_trip_identity(rows in proptest::collection::vec(arb_record(), 0..48)) {
        if let Some(batch) = ColumnBatch::from_rows(&rows) {
            prop_assert_eq!(batch.len(), rows.len());
            prop_assert_eq!(batch.to_rows(), rows.clone());
            let mut total = 0u64;
            for (i, r) in rows.iter().enumerate() {
                prop_assert_eq!(batch.value_at(i), r.clone());
                prop_assert_eq!(batch.size_at(i), r.size_bytes());
                total += r.size_bytes();
            }
            prop_assert_eq!(batch.payload_bytes(), total);
        }
    }

    /// `gather` selects exactly the requested records, in order.
    #[test]
    fn gather_matches_row_selection(
        rows in arb_table(),
        idx_seed in proptest::collection::vec(any::<u32>(), 0..32),
    ) {
        let batch = ColumnBatch::from_rows(&rows).expect("table rows must encode");
        let idx: Vec<u32> = idx_seed
            .iter()
            .map(|&i| i % rows.len() as u32)
            .collect();
        let picked = batch.gather(&idx);
        let expect: Vec<Value> = idx.iter().map(|&i| rows[i as usize].clone()).collect();
        prop_assert_eq!(picked.to_rows(), expect);
    }

    /// Per-record kernel evaluation agrees with a hand-written reference
    /// on the lineitem shape (the row fallback *is* this evaluation, so
    /// this pins the semantics the batch path must reproduce).
    #[test]
    fn kernel_eval_matches_reference(rows in arb_table(), max in 0..2557i64) {
        let pred = PredKernel::IntLe { field: 3, max };
        let kernel = MapKernel::Pair {
            key: KeyExpr::Field(0),
            val: PayloadExpr::Scalar(ScalarExpr::Num(NumExpr::Mul(
                Box::new(NumExpr::Field(1)),
                Box::new(NumExpr::Field(2)),
            ))),
        };
        for r in &rows {
            let c = r.as_list().unwrap();
            prop_assert_eq!(pred.eval_value(r), c[3].as_i64().unwrap() <= max);
            let got = kernel.eval_value(r).unwrap();
            let want = Value::pair(
                c[0].clone(),
                Value::Float(c[1].as_f64().unwrap() * c[2].as_f64().unwrap()),
            );
            prop_assert_eq!(got, want);
        }
    }

    /// The full engine produces byte-identical results and byte-identical
    /// run stats (every simulated duration, byte counter, and vbyte
    /// total) with columnar execution on and off.
    #[test]
    fn scan_agg_columnar_equals_row_path(rows in arb_table(), max in 0..2557i64) {
        let (row_out, row_stats) = scan_agg(&rows, max, false);
        let (col_out, col_stats) = scan_agg(&rows, max, true);
        prop_assert_eq!(col_out, row_out);
        prop_assert_eq!(col_stats, row_stats);
    }

    /// Same contract across the rows→batch boundary at the map side of a
    /// kernel-declared shuffle, and across its fallback when the rows do
    /// not encode or the kernel declines them — down to the trace bytes,
    /// for any `host_threads`.
    #[test]
    fn closure_agg_columnar_equals_row_path(rows in arb_pairs(), poison in arb_poison()) {
        let rows = poisoned(rows, &poison);
        let want = closure_agg(&rows, 1, false);
        for (host_threads, columnar) in [(1, true), (8, true), (8, false)] {
            let got = closure_agg(&rows, host_threads, columnar);
            prop_assert_eq!(&got, &want, "host_threads={} columnar={}", host_threads, columnar);
        }
    }

    /// Same contract for a keyed join: `cogroup` and `join` of a batch
    /// side and a row side — `Int`, `Float` or mixed keys — return the
    /// same records with the same `RunStats` and trace bytes as the
    /// `columnar = false` run, with a worker revoked halfway through the
    /// job.
    #[test]
    fn join_columnar_equals_row_path(
        a in arb_join_side(),
        b in arb_join_side(),
        keys in arb_join_keys(),
    ) {
        let never = SimTime::from_hours_f64(1e6);
        let (_, _, _, finished) = keyed_join(&a, &b, keys, false, never);
        let halfway = SimTime::from_millis(finished.as_millis() / 2);
        let want = keyed_join(&a, &b, keys, false, halfway);
        prop_assert_eq!(want.1.revocations, 1);
        let got = keyed_join(&a, &b, keys, true, halfway);
        prop_assert_eq!(&got, &want, "{:?} keys", keys);
    }

    /// `FlatMapKernel::ShareOverFirstList` is PageRank's transcribed
    /// closure record by record, and its batch arm is that closure over
    /// the whole partition: when `eval_rows` returns a batch it decodes to
    /// exactly the closure's records in order, with the same payload
    /// bytes (an empty partition is an empty batch); it returns `None`
    /// exactly when some emitted key is not an `Int`.
    #[test]
    fn flat_map_kernel_batch_is_its_closure(
        rows in proptest::collection::vec(arb_cogroup_record(), 0..12),
    ) {
        let kernel = FlatMapKernel::ShareOverFirstList;
        let want: Vec<Value> = rows.iter().flat_map(contribs_closure).collect();
        let by_record: Vec<Value> = rows.iter().flat_map(|v| kernel.eval_value(v)).collect();
        prop_assert_eq!(&by_record, &want);
        let int_keys = want.iter().all(|v| matches!(v.key(), Some(Value::Int(_))));
        let batch = kernel.eval_rows(&rows);
        prop_assert_eq!(batch.is_some(), int_keys);
        if let Some(batch) = batch {
            prop_assert_eq!(
                batch.payload_bytes(),
                want.iter().map(Value::size_bytes).sum::<u64>()
            );
            prop_assert_eq!(batch.to_rows(), want);
        }
    }

    /// Same contract for the no-combiner group path and the typed sort.
    #[test]
    fn group_sort_columnar_equals_row_path(rows in arb_pairs()) {
        let (row_out, row_stats) = group_sort(&rows, false);
        let (col_out, col_stats) = group_sort(&rows, true);
        prop_assert_eq!(col_out, row_out);
        prop_assert_eq!(col_stats, row_stats);
    }
}

/// The shapes the workloads rely on must actually take the columnar
/// path — a silent fall-back to rows would keep results identical while
/// losing the batch speedup, so pin encodability explicitly.
#[test]
fn workload_shapes_encode_to_columns() {
    let lineitem = Value::list(vec![
        Value::Int(1),
        Value::Float(2.0),
        Value::Float(3.0),
        Value::Float(0.05),
        Value::from_str_("R"),
        Value::from_str_("F"),
        Value::Int(100),
    ]);
    assert!(ColumnBatch::from_rows(&[lineitem.clone(), lineitem]).is_some());

    let rank = Value::pair(Value::Int(3), Value::Float(1.0));
    assert!(ColumnBatch::from_rows(&[rank.clone(), rank]).is_some());

    let point = Value::vector(vec![1.0; 16]);
    assert!(ColumnBatch::from_rows(&[point.clone(), point]).is_some());

    let q1_key = Value::pair(
        Value::pair(Value::from_str_("R"), Value::from_str_("F")),
        Value::list(vec![Value::Float(1.0), Value::Int(1)]),
    );
    assert!(ColumnBatch::from_rows(&[q1_key.clone(), q1_key]).is_some());

    // Heterogeneous sequences must decline, not mis-encode.
    assert!(ColumnBatch::from_rows(&[Value::Int(1), Value::from_str_("x")]).is_none());
    assert!(ColumnBatch::from_rows(&[]).is_none());
}

/// A PageRank job whose adjacency holds one `Float` destination, with a
/// worker revoked halfway, returns the same ranks, `RunStats` and trace
/// bytes as the `columnar = false` run. The `contribs` partition holding
/// that vertex runs the row closure: on a fault-free run of the first
/// `contribs` alone, one batch of its all-`Int` twin becomes one
/// `row_fallbacks`.
#[test]
fn flat_map_kernel_falls_back_to_its_closure_end_to_end() {
    let links = adjacency(Some(5));
    let never = SimTime::from_hours_f64(1e6);
    let (_, _, _, finished, _) = pagerank_shaped(&links, false, never);
    let halfway = SimTime::from_millis(finished.as_millis() / 2);
    let row = pagerank_shaped(&links, false, halfway);
    let col = pagerank_shaped(&links, true, halfway);
    assert_eq!(row.1.revocations, 1);
    assert_eq!(row.4, ColumnStats::default());
    assert_eq!(
        (&col.0, &col.1, &col.2, col.3),
        (&row.0, &row.1, &row.2, row.3)
    );

    let first_contribs = |links: Vec<Value>| {
        let mut d = driver(true);
        let links = d.ctx().parallelize(links, 4);
        let ranks = d.ctx().map_kernel(
            links,
            MapKernel::Pair {
                key: KeyExpr::PairKey,
                val: PayloadExpr::Scalar(ScalarExpr::Num(NumExpr::Lit(1.0))),
            },
        );
        let grouped = d.ctx().cogroup(links, ranks, 4);
        let contribs = d
            .ctx()
            .flat_map_kernel(grouped, FlatMapKernel::ShareOverFirstList);
        d.collect(contribs).unwrap();
        d.column_stats()
    };
    let (float, int) = (first_contribs(links), first_contribs(adjacency(None)));
    eprintln!("first contribs: {float:?} with a Float destination, {int:?} without");
    assert_eq!(int.row_fallbacks, 4, "{int:?}");
    assert_eq!(int.kernel_batches, 4, "{int:?}");
    assert_eq!(float.row_fallbacks, int.row_fallbacks + 1, "{float:?}");
    assert_eq!(float.kernel_batches + 1, int.kernel_batches, "{float:?}");
}

/// `n` `(Int, Float)` pairs over twelve keys.
fn int_pairs(n: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::pair(Value::Int(i % 12), Value::Float(i as f64 / 4.0)))
        .collect()
}

/// The `group_by_key` reduce decodes its batch buckets once, counting
/// one decode per value, as the `CoGroup` reduce does: 200 source pairs
/// encode once and decode once, and the groups equal the row run's.
#[test]
fn group_reduce_counts_its_decodes() {
    let run = |columnar: bool| {
        let mut d = driver(columnar);
        let src = d.ctx().parallelize(int_pairs(200), 4);
        let grouped = d.ctx().group_by_key(src, 3);
        (d.collect(grouped).unwrap(), d.column_stats())
    };
    let (row, col) = (run(false), run(true));
    assert_eq!(col.0, row.0);
    assert_eq!(
        col.1,
        ColumnStats {
            kernel_batches: 0,
            row_fallbacks: 0,
            encodes: 200,
            decodes: 200,
        }
    );
}

/// Which form each map block of `r`'s shuffles holds: `"rows"` for an
/// unbucketed row block, `"row buckets"` or `"col buckets"` for a
/// bucketed one (empty buckets say nothing).
fn map_block_forms(d: &Driver, r: RddRef) -> Vec<&'static str> {
    let lineage = d.lineage();
    let mut forms = Vec::new();
    for &shuffle in lineage.meta(r.id()).op.input_shuffles() {
        let maps = lineage.meta(lineage.shuffle(shuffle).parent).num_partitions;
        for map_part in 0..maps {
            let key = BlockKey::ShuffleMap { shuffle, map_part };
            let (_, data, _, _) = d.cluster().peek_fetch(&key).expect("map block cached");
            forms.push(match data {
                BlockData::Part(Records::Rows(_)) => "rows",
                BlockData::Part(Records::Col(_)) => "col",
                BlockData::Bucketed(bb) => {
                    let buckets: Vec<&Records> = (0..bb.num_buckets())
                        .filter_map(|p| bb.bucket(p))
                        .filter(|b| !b.is_empty())
                        .collect();
                    if buckets.iter().all(|b| matches!(b, Records::Col(_))) {
                        "col buckets"
                    } else {
                        assert!(buckets.iter().all(|b| matches!(b, Records::Rows(_))));
                        "row buckets"
                    }
                }
            });
        }
    }
    forms
}

/// A shuffle's map side buckets batches exactly when it is a hash
/// shuffle with no combine or with a declared combine kernel. Over one
/// encoded pair source, a closure `reduce_by_key` and a `sort_by_key`
/// decode their map blocks to rows; `reduce_by_key_kernel`,
/// `group_by_key` and `cogroup` keep every map block's buckets as
/// batches. Each run's counters are pinned, and its results equal the
/// row run's.
#[test]
fn map_side_form_follows_the_shuffle() {
    type Build = fn(&mut Driver, RddRef, RddRef) -> RddRef;
    let cases: [(&str, Build, &str, ColumnStats); 5] = [
        (
            "reduce_by_key",
            |d, a, _| d.ctx().reduce_by_key(a, 2, |x, _| x.clone()),
            "row buckets",
            ColumnStats {
                kernel_batches: 0,
                row_fallbacks: 0,
                encodes: 64,
                decodes: 64,
            },
        ),
        (
            "sort_by_key",
            |d, a, _| d.ctx().sort_by_key(a, 2, true),
            "rows",
            ColumnStats {
                kernel_batches: 0,
                row_fallbacks: 0,
                encodes: 64,
                decodes: 64,
            },
        ),
        (
            "reduce_by_key_kernel",
            |d, a, _| d.ctx().reduce_by_key_kernel(a, 2, AggKernel::SumFloat),
            "col buckets",
            ColumnStats {
                kernel_batches: 6,
                row_fallbacks: 0,
                encodes: 64,
                decodes: 12,
            },
        ),
        (
            "group_by_key",
            |d, a, _| d.ctx().group_by_key(a, 2),
            "col buckets",
            ColumnStats {
                kernel_batches: 0,
                row_fallbacks: 0,
                encodes: 64,
                decodes: 64,
            },
        ),
        (
            "cogroup",
            |d, a, b| d.ctx().cogroup(a, b, 2),
            "col buckets",
            ColumnStats {
                kernel_batches: 0,
                row_fallbacks: 0,
                encodes: 80,
                decodes: 80,
            },
        ),
    ];
    for (name, build, form, stats) in cases {
        let run = |columnar: bool| {
            let mut d = driver(columnar);
            let a = d.ctx().parallelize(int_pairs(64), 4);
            let b = d.ctx().parallelize(int_pairs(16), 2);
            let out = build(&mut d, a, b);
            let rows = d.collect(out).unwrap();
            (rows, map_block_forms(&d, out), d.column_stats())
        };
        let (row, col) = (run(false), run(true));
        eprintln!("{name}: {:?} {:?}", col.1, col.2);
        assert_eq!(col.0, row.0, "{name}");
        assert!(!col.1.is_empty(), "{name}: no map block inspected");
        assert!(col.1.iter().all(|f| *f == form), "{name}: {:?}", col.1);
        assert_eq!(col.2, stats, "{name}");
    }
}
