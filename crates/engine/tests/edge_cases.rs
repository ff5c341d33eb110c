//! Edge-case integration tests of the engine: empty data, degenerate
//! partitioning, recovery interleavings, and cross-job reuse.

use std::collections::BTreeMap;

use flint_engine::{
    AggKernel, BlockData, BlockKey, CheckpointDirective, CheckpointHooks, ColumnStats, Driver,
    DriverConfig, Event, EventKind, EventSink, LineageView, NoCheckpoint, NoFailures, RunStats,
    ScriptedInjector, TraceHandle, Value, WorkerEvent, WorkerSpec,
};
use flint_simtime::{SimDuration, SimTime};
use flint_trace::MemoryReader;

#[test]
fn empty_source_through_every_operator() {
    let mut d = Driver::local(2);
    let empty = d.ctx().parallelize(std::iter::empty(), 3);
    let mapped = d.ctx().map(empty, |v| v.clone());
    let filtered = d.ctx().filter(mapped, |_| true);
    let grouped = d.ctx().group_by_key(filtered, 2);
    let sorted = d.ctx().sort_by_key(grouped, 2, true);
    assert_eq!(d.count(sorted).unwrap(), 0);
    assert_eq!(d.collect(sorted).unwrap(), Vec::<Value>::new());
    assert!(d.take(sorted, 5).unwrap().is_empty());
}

#[test]
fn take_beyond_length_returns_everything() {
    let mut d = Driver::local(2);
    let src = d.ctx().parallelize((0..7).map(Value::from_i64), 3);
    assert_eq!(d.take(src, 100).unwrap().len(), 7);
}

#[test]
fn single_partition_single_worker() {
    let mut d = Driver::local(1);
    let src = d.ctx().parallelize((0..50).map(Value::from_i64), 1);
    let pairs = d.ctx().map(src, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 3), v.clone())
    });
    let red = d.ctx().reduce_by_key(pairs, 1, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    assert_eq!(d.count(red).unwrap(), 3);
}

#[test]
fn explicit_checkpoint_of_shuffle_output() {
    let mut d = Driver::local(3);
    let src = d.ctx().parallelize((0..200).map(Value::from_i64), 6);
    let pairs = d.ctx().map(src, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 9), Value::Int(1))
    });
    let red = d.ctx().reduce_by_key(pairs, 4, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    d.checkpoint_now(red).unwrap();
    assert!(d.checkpoints().is_fully_checkpointed(red.id()));
    // A dependent job after checkpointing is consistent.
    let doubled = d
        .ctx()
        .map_values(red, |v| Value::Int(v.as_i64().unwrap() * 2));
    let total = d
        .reduce(doubled, |a, b| {
            let av = a
                .val()
                .map(|x| x.as_i64().unwrap())
                .unwrap_or(a.as_i64().unwrap_or(0));
            let bv = b
                .val()
                .map(|x| x.as_i64().unwrap())
                .unwrap_or(b.as_i64().unwrap_or(0));
            Value::Int(av + bv)
        })
        .unwrap();
    assert!(total.as_i64().is_some() || total.val().is_some());
}

#[test]
fn union_of_shuffle_outputs_recovers() {
    // Two independent shuffles unioned, with a revocation mid-run: the
    // planner must rebuild both shuffles' lost map outputs.
    let build = |d: &mut Driver| {
        let a = d.ctx().parallelize((0..100).map(Value::from_i64), 4);
        let b = d.ctx().parallelize((100..200).map(Value::from_i64), 4);
        let pa = d.ctx().map(a, |v| {
            Value::pair(Value::Int(v.as_i64().unwrap() % 5), Value::Int(1))
        });
        let pb = d.ctx().map(b, |v| {
            Value::pair(Value::Int(v.as_i64().unwrap() % 5), Value::Int(1))
        });
        let ra = d.ctx().reduce_by_key(pa, 3, |x, y| {
            Value::Int(x.as_i64().unwrap() + y.as_i64().unwrap())
        });
        let rb = d.ctx().reduce_by_key(pb, 3, |x, y| {
            Value::Int(x.as_i64().unwrap() + y.as_i64().unwrap())
        });
        d.ctx().union(ra, rb)
    };
    let mut clean = Driver::local(4);
    let u = build(&mut clean);
    let mut golden = clean.collect(u).unwrap();
    golden.sort();

    let mut cfg = DriverConfig::default();
    cfg.cost.size_scale = 1e6;
    let mut d = Driver::new(
        cfg,
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(vec![
            (
                SimTime::from_millis(2_000),
                WorkerEvent::Remove { ext_id: 1 },
            ),
            (
                SimTime::from_millis(20_000),
                WorkerEvent::Add {
                    ext_id: 9,
                    spec: WorkerSpec::r3_large(),
                },
            ),
        ])),
    );
    for ext in 1..=4u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let u = build(&mut d);
    let mut got = d.collect(u).unwrap();
    got.sort();
    assert_eq!(got, golden);
}

#[test]
fn repartition_preserves_multiset() {
    let mut d = Driver::local(2);
    let src = d.ctx().parallelize((0..60).map(|i| Value::Int(i % 10)), 6);
    let re = d.ctx().repartition(src, 3);
    assert_eq!(d.ctx().num_partitions(re), 3);
    // Key by the value itself to count the multiset.
    let keyed = d.ctx().map(re, |v| Value::pair(v.clone(), Value::Null));
    let counts = d.count_by_key(keyed).unwrap();
    assert_eq!(counts.len(), 10);
    assert!(counts.values().all(|c| *c == 6));
}

#[test]
fn idle_time_advances_clock_without_side_effects() {
    let mut d = Driver::local(2);
    let src = d.ctx().parallelize((0..10).map(Value::from_i64), 2);
    let c1 = d.count(src).unwrap();
    let t1 = d.now();
    d.idle_until(t1 + SimDuration::from_hours(5)).unwrap();
    assert!(d.now() >= t1 + SimDuration::from_hours(5));
    assert_eq!(d.count(src).unwrap(), c1);
}

#[test]
fn stats_action_records_are_complete() {
    let mut d = Driver::local(2);
    let src = d.ctx().parallelize((0..10).map(Value::from_i64), 2);
    let _ = d.count(src).unwrap();
    let _ = d.collect(src).unwrap();
    let s = d.stats();
    assert_eq!(s.actions.len(), 2);
    assert!(s.actions[0].name.starts_with("count"));
    assert!(s.actions[1].name.starts_with("collect"));
    for a in &s.actions {
        assert!(a.finished >= a.started);
    }
    assert!(s.tasks_run >= 2);
}

#[test]
fn lineage_dot_reflects_job_structure() {
    let mut d = Driver::local(2);
    let src = d.ctx().parallelize((0..10).map(Value::from_i64), 2);
    let pairs = d.ctx().map(src, |v| Value::pair(v.clone(), Value::Int(1)));
    let red = d.ctx().reduce_by_key(pairs, 2, |a, _| a.clone());
    let _ = d.count(red).unwrap();
    let dot = d.lineage().to_dot();
    assert!(dot.contains("parallelize"));
    assert!(dot.contains("reduce_by_key"));
    assert!(dot.contains("color=red"), "shuffle edge must be marked");
}

/// Checkpoints every cached block — shuffle map outputs included — as
/// soon as the scheduler sees it.
struct CheckpointAllCached;

impl CheckpointHooks for CheckpointAllCached {
    fn poll(
        &mut self,
        _view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        _now: SimTime,
    ) -> Vec<CheckpointDirective> {
        vec![CheckpointDirective::CheckpointAllCached]
    }
}

/// One traced run of a 12-way `sort_by_key` over four map partitions on
/// two one-core workers, every cached block checkpointed. `revoke_at`
/// removes worker 1 (holder of half the map outputs) at that instant and
/// replaces it ten seconds later.
fn wave_spanning_sort(
    revoke_at: Option<SimTime>,
    host_threads: usize,
    columnar: bool,
) -> (Vec<Value>, RunStats, MemoryReader) {
    let cfg = DriverConfig::builder()
        .host_threads(host_threads)
        .columnar(columnar)
        .size_scale(5e5)
        .build();
    let spec = WorkerSpec {
        cores: 1,
        ..WorkerSpec::r3_large()
    };
    let script = revoke_at.map_or_else(Vec::new, |t| {
        vec![
            (t, WorkerEvent::Remove { ext_id: 1 }),
            (
                t + SimDuration::from_secs(10),
                WorkerEvent::Add { ext_id: 9, spec },
            ),
        ]
    });
    let mut d = Driver::new(
        cfg,
        Box::new(CheckpointAllCached),
        Box::new(ScriptedInjector::new(script)),
    );
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    for ext in 1..=2u64 {
        d.add_worker_with_ext(ext, spec);
    }
    let src = d.ctx().parallelize(
        (0..600).map(|i| Value::pair(Value::Int(i * 53 % 307), Value::Int(i))),
        4,
    );
    let sorted = d.ctx().sort_by_key(src, 12, true);
    let rows = d.collect(sorted).unwrap();
    (rows, d.stats().clone(), reader)
}

/// Instants at which tasks of `kind` (`"shuffle"` / `"output"`)
/// committed on `worker` (any worker when `None`).
fn task_commits(events: &[Event], kind: &str, worker: Option<u64>) -> Vec<SimTime> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TaskFinished {
                kind: k, worker: w, ..
            } if k == kind && worker.is_none_or(|x| x == *w) => Some(e.t),
            _ => None,
        })
        .collect()
}

/// A range shuffle whose reduce side is read again long after its
/// partitioner resolved: the twelve reduce tasks drain through two task
/// slots, worker 1 is lost while the third pair is running, and the
/// reduce tasks that had not been admitted yet are re-planned in a later
/// wave. That wave scans map outputs of all three provenances — still
/// cached on worker 2, checkpointed before the loss, and re-run after
/// it — and must put every record where the first wave would have.
#[test]
fn range_shuffle_read_again_after_losing_a_map_holder() {
    let (golden, _, clean) = wave_spanning_sort(None, 1, true);
    assert_eq!(golden.len(), 600);
    assert!(golden.windows(2).all(|w| w[0].key() <= w[1].key()));
    let reduces = task_commits(&clean.events(), "output", None);
    assert_eq!(reduces.len(), 12);
    let mut rounds = reduces.clone();
    rounds.dedup();
    assert!(rounds.len() >= 6, "12 reduce tasks on 2 slots: {rounds:?}");

    let revoke_at = reduces[3] + SimDuration::from_millis(1);
    let (rows, stats, trace) = wave_spanning_sort(Some(revoke_at), 1, true);
    assert_eq!(rows, golden);
    assert_eq!(stats.revocations, 1);
    let events = trace.events();
    let after = |ts: Vec<SimTime>| ts.into_iter().filter(|t| *t > revoke_at).count();
    let held_by_lost = task_commits(&events, "shuffle", Some(1)).len();
    let rerun = after(task_commits(&events, "shuffle", None));
    assert!(
        0 < rerun && rerun < held_by_lost,
        "{rerun} of {held_by_lost} lost map outputs re-ran; the store serves the rest"
    );
    assert!(after(task_commits(&events, "output", None)) >= 6);

    for (host_threads, columnar) in [(8, true), (1, false), (8, false)] {
        let other = wave_spanning_sort(Some(revoke_at), host_threads, columnar);
        assert_eq!(
            (&other.0, &other.1, other.2.to_jsonl()),
            (&rows, &stats, trace.to_jsonl()),
            "host_threads={host_threads} columnar={columnar}"
        );
    }
}

/// One traced run of an opaque `flat_map` feeding a kernel-declared sum
/// over four map partitions, where the closure emits nothing for any
/// record of partition 0: `(rows, stats, trace, column counters)`.
fn sum_with_an_emptied_partition(
    host_threads: usize,
    columnar: bool,
) -> (Vec<Value>, RunStats, String, ColumnStats) {
    let cfg = DriverConfig::builder()
        .host_threads(host_threads)
        .columnar(columnar)
        .size_scale(5e5)
        .build();
    let mut d = Driver::new(cfg, Box::new(NoCheckpoint), Box::new(NoFailures));
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    for _ in 0..2 {
        d.add_worker(WorkerSpec::r3_large());
    }
    let parts = (0..4i64)
        .map(|p| {
            let record = |i| Value::Int(if p == 0 { -1 - i } else { 40 * p + i });
            (0..40).map(record).collect()
        })
        .collect();
    let src = d.ctx().parallelize_parts(parts);
    let contribs = d.ctx().flat_map(src, |v| match v.as_i64() {
        Some(i) if i >= 0 => vec![
            Value::pair(Value::Int(i % 7), Value::Float(i as f64 * 0.25)),
            Value::pair(Value::Int(i % 5), Value::Float(1.0)),
        ],
        _ => vec![],
    });
    let summed = d
        .ctx()
        .reduce_by_key_kernel(contribs, 3, AggKernel::SumFloat);
    let rows = d.collect(summed).unwrap();
    (rows, d.stats().clone(), reader.to_jsonl(), d.column_stats())
}

/// A map task with nothing to emit has no batch to bucket and writes
/// empty row buckets. That is one row fallback — its own — and must not
/// switch the typed reduce off for the three map tasks that did encode.
#[test]
fn one_empty_map_partition_does_not_switch_the_typed_reduce_off() {
    let (rows, stats, trace, used) = sum_with_an_emptied_partition(1, true);
    assert_eq!(rows.len(), 7);
    // Three encoding map tasks and three reduce tasks ran typed.
    assert_eq!(
        (used.row_fallbacks, used.kernel_batches),
        (1, 6),
        "{used:?}"
    );
    for (host_threads, columnar) in [(8, true), (1, false), (8, false)] {
        let other = sum_with_an_emptied_partition(host_threads, columnar);
        assert_eq!(
            (&other.0, &other.1, &other.2),
            (&rows, &stats, &trace),
            "host_threads={host_threads} columnar={columnar}"
        );
        let want = if columnar {
            used
        } else {
            ColumnStats::default()
        };
        assert_eq!(other.3, want, "host_threads={host_threads}");
    }
}

/// String concatenation: not commutative, so a fold's result spells the
/// order it ran in.
fn concat(a: &Value, b: &Value) -> Value {
    Value::from_str_(&format!("{}{}", a.as_str().unwrap(), b.as_str().unwrap()))
}

/// Transcribed reference of a keyed fold: pairs fold by key with
/// [`concat`] in arrival order and come out in key order; with
/// `keep_non_pairs` (the map side) the other records follow them, in
/// arrival order, else (the reduce side) they are dropped.
fn reference_fold<'a>(
    rows: impl IntoIterator<Item = &'a Value>,
    keep_non_pairs: bool,
) -> Vec<Value> {
    let mut acc: BTreeMap<Value, Value> = BTreeMap::new();
    let mut rest = Vec::new();
    for v in rows {
        match (v.key(), v.val()) {
            (Some(k), Some(x)) => {
                acc.entry(k.clone())
                    .and_modify(|a| *a = concat(a, x))
                    .or_insert_with(|| x.clone());
            }
            _ if keep_non_pairs => rest.push(v.clone()),
            _ => {}
        }
    }
    acc.into_iter()
        .map(|(k, v)| Value::pair(k, v))
        .chain(rest)
        .collect()
}

/// A `reduce_by_key` folds twice with its one combine: each map task
/// folds its partition in arrival order and keeps the non-pair records
/// after the folded pairs; each reduce task folds the partials in
/// map-partition order and drops the non-pairs. Three map partitions of
/// `(Int, one-letter Str)` pairs over four keys, with non-pair `Int`s and
/// `Str`s among them, go through a concatenating combine; the result and
/// every map block equal the transcribed reference, with columnar
/// execution on and off and one or four host threads, and the stats and
/// clock agree across the four runs.
#[test]
fn reduce_by_key_folds_in_arrival_order_and_drops_non_pairs() {
    let parts: Vec<Vec<Value>> = (0..3i64)
        .map(|m| {
            (0..12)
                .map(|i| {
                    let n = m * 12 + i;
                    let letter = char::from(b'a' + n as u8 % 26).to_string();
                    match i % 5 {
                        4 if m == 1 => Value::from_str_(&letter.to_uppercase()),
                        4 => Value::Int(100 + n),
                        _ => Value::pair(Value::Int(n % 4), Value::from_str_(&letter)),
                    }
                })
                .collect()
        })
        .collect();
    let partials: Vec<Vec<Value>> = parts.iter().map(|p| reference_fold(p, true)).collect();
    let want = reference_fold(partials.iter().flatten(), false);
    assert_eq!(want.len(), 4);
    let mut first: Option<String> = None;
    for (host_threads, columnar) in [(1, false), (1, true), (4, false), (4, true)] {
        let at = format!("host_threads={host_threads} columnar={columnar}");
        let cfg = DriverConfig::builder()
            .host_threads(host_threads)
            .columnar(columnar)
            .build();
        let mut d = Driver::new(cfg, Box::new(NoCheckpoint), Box::new(NoFailures));
        for _ in 0..2 {
            d.add_worker(WorkerSpec::r3_large());
        }
        let src = d.ctx().parallelize_parts(parts.clone());
        let reduced = d.ctx().reduce_by_key(src, 2, concat);
        let mut got = d.collect(reduced).unwrap();
        got.sort_by(|a, b| a.key().cmp(&b.key()));
        assert_eq!(got, want, "{at}");
        // Each map block holds its partition's partial: every record of
        // it in exactly one bucket, each bucket in the partial's order.
        let shuffle = d.lineage().meta(reduced.id()).op.input_shuffles()[0];
        for (map_part, partial) in (0u32..).zip(&partials) {
            let key = BlockKey::ShuffleMap { shuffle, map_part };
            let Some((_, BlockData::Bucketed(bb), _, _)) = d.cluster().peek_fetch(&key) else {
                panic!("{at}: map block {map_part} is not a cached bucketed block");
            };
            let mut held = 0;
            for p in 0..bb.num_buckets() {
                let bucket = bb.bucket(p).map(|b| b.to_rows().to_vec());
                let bucket = bucket.unwrap_or_default();
                let in_order: Vec<Value> = partial
                    .iter()
                    .filter(|v| bucket.contains(v))
                    .cloned()
                    .collect();
                assert_eq!(bucket, in_order, "{at}: map block {map_part} bucket {p}");
                held += bucket.len();
            }
            assert_eq!(held, partial.len(), "{at}: map block {map_part}");
        }
        let fp = format!("{:?} @ {:?}", d.stats(), d.now());
        assert_eq!(first.get_or_insert_with(|| fp.clone()), &fp, "{at}");
    }
}
