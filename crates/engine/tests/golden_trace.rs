//! The trace subsystem's determinism and completeness contracts:
//!
//! * **Golden trace** — with tracing enabled, the JSONL event stream is
//!   *byte-identical* for every `host_threads` setting, even under
//!   scripted revocation. Compute-phase events are buffered in the wave
//!   executor's effect ledger and replayed in commit order, so thread
//!   scheduling cannot reorder the stream.
//! * **Completeness** — folding the stream through `MetricsAggregator`
//!   reproduces the engine's independently-tracked `RunStats`
//!   field-for-field, byte counters included. A trace is a complete
//!   record of a run, not a lossy sample.

use flint_engine::{
    AggField, AggKernel, ChaosConfig, ChaosInjector, ChaosSchedule, CheckpointDirective,
    CheckpointHooks, Driver, DriverConfig, EventSink, FailureInjector, KeyExpr, LineageView,
    MapKernel, NoCheckpoint, NoFailures, NumExpr, PayloadExpr, PredKernel, RddId, RunStats,
    ScalarExpr, ScriptedInjector, StoreFaultPolicy, TraceHandle, Value, WorkerEvent, WorkerSpec,
};
use flint_simtime::SimTime;
use flint_trace::{Event, MetricsAggregator};

/// Local mark-on-generation policy: checkpoint the first sufficiently
/// large RDD that materializes. Keeps this crate's tests independent of
/// `flint-core` while still driving the directive → scheduled → written
/// event path.
struct CheckpointFirstLarge {
    done: bool,
}

impl CheckpointHooks for CheckpointFirstLarge {
    fn on_rdd_materialized(
        &mut self,
        view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        rdd: RddId,
        _now: SimTime,
    ) -> Vec<CheckpointDirective> {
        if self.done || view.rdd_vbytes(rdd) == 0 {
            return Vec::new();
        }
        self.done = true;
        vec![CheckpointDirective::Checkpoint(rdd)]
    }
}

/// Runs the determinism suite's multi-stage workload — persisted
/// ancestors, seeded sampling, hash/range shuffles, a join, policy-driven
/// checkpoints, and a mid-job revocation plus replacement — with tracing
/// on, and returns the JSONL stream plus the engine's own stats.
fn run_traced(host_threads: usize) -> (String, RunStats) {
    let cfg = DriverConfig::builder()
        .host_threads(host_threads)
        .size_scale(5e5)
        .build();
    let injector = ScriptedInjector::new(vec![
        (
            SimTime::from_millis(40_000),
            WorkerEvent::Remove { ext_id: 2 },
        ),
        (
            SimTime::from_millis(160_000),
            WorkerEvent::Add {
                ext_id: 100,
                spec: WorkerSpec::r3_large(),
            },
        ),
    ]);
    let mut d = Driver::new(
        cfg,
        Box::new(CheckpointFirstLarge { done: false }),
        Box::new(injector),
    );
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    for ext in 1..=4u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }

    let src = d
        .ctx()
        .parallelize((0..600).map(|i| Value::from_i64(i * 37 % 251)), 8);
    let pairs = d.ctx().map(src, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 13), v.clone())
    });
    let pairs = d.ctx().persist(pairs);
    let sums = d.ctx().reduce_by_key(pairs, 5, |a, b| {
        Value::Int(a.as_i64().unwrap_or(0) + b.as_i64().unwrap_or(0))
    });
    let sampled = d.ctx().sample(pairs, 0.4, 7);
    let ones = d.ctx().map_values(sampled, |_| Value::Int(1));
    let counts = d.ctx().reduce_by_key(ones, 4, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    let joined = d.ctx().join(sums, counts, 4);
    let sorted = d.ctx().sort_by_key(joined, 3, true);
    d.collect(sorted).unwrap();
    d.checkpoint_now(sums).unwrap();

    (reader.to_jsonl(), d.stats().clone())
}

#[test]
fn golden_trace_is_identical_across_host_thread_counts() {
    let (golden, stats) = run_traced(1);
    assert!(!golden.is_empty(), "an enabled trace must capture events");
    assert!(stats.revocations > 0, "revocation must land mid-job");
    assert!(stats.checkpoints_written > 0, "policy must checkpoint");
    for threads in [2usize, 8] {
        let (jsonl, other_stats) = run_traced(threads);
        assert_eq!(other_stats, stats, "host_threads={threads} stats diverged");
        assert_eq!(
            jsonl, golden,
            "host_threads={threads} produced a different event stream"
        );
    }
}

/// A shuffle-dominated DAG exercising every shuffle fetch path: a wide
/// hash shuffle (16 maps × 12 reduces, bucketed by its map tasks), a
/// range sort in each direction (map outputs stay rows and are scanned
/// with the partitioner the barrier resolved), a join (cogrouped hash
/// shuffles), and a mid-job revocation that forces shuffle
/// recomputation — recomputed hash map outputs bucket again, recomputed
/// range map outputs are scanned with the cached partitioner.
fn run_shuffle_heavy(host_threads: usize) -> (String, RunStats) {
    let cfg = DriverConfig::builder()
        .host_threads(host_threads)
        .size_scale(5e5)
        .build();
    let injector = ScriptedInjector::new(vec![
        (
            SimTime::from_millis(60_000),
            WorkerEvent::Remove { ext_id: 3 },
        ),
        (
            SimTime::from_millis(200_000),
            WorkerEvent::Add {
                ext_id: 200,
                spec: WorkerSpec::r3_large(),
            },
        ),
    ]);
    let mut d = Driver::new(
        cfg,
        Box::new(CheckpointFirstLarge { done: false }),
        Box::new(injector),
    );
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    for ext in 1..=4u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }

    let src = d
        .ctx()
        .parallelize((0..960).map(|i| Value::from_i64(i * 53 % 307)), 16);
    let pairs = d.ctx().map(src, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 37), v.clone())
    });
    let grouped = d.ctx().group_by_key(pairs, 12);
    let sizes = d
        .ctx()
        .map_values(grouped, |vs| Value::Int(i64::from(vs.size_bytes() as u32)));
    let sorted_up = d.ctx().sort_by_key(sizes, 6, true);
    let sorted_down = d.ctx().sort_by_key(sorted_up, 5, false);
    let rejoined = d.ctx().join(sorted_down, sizes, 8);
    d.collect(rejoined).unwrap();

    (reader.to_jsonl(), d.stats().clone())
}

#[test]
fn shuffle_heavy_golden_trace_is_identical_across_host_thread_counts() {
    let (golden, stats) = run_shuffle_heavy(1);
    assert!(!golden.is_empty(), "an enabled trace must capture events");
    assert!(stats.revocations > 0, "revocation must land mid-job");
    for threads in [2usize, 8] {
        let (jsonl, other_stats) = run_shuffle_heavy(threads);
        assert_eq!(other_stats, stats, "host_threads={threads} stats diverged");
        assert_eq!(
            jsonl, golden,
            "host_threads={threads} produced a different event stream"
        );
    }
    // The stream is also a complete record: folding it reproduces the
    // engine's own counters even with bucketed shuffle blocks in play.
    let events: Vec<Event> = golden
        .lines()
        .map(|l| Event::from_json(l).expect("every emitted line must parse"))
        .collect();
    let agg = MetricsAggregator::from_events(&events);
    assert_eq!(agg.tasks_run, stats.tasks_run);
    assert_eq!(agg.compute_time_ms, stats.compute_time.as_millis());
    assert_eq!(agg.recompute_time_ms, stats.recompute_time.as_millis());
    assert_eq!(agg.restores, stats.restores);
    assert_eq!(agg.revocations, stats.revocations);
}

/// PageRank-style iterative job: a persisted `links` RDD is re-read from
/// cache across five rank iterations (each a cogroup-join plus a
/// reduce), with a scripted mid-job revocation whose recompute path
/// restores the policy-checkpointed RDD from the durable store. This is
/// the workload shape the zero-copy record path must not perturb: the
/// same cached blocks are fetched wave after wave, so any change to
/// record sizing or fetch ordering would move the stream.
fn run_iterative_cached(host_threads: usize) -> (String, RunStats) {
    let injector = ScriptedInjector::new(vec![
        (
            SimTime::from_millis(120_000),
            WorkerEvent::Remove { ext_id: 1 },
        ),
        (
            SimTime::from_millis(260_000),
            WorkerEvent::Add {
                ext_id: 50,
                spec: WorkerSpec::r3_large(),
            },
        ),
    ]);
    run_iterative_with(host_threads, Box::new(injector), None)
}

/// The iterative workload with an arbitrary injector and (optionally) a
/// store-fault policy installed — so the chaos-off test can prove that
/// merely *wiring* the chaos machinery changes nothing.
fn run_iterative_with(
    host_threads: usize,
    injector: Box<dyn FailureInjector>,
    store_faults: Option<Box<dyn StoreFaultPolicy>>,
) -> (String, RunStats) {
    let cfg = DriverConfig::builder()
        .host_threads(host_threads)
        .size_scale(5e5)
        .build();
    let mut d = Driver::new(
        cfg,
        Box::new(CheckpointFirstLarge { done: false }),
        injector,
    );
    if let Some(policy) = store_faults {
        d.checkpoints_mut().set_fault_policy(policy);
    }
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    for ext in 1..=4u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }

    let src = d.ctx().parallelize((0..480).map(Value::from_i64), 8);
    let links = d.ctx().map(src, |v| {
        let i = v.as_i64().unwrap();
        Value::pair(Value::Int(i % 60), Value::Int((i * 7 + 3) % 60))
    });
    let links = d.ctx().persist(links);
    let mut ranks = d.ctx().map(links, |e| {
        Value::pair(e.key().cloned().unwrap_or(Value::Null), Value::Float(1.0))
    });
    for _ in 0..5 {
        let joined = d.ctx().join(links, ranks, 6);
        let contribs = d.ctx().map(joined, |p| {
            // (k, List[dest, rank]) -> (dest, rank * 0.85)
            match p.val().and_then(Value::as_list) {
                Some(g) if g.len() == 2 => Value::pair(
                    g[0].clone(),
                    Value::Float(g[1].as_f64().unwrap_or(0.0) * 0.85),
                ),
                _ => Value::pair(Value::Null, Value::Float(0.0)),
            }
        });
        ranks = d.ctx().reduce_by_key(contribs, 6, |a, b| {
            Value::Float(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0))
        });
    }
    d.collect(ranks).unwrap();
    (reader.to_jsonl(), d.stats().clone())
}

/// FNV-1a over the raw JSONL bytes, for pinning the stream against a
/// previously captured run.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Hash of `run_iterative_cached(1)`'s JSONL captured on the deep-copy
/// `Value` representation (`Pair(Box, Box)`, uncached sizes), *before*
/// the zero-copy record path landed. The refactored engine must
/// reproduce the stream byte-for-byte: virtual sizing, wave grouping,
/// and fetch ordering are all representation-independent contracts.
const GOLDEN_ITERATIVE_TRACE_FNV: u64 = 0x4d8d_70ef_48bb_ead9;

#[test]
fn iterative_cache_reuse_golden_trace_is_stable() {
    let (golden, stats) = run_iterative_cached(1);
    assert!(!golden.is_empty(), "an enabled trace must capture events");
    assert!(stats.revocations > 0, "revocation must land mid-job");
    assert!(stats.checkpoints_written > 0, "policy must checkpoint");
    assert!(stats.restores > 0, "recompute must restore from checkpoint");
    for threads in [2usize, 8] {
        let (jsonl, other_stats) = run_iterative_cached(threads);
        assert_eq!(other_stats, stats, "host_threads={threads} stats diverged");
        assert_eq!(
            jsonl, golden,
            "host_threads={threads} produced a different event stream"
        );
    }
    assert_eq!(
        fnv1a(golden.as_bytes()),
        GOLDEN_ITERATIVE_TRACE_FNV,
        "stream diverged from the pre-change capture (fnv1a = {:#018x})",
        fnv1a(golden.as_bytes())
    );
}

/// Chaos compiled in but switched off must be a perfect no-op: with a
/// zero-rate [`ChaosInjector`] and a zero-rate store-fault policy
/// *installed*, the iterative workload's trace is byte-identical to the
/// plain `NoFailures` run at every `host_threads` setting. This is the
/// guarantee that lets the chaos subsystem ship default-on in the
/// binary without moving any golden stream.
#[test]
fn chaos_disabled_leaves_golden_trace_untouched() {
    let zero_cfg = || {
        let mut ccfg = ChaosConfig::new(99);
        ccfg.revocations = 0;
        ccfg.flap_prob = 0.0;
        ccfg.mass_revoke_prob = 0.0;
        ccfg.torn_write_prob = 0.0;
        ccfg.failed_write_prob = 0.0;
        ccfg.outages = 0;
        ccfg
    };
    let schedule = ChaosSchedule::generate(&zero_cfg());
    assert!(schedule.worker_events.is_empty(), "zero rates → no events");
    assert!(schedule.notes.is_empty());
    assert!(schedule.outages.is_empty());

    let (golden, stats) = run_iterative_with(1, Box::new(NoFailures), None);
    assert_eq!(stats.revocations, 0);
    for threads in [1usize, 2, 8] {
        let ccfg = zero_cfg();
        let schedule = ChaosSchedule::generate(&ccfg);
        let store_faults = schedule.store_faults(&ccfg);
        let (jsonl, chaos_stats) = run_iterative_with(
            threads,
            Box::new(ChaosInjector::from_schedule(schedule)),
            Some(Box::new(store_faults)),
        );
        assert_eq!(
            chaos_stats, stats,
            "host_threads={threads}: zero-rate chaos perturbed the stats"
        );
        assert_eq!(
            jsonl, golden,
            "host_threads={threads}: zero-rate chaos moved the event stream"
        );
    }
}

/// A TPC-H Q1-shaped scan + wide aggregation declared entirely through
/// batch kernels: lineitem-like rows, a shipdate filter, a projection
/// keyed by `(returnflag, linestatus)`, a combiner shuffle, and a range
/// sort. With `columnar` on, every stage runs vectorized; with it off,
/// the same plan replays through the kernel-generated row closures. The
/// event stream must be byte-identical across *both* axes — thread
/// count and execution form — because all trace observables (vbytes,
/// wave grouping, fetch ordering) are representation-independent.
fn run_tpch_shaped(host_threads: usize, columnar: bool) -> (String, RunStats) {
    let cfg = DriverConfig::builder()
        .host_threads(host_threads)
        .size_scale(5e5)
        .columnar(columnar)
        .build();
    let mut d = Driver::new(cfg, Box::new(NoCheckpoint), Box::new(NoFailures));
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    for ext in 1..=4u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }

    let flags = ["A", "N", "R"];
    let statuses = ["F", "O"];
    let rows: Vec<Value> = (0..600i64)
        .map(|i| {
            Value::list(vec![
                Value::Int(i % 40),
                Value::Float(((i * 7) % 50) as f64 + 1.0),
                Value::Float(((i * 131) % 1000) as f64 * 10.0 + 900.0),
                Value::Float(((i * 3) % 11) as f64 / 100.0),
                Value::from_str_(flags[(i % 3) as usize]),
                Value::from_str_(statuses[(i % 2) as usize]),
                Value::Int((i * 37) % 2557),
            ])
        })
        .collect();
    let lineitem = d.ctx().parallelize(rows, 8);
    let lineitem = d.ctx().persist(lineitem);
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
            val: PayloadExpr::List(vec![
                ScalarExpr::Field(1),
                ScalarExpr::Field(2),
                ScalarExpr::Num(NumExpr::Mul(
                    Box::new(NumExpr::Field(2)),
                    Box::new(NumExpr::Sub(
                        Box::new(NumExpr::Lit(1.0)),
                        Box::new(NumExpr::Field(3)),
                    )),
                )),
                ScalarExpr::IntLit(1),
            ]),
        },
    );
    let agg = d.ctx().reduce_by_key_kernel(
        keyed,
        6,
        AggKernel::SumRow(vec![
            AggField::Float,
            AggField::Float,
            AggField::Float,
            AggField::Int,
        ]),
    );
    let sorted = d.ctx().sort_by_key(agg, 2, true);
    d.collect(sorted).unwrap();
    (reader.to_jsonl(), d.stats().clone())
}

/// Hash of `run_tpch_shaped(1, *)`'s JSONL captured when the columnar
/// batch path landed. Both execution forms must reproduce it: the
/// vectorized kernels may only change real wall-clock, never the
/// simulated stream.
const GOLDEN_TPCH_TRACE_FNV: u64 = 0xaad4_e7a8_4e6b_9342;

#[test]
fn tpch_shaped_golden_trace_is_identical_across_threads_and_forms() {
    let (golden, stats) = run_tpch_shaped(1, true);
    assert!(!golden.is_empty(), "an enabled trace must capture events");
    assert!(stats.tasks_run > 0);
    for threads in [1usize, 2, 8] {
        for columnar in [true, false] {
            let (jsonl, other_stats) = run_tpch_shaped(threads, columnar);
            assert_eq!(
                other_stats, stats,
                "host_threads={threads} columnar={columnar} stats diverged"
            );
            assert_eq!(
                jsonl, golden,
                "host_threads={threads} columnar={columnar} moved the event stream"
            );
        }
    }
    assert_eq!(
        fnv1a(golden.as_bytes()),
        GOLDEN_TPCH_TRACE_FNV,
        "stream diverged from the capture (fnv1a = {:#018x})",
        fnv1a(golden.as_bytes())
    );
}

#[test]
fn aggregator_reproduces_run_stats_exactly() {
    let (jsonl, stats) = run_traced(2);
    let events: Vec<Event> = jsonl
        .lines()
        .map(|l| Event::from_json(l).expect("every emitted line must parse"))
        .collect();
    let agg = MetricsAggregator::from_events(&events);

    assert_eq!(agg.events, events.len() as u64);
    assert_eq!(agg.tasks_run, stats.tasks_run);
    assert_eq!(agg.compute_time_ms, stats.compute_time.as_millis());
    assert_eq!(agg.recompute_time_ms, stats.recompute_time.as_millis());
    assert_eq!(agg.checkpoint_time_ms, stats.checkpoint_time.as_millis());
    assert_eq!(agg.checkpoints_written, stats.checkpoints_written);
    assert_eq!(agg.checkpoint_bytes, stats.checkpoint_bytes);
    assert_eq!(agg.checkpoint_wire_bytes, stats.checkpoint_wire_bytes);
    assert_eq!(agg.restore_time_ms, stats.restore_time.as_millis());
    assert_eq!(agg.restores, stats.restores);
    assert_eq!(agg.stall_time_ms, stats.stall_time.as_millis());
    assert_eq!(agg.revocations, stats.revocations);
    assert_eq!(agg.warnings, stats.warnings);
    assert_eq!(agg.actions, stats.actions.len() as u64);
    assert!(agg.waves > 0);
    assert!(agg.cache_inserts > 0);
    assert!(agg.checkpoints_scheduled > 0);
}

#[test]
fn trace_round_trips_through_json() {
    let (jsonl, _) = run_traced(1);
    for line in jsonl.lines() {
        let ev = Event::from_json(line).expect("line must parse");
        assert_eq!(ev.to_json(), line, "JSON round-trip must be lossless");
    }
}

#[test]
fn timestamps_never_go_backwards() {
    let (jsonl, _) = run_traced(8);
    let mut prev = SimTime::ZERO;
    for line in jsonl.lines() {
        let ev = Event::from_json(line).unwrap();
        assert!(ev.t >= prev, "event stream must be time-ordered");
        prev = ev.t;
    }
}

#[test]
fn disabled_trace_records_nothing_and_changes_nothing() {
    // A run with no sink attached must behave identically to one with a
    // sink (same stats), with zero events recorded.
    let (_, traced_stats) = run_traced(4);
    let cfg = DriverConfig::builder()
        .host_threads(4)
        .size_scale(5e5)
        .build();
    let injector = ScriptedInjector::new(vec![
        (
            SimTime::from_millis(40_000),
            WorkerEvent::Remove { ext_id: 2 },
        ),
        (
            SimTime::from_millis(160_000),
            WorkerEvent::Add {
                ext_id: 100,
                spec: WorkerSpec::r3_large(),
            },
        ),
    ]);
    let mut d = Driver::new(
        cfg,
        Box::new(CheckpointFirstLarge { done: false }),
        Box::new(injector),
    );
    assert!(!d.trace().is_enabled());
    for ext in 1..=4u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let src = d
        .ctx()
        .parallelize((0..600).map(|i| Value::from_i64(i * 37 % 251)), 8);
    let pairs = d.ctx().map(src, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 13), v.clone())
    });
    let pairs = d.ctx().persist(pairs);
    let sums = d.ctx().reduce_by_key(pairs, 5, |a, b| {
        Value::Int(a.as_i64().unwrap_or(0) + b.as_i64().unwrap_or(0))
    });
    let sampled = d.ctx().sample(pairs, 0.4, 7);
    let ones = d.ctx().map_values(sampled, |_| Value::Int(1));
    let counts = d.ctx().reduce_by_key(ones, 4, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    let joined = d.ctx().join(sums, counts, 4);
    let sorted = d.ctx().sort_by_key(joined, 3, true);
    d.collect(sorted).unwrap();
    d.checkpoint_now(sums).unwrap();
    assert_eq!(d.stats(), &traced_stats, "tracing must not perturb the run");
}
