//! A persisted table stays in the form its producer gave it (DESIGN.md
//! §16): through the prepare pass, the cache, the checkpoint store and a
//! restore. `Driver::column_stats` is how these tests see the form — no
//! simulated observable can, which is why the vectorised path could stop
//! running in TPC-H without any other test noticing.

use std::collections::{BTreeSet, HashMap};

use flint::engine::{
    BlockData, BlockKey, CheckpointDirective, CheckpointHooks, ColumnStats, Driver, DriverConfig,
    EventSink, FailureInjector, LineageView, NoCheckpoint, NoFailures, RddId, RddOp, RddRef,
    Records, RunStats, ScriptedInjector, TraceHandle, Value, WorkerEvent, WorkerSpec,
};
use flint::simtime::{SimDuration, SimTime};
use flint::workloads::{
    Als, PageRank, Tpch, TpchQuery, TpchTables, Workload, WorkloadConfig, WorkloadSummary,
};

const WORKERS: u64 = 4;

const TPCH: WorkloadConfig = WorkloadConfig {
    dataset_gb: 4.0,
    partitions: 8,
    iterations: 1,
    seed: 23,
};

fn tpch() -> Tpch {
    Tpch::new(TPCH)
}

/// A driver sized for `wl` with workers on external ids `1..=WORKERS`.
fn driver(wl: &dyn Workload, columnar: bool, injector: Box<dyn FailureInjector>) -> Driver {
    driver_with(wl, columnar, Box::new(NoCheckpoint), injector)
}

fn driver_with(
    wl: &dyn Workload,
    columnar: bool,
    hooks: Box<dyn CheckpointHooks>,
    injector: Box<dyn FailureInjector>,
) -> Driver {
    let cfg = DriverConfig::builder()
        .host_threads(2)
        .size_scale(wl.recommended_size_scale())
        .columnar(columnar)
        .build();
    let mut d = Driver::new(cfg, hooks, injector);
    for ext in 1..=WORKERS {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    d
}

/// The worker on external id 1 is revoked at `at` and replaced two
/// minutes later.
fn lose_worker_one(at: SimTime) -> Vec<(SimTime, WorkerEvent)> {
    vec![
        (at, WorkerEvent::Remove { ext_id: 1 }),
        (
            at + SimDuration::from_secs(120),
            WorkerEvent::Add {
                ext_id: 100,
                spec: WorkerSpec::r3_large(),
            },
        ),
    ]
}

fn since(now: ColumnStats, before: ColumnStats) -> ColumnStats {
    ColumnStats {
        kernel_batches: now.kernel_batches - before.kernel_batches,
        row_fallbacks: now.row_fallbacks - before.row_fallbacks,
        encodes: now.encodes - before.encodes,
        decodes: now.decodes - before.decodes,
    }
}

#[test]
fn kernel_queries_on_prepared_tables_take_the_batch_arm() {
    let wl = tpch();
    let mut col = driver(&wl, true, Box::new(NoFailures));
    let mut row = driver(&wl, false, Box::new(NoFailures));
    let ct = wl.prepare(&mut col).unwrap();
    let rt = wl.prepare(&mut row).unwrap();
    // The prepare pass and its `count` hand batches on; nothing decodes.
    let prepared = col.column_stats();
    assert!(prepared.encodes > 0, "{prepared:?}");
    assert_eq!((prepared.row_fallbacks, prepared.decodes), (0, 0));

    // Q6 gathers its filtered, projected lineitems and folds them at the
    // driver; this is how many that is.
    let q6_gathered = row
        .collect(rt.lineitem)
        .unwrap()
        .iter()
        .filter(|r| {
            let c = r.as_list().expect("lineitem row");
            let (qty, disc, ship) = (c[1].as_f64(), c[3].as_f64(), c[6].as_i64());
            ship.is_some_and(|s| (1900..2265).contains(&s))
                && disc.is_some_and(|d| (0.04..=0.08).contains(&d))
                && qty.is_some_and(|q| q < 24.0)
        })
        .count() as u64;

    let (q3, q10) = join_query_stats(&mut row, &rt);
    for q in TpchQuery::ALL {
        let before = col.column_stats();
        let rdds = col.lineage().ids().count();
        let got = wl.query(&mut col, &ct, q).unwrap();
        let used = since(col.column_stats(), before);
        eprintln!("{}: {used:?}", q.name());
        assert_eq!(
            got,
            wl.query(&mut row, &rt, q).unwrap(),
            "{} differs from its columnar = false twin",
            q.name()
        );
        // The scan queries are kernel-declared end to end; the join
        // queries bucket their batches typed and group them off the key
        // column (`join_query_stats`).
        let gathered = match q {
            TpchQuery::Q1 => got.len() as u64,
            TpchQuery::Q6 => q6_gathered,
            TpchQuery::Q3 => {
                assert_eq!(used, q3, "Q3");
                continue;
            }
            TpchQuery::Q10 => {
                assert_eq!(used, q10, "Q10");
                assert_join_map_blocks_are_batches(&col, rdds);
                continue;
            }
        };
        assert!(used.kernel_batches > 0, "{}: no kernel ran", q.name());
        assert_eq!(used.row_fallbacks, 0, "{}: {used:?}", q.name());
        assert!(
            used.decodes <= gathered,
            "{}: decoded {} records for {gathered} gathered",
            q.name(),
            used.decodes
        );
    }
    assert_eq!(row.column_stats(), ColumnStats::default());
}

/// The `ColumnStats` of Q3 and Q10 on the `Tpch::prepare` tables, derived
/// from the rows of the `columnar = false` twin `row`. Every kernel runs
/// its batch arm, a join's map tasks bucket their batches without
/// decoding them, and each `CoGroup` reduce reads every batch value once,
/// so `decodes` is the record count of the join inputs that arrive as
/// batches — the kernel-keyed ones.
///
/// * Q3: five kernels (a filter over `customer`, a filter and a keying
///   map over each of `orders` and `lineitem`). Its BUILDING customers
///   are keyed by a row closure, which decodes them, and the first join's
///   output is rows re-keyed by another. So the batches the joins read
///   are the orders placed before day 1800 and the lineitems shipped
///   after it. The per-order `SumFloat` keys by `[orderkey, meta]`, a
///   list with no column type: both sides of that aggregation run the
///   row closure, `2 · partitions` fallbacks.
/// * Q10: six kernels (the returned-lineitem filter, three keying maps,
///   both sides of `SumFloat`). Both sides of both joins are batches: the
///   returned lineitems and every order, then the per-customer sums and
///   every customer. The first join's rows re-key through a `flat_map`
///   and encode once, at the map side of `SumFloat`.
fn join_query_stats(row: &mut Driver, t: &TpchTables) -> (ColumnStats, ColumnStats) {
    let table = |d: &mut Driver, rdd: RddRef| -> Vec<Vec<Value>> {
        let rows = d.collect(rdd).unwrap();
        rows.iter()
            .map(|r| r.as_list().expect("table row").to_vec())
            .collect()
    };
    let (lineitem, orders) = (table(row, t.lineitem), table(row, t.orders));
    let customers = table(row, t.customer);
    let int = |v: &Value| v.as_i64().expect("an Int column");
    let parts = u64::from(TPCH.partitions);

    let early_orders = orders.iter().filter(|o| int(&o[2]) < 1800).count();
    let late_items = lineitem.iter().filter(|l| int(&l[6]) > 1800).count();
    let building = customers
        .iter()
        .filter(|c| c[1].as_str() == Some("BUILDING"))
        .count();
    let q3 = ColumnStats {
        kernel_batches: 5 * parts,
        row_fallbacks: 2 * parts,
        encodes: 0,
        decodes: (building + early_orders + late_items) as u64,
    };

    let customer_of: HashMap<i64, i64> = orders.iter().map(|o| (int(&o[0]), int(&o[1]))).collect();
    let returned: Vec<i64> = lineitem
        .iter()
        .filter(|l| l[4].as_str() == Some("R") && (600..1800).contains(&int(&l[6])))
        .map(|l| int(&l[0]))
        .collect();
    let joined: Vec<i64> = returned
        .iter()
        .filter_map(|o| customer_of.get(o).copied())
        .collect();
    let summed = joined.iter().collect::<BTreeSet<_>>().len();
    let q10 = ColumnStats {
        kernel_batches: 6 * parts,
        row_fallbacks: 0,
        encodes: joined.len() as u64,
        decodes: (returned.len() + orders.len() + summed + customers.len()) as u64,
    };
    (q3, q10)
}

/// Every map block of the `CoGroup`s made after the first `rdds` RDDs of
/// `d`'s lineage is still cached, bucketed, and holds its non-empty
/// buckets as batches: the map tasks handed their kernel-made batches to
/// `partition_columnar` instead of decoding them to rows.
fn assert_join_map_blocks_are_batches(d: &Driver, rdds: usize) {
    let lineage = d.lineage();
    let mut blocks = 0;
    for rdd in lineage.ids().skip(rdds) {
        let RddOp::CoGroup { shuffles } = &lineage.meta(rdd).op else {
            continue;
        };
        for &shuffle in shuffles {
            let maps = lineage.meta(lineage.shuffle(shuffle).parent).num_partitions;
            for map_part in 0..maps {
                let key = BlockKey::ShuffleMap { shuffle, map_part };
                let (_, data, _, _) = d.cluster().peek_fetch(&key).expect("map block cached");
                let BlockData::Bucketed(bb) = data else {
                    panic!("{key} is not bucketed");
                };
                for part in 0..bb.num_buckets() {
                    let bucket = bb.bucket(part).expect("bucket in range");
                    assert!(
                        bucket.is_empty() || matches!(bucket, Records::Col(_)),
                        "{key} bucket {part} holds rows"
                    );
                }
                blocks += 1;
            }
        }
    }
    assert!(blocks > 0, "no join map block was inspected");
}

/// Prepare, checkpoint `lineitem`, lose the worker on external id 1 and
/// run Q1 on what is left: `(Q1 rows, stats, trace, column counters of
/// that Q1, restores during it)`.
fn q1_after_revocation(columnar: bool) -> (Vec<Value>, RunStats, String, ColumnStats, u64) {
    let wl = tpch();
    let revoke_at = SimTime::from_hours_f64(24.0);
    let mut d = driver(
        &wl,
        columnar,
        Box::new(ScriptedInjector::new(lose_worker_one(revoke_at))),
    );
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);

    let t = wl.prepare(&mut d).unwrap();
    d.checkpoint_now(t.lineitem).unwrap();
    wl.query(&mut d, &t, TpchQuery::Q1).unwrap();
    assert!(
        d.now() < revoke_at,
        "the revocation must strike a warm session"
    );

    let holder_ext = |d: &Driver, part: u32| {
        let key = BlockKey::RddPart {
            rdd: t.lineitem.id(),
            part,
        };
        d.cluster()
            .locate(&key)
            .map(|(w, _, _)| d.cluster().worker(w).ext_id)
    };
    let parts = d.lineage().meta(t.lineitem.id()).num_partitions;
    let doomed: Vec<u32> = (0..parts)
        .filter(|p| holder_ext(&d, *p) == Some(1))
        .collect();
    assert!(!doomed.is_empty(), "worker 1 must hold lineitem partitions");
    d.idle_until(revoke_at + SimDuration::from_secs(300))
        .unwrap();
    assert!(doomed.iter().all(|p| holder_ext(&d, *p).is_none()));

    let (restores, column) = (d.stats().restores, d.column_stats());
    let rows = wl.query(&mut d, &t, TpchQuery::Q1).unwrap();
    let restored = d.stats().restores - restores;
    assert!(
        restored >= doomed.len() as u64,
        "{} lost partitions, {restored} restores",
        doomed.len()
    );
    (
        rows,
        d.stats().clone(),
        reader.to_jsonl(),
        since(d.column_stats(), column),
        restored,
    )
}

#[test]
fn a_restored_table_stays_on_the_batch_path() {
    let (rows, stats, trace, used, restored) = q1_after_revocation(true);
    let (twin_rows, twin_stats, twin_trace, twin_used, twin_restored) = q1_after_revocation(false);
    eprintln!("Q1 after revocation: {restored} restores, {used:?}");
    assert!(used.kernel_batches > 0);
    assert_eq!(used.row_fallbacks, 0, "{used:?}");
    assert!(used.decodes <= rows.len() as u64, "{used:?}");
    assert_eq!(twin_used, ColumnStats::default());
    assert_eq!(restored, twin_restored);
    assert_eq!(rows, twin_rows);
    assert_eq!(stats, twin_stats);
    assert_eq!(trace, twin_trace);
}

const PAGERANK: WorkloadConfig = WorkloadConfig {
    dataset_gb: 1.0,
    partitions: 8,
    iterations: 3,
    seed: 5,
};

/// Checkpoints every persisted RDD — `links` and each `ranks` — the
/// moment it is fully materialized.
struct CheckpointEveryTable;

impl CheckpointHooks for CheckpointEveryTable {
    fn on_rdd_materialized(
        &mut self,
        view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        rdd: RddId,
        _now: SimTime,
    ) -> Vec<CheckpointDirective> {
        if view.lineage.is_persisted(rdd) {
            vec![CheckpointDirective::Checkpoint(rdd)]
        } else {
            Vec::new()
        }
    }
}

struct PagerankRun {
    summary: WorkloadSummary,
    stats: RunStats,
    trace: String,
    used: ColumnStats,
    finished: SimTime,
    /// `Restored` events that name a partition of a per-iteration `ranks`
    /// RDD.
    ranks_restored: usize,
    /// Of the copies of those RDDs' partitions in the checkpoint store
    /// and in worker caches at the end, how many are batches, and how
    /// many there are.
    rank_copies: (usize, usize),
}

/// One traced PageRank job with every persisted RDD checkpointed; with
/// `revoke_at`, under [`lose_worker_one`].
fn checkpointed_pagerank(columnar: bool, revoke_at: Option<SimTime>) -> PagerankRun {
    let wl = PageRank::new(PAGERANK);
    let script = revoke_at.map_or_else(Vec::new, lose_worker_one);
    let mut d = driver_with(
        &wl,
        columnar,
        Box::new(CheckpointEveryTable),
        Box::new(ScriptedInjector::new(script)),
    );
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    let summary = wl.run(&mut d).unwrap();
    let trace = reader.to_jsonl();

    // Persisted RDDs in creation order: `links`, the initial `ranks`
    // (rows: it is mapped off nested adjacency lists), then one updated
    // `ranks` per iteration.
    let persisted: Vec<RddId> = d
        .lineage()
        .ids()
        .filter(|id| d.lineage().is_persisted(*id))
        .collect();
    assert_eq!(persisted.len(), 2 + PAGERANK.iterations as usize);
    let rank_parts = persisted[2..]
        .iter()
        .flat_map(|rdd| (0..PAGERANK.partitions).map(move |part| (*rdd, part)));
    let (mut ranks_restored, mut copies) = (0, Vec::new());
    for (rdd, part) in rank_parts {
        let key = BlockKey::RddPart { rdd, part };
        let restored = format!("\"ev\":\"Restored\",\"block\":\"{key}\"");
        ranks_restored += trace.matches(&restored).count();
        copies.extend(d.checkpoints().get(rdd, part).map(|r| r.batch().is_some()));
        let cached = d.cluster().peek_fetch(&key);
        copies.extend(cached.and_then(|(_, b, _, _)| b.part().map(|r| r.batch().is_some())));
    }
    PagerankRun {
        summary,
        stats: d.stats().clone(),
        trace,
        used: d.column_stats(),
        finished: d.now(),
        ranks_restored,
        rank_copies: (copies.iter().filter(|b| **b).count(), copies.len()),
    }
}

/// The PageRank twin of `a_restored_table_stays_on_the_batch_path`: a
/// `ranks` partition is cached, checkpointed, lost and restored as the
/// batch the rank-update kernel made. Only the first `map_kernel` over
/// `links` ever falls back (`contribs` builds its batch from the cogroup's
/// rows, whatever form its inputs were restored in), so checkpoint jobs
/// and a revocation can add only its re-materializations to
/// `row_fallbacks`, while the kernels they re-run keep `kernel_batches`
/// growing; a shuffle block or `ranks` partition that came back as rows
/// would add a fallback per reduce task downstream of it.
#[test]
fn restored_ranks_stay_on_the_batch_path() {
    let parts = u64::from(PAGERANK.partitions);
    let clean = checkpointed_pagerank(true, None);
    // Late enough that the map outputs worker 1 takes with it were derived
    // from an updated `ranks`, not from the initial one.
    let late = SimTime::from_millis(clean.finished.as_millis() * 9 / 10);

    let col = checkpointed_pagerank(true, Some(late));
    let row = checkpointed_pagerank(false, Some(late));
    eprintln!(
        "pagerank, worker 1 lost at {late}: {} restores ({} of ranks), {:?} ({:?} without the \
         loss), rank copies {:?}",
        col.stats.restores, col.ranks_restored, col.used, clean.used, col.rank_copies
    );
    assert_eq!(col.stats.revocations, 1);
    assert!(col.ranks_restored > 0, "no `ranks` partition was restored");
    assert!(col.used.row_fallbacks <= 2 * parts, "{:?}", col.used);
    assert!(
        col.used.kernel_batches > clean.used.kernel_batches,
        "{:?} after a loss, {:?} without",
        col.used,
        clean.used
    );
    let (as_batch, held) = col.rank_copies;
    assert!(
        held > 0 && as_batch == held,
        "{as_batch} of {held} as a batch"
    );
    assert_eq!(row.rank_copies, (0, held));
    assert_eq!(row.used, ColumnStats::default());

    assert_eq!(col.summary, clean.summary);
    assert_eq!(col.summary, row.summary);
    assert_eq!(col.stats, row.stats);
    assert_eq!(col.trace, row.trace);
}

/// PageRank declares four kernels per iteration and runs all of them:
/// `contribs` builds its `(Int, Float)` batch straight from the cogroup's
/// rows, which the map side of the kernel-declared shuffle combines and
/// buckets with no encode, and it stays a batch through the reduce and
/// the rank update. Only the first `map_kernel` over `links` falls back
/// (nested adjacency lists have no columnar layout), once per partition. ALS declares no kernel, so its counters are form changes
/// only: its sources encode, and each half-step's join buckets them typed
/// and reads every value out of a batch once, at the `CoGroup` reduce.
#[test]
fn pagerank_and_als_counters_are_recorded() {
    let cfg = PAGERANK;
    let (parts, iters) = (u64::from(cfg.partitions), u64::from(cfg.iterations));
    let workloads: [&dyn Workload; 2] = [&PageRank::new(cfg), &Als::new(cfg)];
    for wl in workloads {
        let mut col = driver(wl, true, Box::new(NoFailures));
        let mut row = driver(wl, false, Box::new(NoFailures));
        assert_eq!(wl.run(&mut col).unwrap(), wl.run(&mut row).unwrap());
        let used = col.column_stats();
        eprintln!("{}: {used:?}", wl.name());
        if wl.name() == "pagerank" {
            assert_eq!(used.row_fallbacks, parts, "{used:?}");
            assert_eq!(used.kernel_batches, 4 * parts * iters, "{used:?}");
        } else {
            // 1 GB of ALS is 400 ratings over 25 items. Both keyings of
            // the ratings and the initial item factors encode at their
            // sources (the initial user factors are replaced unread). Every
            // half-step's join reads each rating from a batch, the first
            // one each initial item factor too; later factors are rows.
            let (ratings, items) = (400, 25);
            let want = ColumnStats {
                kernel_batches: 0,
                row_fallbacks: 0,
                encodes: 2 * ratings + items,
                decodes: 2 * iters * ratings + items,
            };
            assert_eq!(used, want);
        }
    }
}
