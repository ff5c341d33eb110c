//! A persisted table stays in the form its producer gave it (DESIGN.md
//! §16): through the prepare pass, the cache, the checkpoint store and a
//! restore. `Driver::column_stats` is how these tests see the form — no
//! simulated observable can, which is why the vectorised path could stop
//! running in TPC-H without any other test noticing.

use flint::engine::{
    BlockKey, ColumnStats, Driver, DriverConfig, FailureInjector, NoCheckpoint, NoFailures,
    RunStats, ScriptedInjector, TraceHandle, Value, WorkerEvent, WorkerSpec,
};
use flint::simtime::{SimDuration, SimTime};
use flint::workloads::{Als, PageRank, Tpch, TpchQuery, Workload, WorkloadConfig};

const WORKERS: u64 = 4;

fn tpch() -> Tpch {
    Tpch::new(WorkloadConfig {
        dataset_gb: 4.0,
        partitions: 8,
        iterations: 1,
        seed: 23,
    })
}

/// A driver sized for `wl` with workers on external ids `1..=WORKERS`.
fn driver(wl: &dyn Workload, columnar: bool, injector: Box<dyn FailureInjector>) -> Driver {
    let cfg = DriverConfig::builder()
        .host_threads(2)
        .size_scale(wl.recommended_size_scale())
        .columnar(columnar)
        .build();
    let mut d = Driver::new(cfg, Box::new(NoCheckpoint), injector);
    for ext in 1..=WORKERS {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    d
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

    for q in TpchQuery::ALL {
        let before = col.column_stats();
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
        // queries still decode at the cogroup boundary.
        let gathered = match q {
            TpchQuery::Q1 => got.len() as u64,
            TpchQuery::Q6 => q6_gathered,
            TpchQuery::Q3 | TpchQuery::Q10 => continue,
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

/// Prepare, checkpoint `lineitem`, lose the worker on external id 1 and
/// run Q1 on what is left: `(Q1 rows, stats, trace, column counters of
/// that Q1, restores during it)`.
fn q1_after_revocation(columnar: bool) -> (Vec<Value>, RunStats, String, ColumnStats, u64) {
    let wl = tpch();
    let revoke_at = SimTime::from_hours_f64(24.0);
    let mut d = driver(
        &wl,
        columnar,
        Box::new(ScriptedInjector::new(vec![
            (revoke_at, WorkerEvent::Remove { ext_id: 1 }),
            (
                revoke_at + SimDuration::from_secs(120),
                WorkerEvent::Add {
                    ext_id: 100,
                    spec: WorkerSpec::r3_large(),
                },
            ),
        ])),
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

/// PageRank and ALS are not kernel-clean yet; their counters are the
/// next change's work list, printed here (`--nocapture`), not asserted.
#[test]
fn pagerank_and_als_counters_are_recorded() {
    let cfg = WorkloadConfig {
        dataset_gb: 1.0,
        partitions: 8,
        iterations: 3,
        seed: 5,
    };
    let workloads: [&dyn Workload; 2] = [&PageRank::new(cfg), &Als::new(cfg)];
    for wl in workloads {
        let mut col = driver(wl, true, Box::new(NoFailures));
        let mut row = driver(wl, false, Box::new(NoFailures));
        assert_eq!(wl.run(&mut col).unwrap(), wl.run(&mut row).unwrap());
        eprintln!("{}: {:?}", wl.name(), col.column_stats());
    }
}
