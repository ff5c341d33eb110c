//! The driver's actions end to end on small in-memory datasets:
//! transformations, shuffles and every action return the right values,
//! and revocations, total cluster loss and explicit checkpoints recover
//! them. A worker revoked three times within ten minutes is quarantined.

use flint_engine::{
    Driver, DriverConfig, EngineError, EventKind, NoCheckpoint, NoFailures, RddRef,
    ScriptedInjector, TraceHandle, Value, WorkerEvent, WorkerSpec,
};
use flint_simtime::{SimDuration, SimTime};

fn sum_pairs(d: &mut Driver, r: RddRef) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = d
        .collect(r)
        .unwrap()
        .into_iter()
        .map(|v| {
            let (k, val) = v.into_pair().unwrap();
            (k.as_i64().unwrap(), val.as_i64().unwrap())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn map_filter_pipeline() {
    let mut d = Driver::local(3);
    let src = d.ctx().parallelize((0..100).map(Value::from_i64), 8);
    let doubled = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() * 2));
    let big = d.ctx().filter(doubled, |v| v.as_i64().unwrap() >= 100);
    let out = d.collect(big).unwrap();
    assert_eq!(out.len(), 50);
    assert!(out.iter().all(|v| v.as_i64().unwrap() % 2 == 0));
    assert!(d.now() > SimTime::ZERO, "virtual time must advance");
    assert!(d.stats().tasks_run >= 8);
}

#[test]
fn word_count_reduce_by_key() {
    let mut d = Driver::local(2);
    let words = d.ctx().parallelize(
        ["a", "b", "a", "c", "b", "a"]
            .iter()
            .map(|s| Value::from_str_(s)),
        3,
    );
    let pairs = d
        .ctx()
        .map(words, |w| Value::pair(w.clone(), Value::Int(1)));
    let counts = d.ctx().reduce_by_key(pairs, 2, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    let mut out: Vec<(String, i64)> = d
        .collect(counts)
        .unwrap()
        .into_iter()
        .map(|v| {
            let (k, c) = v.into_pair().unwrap();
            (k.as_str().unwrap().to_string(), c.as_i64().unwrap())
        })
        .collect();
    out.sort();
    assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
}

#[test]
fn join_matches_keys() {
    let mut d = Driver::local(2);
    let left = d.ctx().parallelize(
        vec![
            Value::pair(Value::Int(1), Value::from_str_("x")),
            Value::pair(Value::Int(2), Value::from_str_("y")),
        ],
        2,
    );
    let right = d.ctx().parallelize(
        vec![
            Value::pair(Value::Int(1), Value::Int(10)),
            Value::pair(Value::Int(1), Value::Int(11)),
            Value::pair(Value::Int(3), Value::Int(30)),
        ],
        2,
    );
    let joined = d.ctx().join(left, right, 3);
    let out = d.collect(joined).unwrap();
    // Key 1 joins with two right values; keys 2 and 3 do not match.
    assert_eq!(out.len(), 2);
    for v in &out {
        assert_eq!(v.key().unwrap().as_i64(), Some(1));
    }
}

#[test]
fn sort_by_key_orders_globally() {
    let mut d = Driver::local(3);
    let vals: Vec<Value> = [5i64, 3, 9, 1, 7, 2, 8, 0, 6, 4]
        .iter()
        .map(|i| Value::pair(Value::Int(*i), Value::Int(*i * 10)))
        .collect();
    let src = d.ctx().parallelize(vals, 4);
    let sorted = d.ctx().sort_by_key(src, 3, true);
    let keys: Vec<i64> = d
        .collect(sorted)
        .unwrap()
        .iter()
        .map(|v| v.key().unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(keys, (0..10).collect::<Vec<_>>());

    let sorted_desc = d.ctx().sort_by_key(src, 3, false);
    let keys: Vec<i64> = d
        .collect(sorted_desc)
        .unwrap()
        .iter()
        .map(|v| v.key().unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(keys, (0..10).rev().collect::<Vec<_>>());
}

#[test]
fn count_reduce_take_actions() {
    let mut d = Driver::local(2);
    let src = d.ctx().parallelize((1..=10).map(Value::from_i64), 4);
    assert_eq!(d.count(src).unwrap(), 10);
    let total = d
        .reduce(src, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        })
        .unwrap();
    assert_eq!(total.as_i64(), Some(55));
    assert_eq!(d.take(src, 3).unwrap().len(), 3);
    assert_eq!(d.stats().actions.len(), 3);
}

#[test]
fn reduce_on_empty_errors() {
    let mut d = Driver::local(1);
    let src = d.ctx().parallelize(std::iter::empty(), 2);
    let e = d.reduce(src, |a, _| a.clone()).unwrap_err();
    assert_eq!(e, EngineError::EmptyDataset);
}

#[test]
fn distinct_and_union() {
    let mut d = Driver::local(2);
    let a = d.ctx().parallelize([1, 2, 2, 3].map(Value::from_i64), 2);
    let b = d.ctx().parallelize([3, 4].map(Value::from_i64), 1);
    let u = d.ctx().union(a, b);
    assert_eq!(d.count(u).unwrap(), 6);
    let dist = d.ctx().distinct(u, 2);
    let mut vals: Vec<i64> = d
        .collect(dist)
        .unwrap()
        .iter()
        .map(|v| v.as_i64().unwrap())
        .collect();
    vals.sort();
    assert_eq!(vals, vec![1, 2, 3, 4]);
}

#[test]
fn sample_is_deterministic() {
    let mut d1 = Driver::local(2);
    let s1 = d1.ctx().parallelize((0..1000).map(Value::from_i64), 4);
    let samp1 = d1.ctx().sample(s1, 0.3, 42);
    let c1 = d1.count(samp1).unwrap();
    let mut d2 = Driver::local(2);
    let s2 = d2.ctx().parallelize((0..1000).map(Value::from_i64), 4);
    let samp2 = d2.ctx().sample(s2, 0.3, 42);
    let c2 = d2.count(samp2).unwrap();
    assert_eq!(c1, c2);
    assert!(c1 > 150 && c1 < 450, "sample count {c1} wildly off 30%");
}

#[test]
fn revocation_mid_job_recovers_with_identical_result() {
    // Golden result without failures.
    let build = |d: &mut Driver| {
        let src = d.ctx().parallelize((0..500).map(Value::from_i64), 10);
        let pairs = d.ctx().map(src, |v| {
            Value::pair(Value::Int(v.as_i64().unwrap() % 7), Value::Int(1))
        });
        d.ctx().reduce_by_key(pairs, 5, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        })
    };
    let mut golden_driver = Driver::local(4);
    let g = build(&mut golden_driver);
    let golden = sum_pairs(&mut golden_driver, g);

    // Same job with two workers revoked mid-run (and never replaced;
    // two survivors carry on).
    let mut d = Driver::new(
        DriverConfig::default(),
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(vec![
            (SimTime::from_millis(50), WorkerEvent::Remove { ext_id: 1 }),
            (SimTime::from_millis(60), WorkerEvent::Remove { ext_id: 2 }),
        ])),
    );
    for ext in 1..=4u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let r = build(&mut d);
    let out = sum_pairs(&mut d, r);
    assert_eq!(out, golden);
    assert_eq!(d.stats().revocations, 2);
}

#[test]
fn all_workers_lost_then_replaced() {
    let mut d = Driver::new(
        DriverConfig::default(),
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(vec![
            (SimTime::from_millis(10), WorkerEvent::Remove { ext_id: 1 }),
            (SimTime::from_millis(10), WorkerEvent::Remove { ext_id: 2 }),
            (
                SimTime::from_millis(120_000),
                WorkerEvent::Add {
                    ext_id: 3,
                    spec: WorkerSpec::r3_large(),
                },
            ),
        ])),
    );
    d.add_worker_with_ext(1, WorkerSpec::r3_large());
    d.add_worker_with_ext(2, WorkerSpec::r3_large());
    let src = d.ctx().parallelize((0..200).map(Value::from_i64), 6);
    let sq = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap().pow(2)));
    assert_eq!(d.count(sq).unwrap(), 200);
    // The job must have stalled waiting for the replacement.
    assert!(d.stats().stall_time > SimDuration::from_secs(60));
    assert_eq!(d.stats().revocations, 2);
}

#[test]
fn no_workers_and_no_events_errors() {
    let mut d = Driver::new(
        DriverConfig::default(),
        Box::new(NoCheckpoint),
        Box::new(NoFailures),
    );
    let src = d.ctx().parallelize((0..10).map(Value::from_i64), 2);
    assert_eq!(d.count(src).unwrap_err(), EngineError::NoWorkers);
}

#[test]
fn persisted_rdd_cached_and_reused() {
    let mut d = Driver::local(2);
    let src = d.ctx().parallelize((0..100).map(Value::from_i64), 4);
    let heavy = d.ctx().map(src, |v| v.clone());
    d.ctx().persist(heavy);
    let _ = d.count(heavy).unwrap();
    let t1 = d.stats().actions[0].latency();
    let _ = d.count(heavy).unwrap();
    let t2 = d.stats().actions[1].latency();
    assert!(t2 < t1, "cached second run ({t2}) should beat first ({t1})");
}

#[test]
fn explicit_checkpoint_survives_total_cluster_loss() {
    let mut d = Driver::new(
        DriverConfig::default(),
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(vec![
            (
                SimTime::from_hours_f64(1.0),
                WorkerEvent::Remove { ext_id: 1 },
            ),
            (
                SimTime::from_hours_f64(1.0),
                WorkerEvent::Remove { ext_id: 2 },
            ),
            (
                SimTime::from_hours_f64(1.1),
                WorkerEvent::Add {
                    ext_id: 10,
                    spec: WorkerSpec::r3_large(),
                },
            ),
            (
                SimTime::from_hours_f64(1.1),
                WorkerEvent::Add {
                    ext_id: 11,
                    spec: WorkerSpec::r3_large(),
                },
            ),
        ])),
    );
    d.add_worker_with_ext(1, WorkerSpec::r3_large());
    d.add_worker_with_ext(2, WorkerSpec::r3_large());

    let src = d.ctx().parallelize((0..300).map(Value::from_i64), 6);
    let mapped = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() + 1));
    d.checkpoint_now(mapped).unwrap();
    assert!(d.checkpoints().is_fully_checkpointed(mapped.id()));

    // Lose the whole cluster, get new workers, and re-read: the data
    // must come back from the durable store (restores > 0).
    d.idle_until(SimTime::from_hours_f64(1.2)).unwrap();
    assert_eq!(d.cluster().alive_count(), 2);
    let before = d.stats().restores;
    let total = d
        .reduce(mapped, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        })
        .unwrap();
    assert_eq!(total.as_i64(), Some((1..=300).sum::<i64>()));
    assert!(d.stats().restores > before);
}

#[test]
fn recompute_time_tracked_after_loss() {
    // Scale the tiny in-process dataset up so durations exceed the
    // millisecond resolution of virtual time.
    let mut config = DriverConfig::default();
    config.cost.size_scale = 1e6;
    let mut d = Driver::new(
        config,
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(vec![(
            SimTime::from_hours_f64(0.5),
            WorkerEvent::Remove { ext_id: 1 },
        )])),
    );
    d.add_worker_with_ext(1, WorkerSpec::r3_large());
    d.add_worker_with_ext(2, WorkerSpec::r3_large());
    let src = d.ctx().parallelize((0..400).map(Value::from_i64), 8);
    let pairs = d.ctx().map(src, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 5), Value::Int(1))
    });
    let red = d.ctx().reduce_by_key(pairs, 4, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    let _ = d.count(red).unwrap();
    assert_eq!(d.stats().recompute_time, SimDuration::ZERO);

    // Idle across the revocation, then ask again: half the cache is
    // gone, so some recomputation must happen.
    d.idle_until(SimTime::from_hours_f64(0.6)).unwrap();
    let _ = d.count(red).unwrap();
    assert!(d.stats().recompute_time > SimDuration::ZERO);
}

#[test]
fn coalesce_preserves_data_with_fewer_partitions() {
    let mut d = Driver::local(3);
    let src = d.ctx().parallelize((0..100).map(Value::from_i64), 8);
    let co = d.ctx().coalesce(src, 3);
    assert_eq!(d.ctx().num_partitions(co), 3);
    let mut vals: Vec<i64> = d
        .collect(co)
        .unwrap()
        .iter()
        .map(|v| v.as_i64().unwrap())
        .collect();
    vals.sort_unstable();
    assert_eq!(vals, (0..100).collect::<Vec<_>>());
    // Coalescing to more partitions than exist clamps.
    let same = d.ctx().coalesce(src, 100);
    assert_eq!(d.ctx().num_partitions(same), 8);
    assert_eq!(d.count(same).unwrap(), 100);
}

#[test]
fn coalesce_survives_revocation() {
    let mut d = Driver::new(
        DriverConfig::default(),
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(vec![(
            SimTime::from_millis(40),
            WorkerEvent::Remove { ext_id: 1 },
        )])),
    );
    for ext in 1..=3u64 {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let src = d.ctx().parallelize((0..60).map(Value::from_i64), 6);
    let co = d.ctx().coalesce(src, 2);
    let total = d
        .reduce(co, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        })
        .unwrap();
    assert_eq!(total.as_i64(), Some((0..60).sum::<i64>()));
}

#[test]
fn pair_projection_helpers() {
    let mut d = Driver::local(2);
    let pairs = d.ctx().parallelize(
        (0..10).map(|i| Value::pair(Value::Int(i % 3), Value::Int(i))),
        2,
    );
    let doubled = d
        .ctx()
        .map_values(pairs, |v| Value::Int(v.as_i64().unwrap() * 2));
    let vals = d.ctx().values(doubled);
    let total = d
        .reduce(vals, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        })
        .unwrap();
    assert_eq!(total.as_i64(), Some(2 * (0..10).sum::<i64>()));

    let keys = d.ctx().keys(pairs);
    let distinct = d.ctx().distinct(keys, 2);
    assert_eq!(d.count(distinct).unwrap(), 3);
}

#[test]
fn ordered_and_keyed_actions() {
    let mut d = Driver::local(2);
    let src = d.ctx().parallelize([5, 1, 9, 3, 7].map(Value::from_i64), 3);
    assert_eq!(
        d.take_ordered(src, 2).unwrap(),
        vec![Value::Int(1), Value::Int(3)]
    );
    assert!(d.first(src).unwrap().is_some());

    let pairs = d.ctx().parallelize(
        (0..12).map(|i| Value::pair(Value::Int(i % 3), Value::Int(i))),
        3,
    );
    let counts = d.count_by_key(pairs).unwrap();
    assert_eq!(counts.len(), 3);
    assert!(counts.values().all(|c| *c == 4));

    let empty = d.ctx().parallelize(std::iter::empty(), 1);
    assert_eq!(d.first(empty).unwrap(), None);
}

#[test]
fn cogroup_groups_both_sides() {
    let mut d = Driver::local(2);
    let a = d.ctx().parallelize(
        vec![
            Value::pair(Value::Int(1), Value::from_str_("a1")),
            Value::pair(Value::Int(2), Value::from_str_("a2")),
        ],
        2,
    );
    let b = d
        .ctx()
        .parallelize(vec![Value::pair(Value::Int(1), Value::from_str_("b1"))], 1);
    let cg = d.ctx().cogroup(a, b, 2);
    let out = d.collect(cg).unwrap();
    assert_eq!(out.len(), 2); // keys 1 and 2
    for v in out {
        let (k, groups) = v.into_pair().unwrap();
        let groups = groups.as_list().unwrap().to_vec();
        assert_eq!(groups.len(), 2);
        if k.as_i64() == Some(2) {
            assert_eq!(groups[1].as_list().unwrap().len(), 0);
        } else {
            assert_eq!(groups[1].as_list().unwrap().len(), 1);
        }
    }
}

/// Drives an idle two-worker cluster through `events` (ext 2 never
/// moves) and returns the quarantines and ext 1's joins it traced.
fn flap_run(events: Vec<(SimTime, WorkerEvent)>) -> (Vec<(u64, u64)>, Vec<SimTime>) {
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    let mut d = Driver::new(
        DriverConfig::default(),
        Box::new(NoCheckpoint),
        Box::new(ScriptedInjector::new(events)),
    );
    d.set_trace(trace);
    d.add_worker_with_ext(1, WorkerSpec::r3_large());
    d.add_worker_with_ext(2, WorkerSpec::r3_large());
    d.idle_until(SimTime::from_millis(3_600_000)).unwrap();
    let mut quarantined = Vec::new();
    let mut joins = Vec::new();
    for e in reader.events() {
        match e.kind {
            EventKind::WorkerQuarantined { ext, removes } => quarantined.push((ext, removes)),
            EventKind::WorkerAdded { ext: 1 } => joins.push(e.t),
            _ => {}
        }
    }
    (quarantined, joins)
}

/// Ext 1 is revoked at each of `removes` (seconds) and re-added 10 s
/// after each.
fn flapping(removes: [u64; 3]) -> Vec<(SimTime, WorkerEvent)> {
    let s = |secs: u64| SimTime::from_millis(secs * 1000);
    removes
        .iter()
        .flat_map(|&r| {
            [
                (s(r), WorkerEvent::Remove { ext_id: 1 }),
                (
                    s(r + 10),
                    WorkerEvent::Add {
                        ext_id: 1,
                        spec: WorkerSpec::r3_large(),
                    },
                ),
            ]
        })
        .collect()
}

#[test]
fn three_revocations_in_ten_minutes_quarantine_a_worker() {
    // First to third revocation is exactly 600 s: still inside.
    let (quarantined, joins) = flap_run(flapping([10, 300, 610]));
    assert_eq!(quarantined, vec![(1, 3)]);
    // The joins after the first two revocations land; the one after
    // the third is ignored.
    assert_eq!(
        joins,
        vec![SimTime::from_millis(20_000), SimTime::from_millis(310_000)]
    );
}

#[test]
fn revocations_spaced_past_the_flap_window_never_quarantine() {
    // Each gap over 600 s, and then a first-to-third span of 601 s.
    for removes in [[10, 620, 1230], [10, 300, 611]] {
        let (quarantined, joins) = flap_run(flapping(removes));
        assert!(quarantined.is_empty(), "{removes:?}: {quarantined:?}");
        assert_eq!(joins.len(), 3, "{removes:?}");
    }
}

/// A suspension armed by the last wave a checkpoint drain commits fires
/// from `checkpoint_now` itself, not at the next action: on one
/// two-core worker, four partitions take two compute waves and four
/// checkpoint-write waves, and the sixth is the drain's last.
#[test]
fn checkpoint_drain_fires_a_suspension_its_last_wave_armed() {
    let config = DriverConfig {
        suspend_after_waves: Some(6),
        ..DriverConfig::default()
    };
    let mut d = Driver::new(config, Box::new(NoCheckpoint), Box::new(NoFailures));
    d.add_worker(WorkerSpec::r3_large());
    let src = d.ctx().parallelize((0..300).map(Value::from_i64), 4);
    let mapped = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() + 1));
    match d.checkpoint_now(mapped) {
        Err(EngineError::Suspended { frontier, .. }) => assert_eq!(frontier, 6),
        other => panic!("expected Suspended from checkpoint_now, got {other:?}"),
    }
    assert_eq!(d.waves_committed(), 6);
    assert!(d.checkpoints().is_fully_checkpointed(mapped.id()));
}
