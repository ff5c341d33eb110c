//! The driver's actions end to end on small in-memory datasets:
//! transformations, shuffles and every action return the right values,
//! and revocations, total cluster loss and explicit checkpoints recover
//! them. A worker revoked three times within ten minutes is quarantined.

use flint_engine::{
    CheckpointDirective, CheckpointHooks, Driver, DriverConfig, EngineError, EventKind, EventSink,
    LineageView, NoCheckpoint, NoFailures, RddId, RddRef, ScriptedInjector, TraceHandle, Value,
    WorkerEvent, WorkerSpec,
};
use std::cell::Cell;
use std::rc::Rc;

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

/// Checkpoints the RDD in its cell when it first materializes.
struct MarkOnMaterialize(Rc<Cell<Option<RddId>>>);

impl CheckpointHooks for MarkOnMaterialize {
    fn on_rdd_materialized(
        &mut self,
        _view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        rdd: RddId,
        _now: SimTime,
    ) -> Vec<CheckpointDirective> {
        if self.0.get() == Some(rdd) {
            vec![CheckpointDirective::Checkpoint(rdd)]
        } else {
            Vec::new()
        }
    }
}

/// Where a probe's checkpoint writes run: drained by `checkpoint_now`,
/// or queued by a materialization hook and left running past an
/// `idle_until` deadline 10 ms after the `count`.
#[derive(Clone, Copy)]
enum WriteWait {
    Drain,
    IdleTail,
}

/// What a probe saw: the instant the wait for the writes began (the
/// `checkpoint_now` call, or the idle deadline), the instant the driver
/// returned, and each write's start instant.
struct WriteProbe {
    begin: SimTime,
    end: SimTime,
    write_starts: Vec<SimTime>,
}

/// Two r3.large workers (ext 1, 2) and 8 partitions of 200 000 mapped
/// ints: `count`, then the mapped RDD's checkpoint writes under `events`.
fn write_probe(wait: WriteWait, events: Vec<(SimTime, WorkerEvent)>) -> WriteProbe {
    let mark = Rc::new(Cell::new(None));
    let hooks: Box<dyn CheckpointHooks> = match wait {
        WriteWait::Drain => Box::new(NoCheckpoint),
        WriteWait::IdleTail => Box::new(MarkOnMaterialize(mark.clone())),
    };
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    let mut d = Driver::new(
        DriverConfig::default(),
        hooks,
        Box::new(ScriptedInjector::new(events)),
    );
    d.set_trace(trace);
    d.add_worker_with_ext(1, WorkerSpec::r3_large());
    d.add_worker_with_ext(2, WorkerSpec::r3_large());
    let src = d.ctx().parallelize((0..200_000).map(Value::from_i64), 8);
    let mapped = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() + 1));
    mark.set(Some(mapped.id()));
    assert_eq!(d.count(mapped).unwrap(), 200_000);
    let begin = match wait {
        WriteWait::Drain => {
            let begin = d.now();
            d.checkpoint_now(mapped).unwrap();
            begin
        }
        WriteWait::IdleTail => {
            let deadline = d.now() + SimDuration::from_millis(10);
            d.idle_until(deadline).unwrap();
            deadline
        }
    };
    assert!(d.checkpoints().is_fully_checkpointed(mapped.id()));
    let write_starts = reader
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CheckpointWritten { millis, .. } => {
                Some(e.t - SimDuration::from_millis(millis))
            }
            _ => None,
        })
        .collect();
    WriteProbe {
        begin,
        end: d.now(),
        write_starts,
    }
}

fn ms(millis: u64) -> SimTime {
    SimTime::from_millis(millis)
}

/// Runs `wait` clean, then again with ext 1 revoked and ext 3 added a
/// third of the way into the clean wait, and returns the clean probe,
/// the revocation instant and the revoked probe.
fn revoke_a_third_in(wait: WriteWait) -> (WriteProbe, SimTime, WriteProbe) {
    let clean = write_probe(wait, Vec::new());
    assert!(
        clean.end > clean.begin,
        "the writes must outlast the wait's start"
    );
    let t = clean.begin + (clean.end - clean.begin) / 3;
    let revoked = write_probe(
        wait,
        vec![
            (t, WorkerEvent::Remove { ext_id: 1 }),
            (
                t,
                WorkerEvent::Add {
                    ext_id: 3,
                    spec: WorkerSpec::r3_large(),
                },
            ),
        ],
    );
    (clean, t, revoked)
}

/// A revocation during a `checkpoint_now` drain re-plans at once: the
/// writes the revoked worker held are requeued and one starts on the
/// replacement at the revocation instant, not at the next write's
/// finish. The drain ends at t+344 ms; reacting only at the next
/// write's finish would end it at t+353 ms (the clean drain ends at
/// t+318 ms).
#[test]
fn checkpoint_drain_reassigns_a_revoked_write_at_once() {
    let (clean, t, revoked) = revoke_a_third_in(WriteWait::Drain);
    assert_eq!(
        (clean.begin, clean.end, t),
        (ms(199), ms(318), ms(238)),
        "the clean drain moved"
    );
    assert_eq!(revoked.end, ms(344));
    assert!(
        revoked.write_starts.contains(&t),
        "no write started at the revocation instant {t:?}: {:?}",
        revoked.write_starts
    );
}

/// The same for the writes an `idle_until` leaves running past its
/// deadline: a revocation between the deadline and the last write's
/// finish requeues the lost writes at once. The wait ends at t+329 ms;
/// reacting only at the next write's finish would end it at t+340 ms
/// (the clean tail ends at t+305 ms).
#[test]
fn idle_tail_reassigns_a_revoked_write_at_once() {
    let (clean, t, revoked) = revoke_a_third_in(WriteWait::IdleTail);
    assert_eq!(
        (clean.begin, clean.end, t),
        (ms(209), ms(305), ms(241)),
        "the clean idle tail moved"
    );
    assert_eq!(revoked.end, ms(329));
    assert!(
        revoked.write_starts.contains(&t),
        "no write started at the revocation instant {t:?}: {:?}",
        revoked.write_starts
    );
}

// ----------------------------------------------------------------------
// Seeded action-script corpus: one pinned fingerprint per script
// ----------------------------------------------------------------------

/// One step of a corpus script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Collect(usize),
    Count(usize),
    CheckpointNow(usize),
    /// `idle_until(now + Δ)`, Δ in milliseconds.
    Idle(u64),
    /// A `count` of the persisted RDD.
    ReadPersisted,
}

/// Which checkpoint hook a script installs.
#[derive(Debug, Clone, Copy)]
enum Hook {
    None,
    /// Checkpoint every non-empty RDD once, when it first materializes.
    OnMaterialize,
    /// Every `interval_ms`, checkpoint every cached block (a polled
    /// policy, so every scheduler step that polls can fire it).
    PollAllCached(u64),
}

/// A random action script: data shape, workers, hook, suspension,
/// injector schedule and actions.
#[derive(Debug, Clone)]
struct Script {
    rows: i64,
    parts: u32,
    reduce_parts: u32,
    workers: u64,
    hook: Hook,
    suspend_after: Option<u64>,
    events: Vec<(SimTime, WorkerEvent)>,
    steps: Vec<Step>,
}

/// SplitMix64: a self-contained seeded generator for the corpus.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn corpus_script(seed: u64) -> Script {
    let mut g = Mix(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
    let workers = g.range(2, 4);
    let hook = match g.range(0, 6) {
        0 | 1 => Hook::None,
        2..=4 => Hook::OnMaterialize,
        _ => Hook::PollAllCached(g.range(10, 400)),
    };
    let suspend_after = (g.range(0, 4) == 0).then(|| g.range(1, 30));
    // Revocations, warnings and joins at random instants in the first
    // 1.5 virtual seconds, the span most scripts' actions cover.
    let mut events = Vec::new();
    let mut next_join = 10;
    for _ in 0..g.range(1, 7) {
        let t = SimTime::from_millis(g.range(1, 1_500));
        let ev = match g.range(0, 4) {
            0 | 1 => WorkerEvent::Remove {
                ext_id: g.range(1, workers + 1),
            },
            2 => WorkerEvent::Warn {
                ext_id: g.range(1, workers + 1),
            },
            _ => {
                next_join += 1;
                WorkerEvent::Add {
                    ext_id: next_join,
                    spec: WorkerSpec::r3_large(),
                }
            }
        };
        events.push((t, ev));
        if let (WorkerEvent::Remove { .. }, true) = (ev, g.range(0, 2) == 0) {
            // A replacement some milliseconds later.
            next_join += 1;
            events.push((
                t + SimDuration::from_millis(g.range(0, 400)),
                WorkerEvent::Add {
                    ext_id: next_join,
                    spec: WorkerSpec::r3_large(),
                },
            ));
        }
    }
    let steps = (0..g.range(3, 8))
        .map(|_| match g.range(0, 10) {
            0 | 1 => Step::Collect(g.range(0, 3) as usize),
            2 | 3 => Step::Count(g.range(0, 3) as usize),
            4 | 5 => Step::CheckpointNow(g.range(0, 3) as usize),
            6 | 7 => Step::Idle(g.range(0, 600)),
            _ => Step::ReadPersisted,
        })
        .collect();
    Script {
        rows: g.range(2_000, 60_000) as i64,
        parts: g.range(4, 11) as u32,
        reduce_parts: g.range(2, 6) as u32,
        workers,
        hook,
        suspend_after,
        events,
        steps,
    }
}

/// The corpus's hooks, one type so a script picks one by value.
struct CorpusHook {
    hook: Hook,
    last_poll: SimTime,
}

impl CheckpointHooks for CorpusHook {
    fn on_rdd_materialized(
        &mut self,
        view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        rdd: RddId,
        _now: SimTime,
    ) -> Vec<CheckpointDirective> {
        match self.hook {
            Hook::OnMaterialize if view.rdd_vbytes(rdd) > 0 => {
                vec![CheckpointDirective::Checkpoint(rdd)]
            }
            _ => Vec::new(),
        }
    }

    fn poll(
        &mut self,
        _view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        now: SimTime,
    ) -> Vec<CheckpointDirective> {
        match self.hook {
            Hook::PollAllCached(ms) if now - self.last_poll >= SimDuration::from_millis(ms) => {
                self.last_poll = now;
                vec![CheckpointDirective::CheckpointAllCached]
            }
            _ => Vec::new(),
        }
    }
}

/// FNV-1a, folded over several byte strings.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.iter() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs `s` and fingerprints its trace bytes, `RunStats`, every
/// action's result (a typed error ends the script) and the final clock.
fn run_script(s: &Script, host_threads: usize) -> u64 {
    let config = DriverConfig {
        host_threads,
        suspend_after_waves: s.suspend_after,
        ..DriverConfig::default()
    };
    let mut d = Driver::new(
        config,
        Box::new(CorpusHook {
            hook: s.hook,
            last_poll: SimTime::ZERO,
        }),
        Box::new(ScriptedInjector::new(s.events.clone())),
    );
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    for ext in 1..=s.workers {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let src = d
        .ctx()
        .parallelize((0..s.rows).map(Value::from_i64), s.parts);
    let mapped = d
        .ctx()
        .map(src, |v| Value::Int(v.as_i64().unwrap() * 3 + 1));
    let persisted = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() ^ 5));
    let persisted = d.ctx().persist(persisted);
    let keyed = d.ctx().map(mapped, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 11), Value::Int(1))
    });
    let reduced = d.ctx().reduce_by_key(keyed, s.reduce_parts, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    let targets = [mapped, persisted, reduced];
    let mut results = String::new();
    for step in &s.steps {
        let out = match *step {
            Step::Collect(i) => d.collect(targets[i]).map(|v| format!("{v:?}")),
            Step::Count(i) => d.count(targets[i]).map(|n| n.to_string()),
            Step::CheckpointNow(i) => d.checkpoint_now(targets[i]).map(|()| "ckpt".into()),
            Step::Idle(ms) => {
                let t = d.now() + SimDuration::from_millis(ms);
                d.idle_until(t).map(|()| "idle".into())
            }
            Step::ReadPersisted => d.count(persisted).map(|n| n.to_string()),
        };
        let failed = out.is_err();
        results.push_str(&format!("{step:?} @ {:?} -> {out:?}\n", d.now()));
        if failed {
            break;
        }
    }
    let stats = format!("{:?} / waves {}", d.stats(), d.waves_committed());
    fnv1a(&[
        reader.to_jsonl().as_bytes(),
        stats.as_bytes(),
        results.as_bytes(),
    ])
}

/// The corpus's pinned fingerprints, one per script seed, equal at
/// `host_threads` 1 and 2. Scripts 6 and 15 revoke a worker inside a
/// `checkpoint_now` drain, so they also pin that a drain re-plans at
/// the revocation instant. Script 0 was re-pinned when checkpoint
/// directives stopped queueing writes already in flight: its
/// `CheckpointScheduled` at t=290 counts `parts` 1, not 2, and no other
/// byte moved.
const CORPUS_PINS: [u64; 48] = [
    0x1f3cd40948cc399a,
    0x2fecc67145ca3610,
    0xe81e798567ba9795,
    0x2cc111fd14174bb5,
    0x3cb1f961fdc53d73,
    0xca5a693fc87997ea,
    0x8a0255ee89f7839f,
    0x36a4d3a975c582fa,
    0xa2a3563b2637653c,
    0xb848b792032ff178,
    0x4bb25728c0853670,
    0xa079e361bf4b7705,
    0xc8bf15546accb89f,
    0xc81b1eefae59a8fc,
    0x820da3c53cb87800,
    0x3f64744158ec3d13,
    0xa761111af4292e67,
    0x176caa1be7254965,
    0x38156b9557cc7011,
    0x16e0d4c4a2cf177c,
    0xb8b43498b9c3eee6,
    0xca4cd1dc195679be,
    0x427928d1a6df3b3f,
    0xe086db1cecdb906d,
    0x026d99a221a9ed2a,
    0x3354870c483cb5f5,
    0xb71e5f48ad9bfb0c,
    0xf8f9f48519d5f335,
    0x7b1bfd8a38acd8c6,
    0x2121103ac86758ba,
    0x59da3becd81cf692,
    0x52e7f173928d81c0,
    0x69f50301a0118fd7,
    0xfaa0b3f66b156ee1,
    0x7183ca01a5bb0e38,
    0x3d722031cbf206bf,
    0x501df55197330583,
    0x8c8a6abc4014836c,
    0x4a27b91a1bcd1100,
    0x7dcd6766d6e05538,
    0xeff1df157fd656a8,
    0xb58f856849e2638f,
    0xcbde38ba41f13b2b,
    0xaf7e65bd12d0af5d,
    0xfdb22db294d15002,
    0x716e4eb878863648,
    0xa920c5329999e122,
    0x8067623365e85ace,
];

/// Pins the scheduler loop's observable behaviour over 48 seeded action
/// scripts: `collect`, `count`, `checkpoint_now`, `idle_until` and reads
/// of a persisted RDD on 2–3 workers under scripted revocations,
/// warnings and joins, some with a checkpoint hook and some suspended
/// at a random wave. A mismatch names every script that moved.
#[test]
fn action_script_corpus_is_pinned() {
    let mut moved = Vec::new();
    for (seed, &pin) in CORPUS_PINS.iter().enumerate() {
        let script = corpus_script(seed as u64);
        let got = run_script(&script, 1);
        let twin = run_script(&script, 2);
        assert_eq!(got, twin, "script {seed} differs across host_threads");
        if got != pin {
            moved.push(format!("script {seed}: {got:#018x} (pinned {pin:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "corpus scripts moved:\n{}",
        moved.join("\n")
    );
}

/// Fires `CheckpointAllCached` once, at the first poll at or after its
/// instant (a timer-based policy).
struct PollOnceAt(SimTime, bool);

impl CheckpointHooks for PollOnceAt {
    fn poll(
        &mut self,
        _view: &LineageView<'_>,
        _events: &mut dyn EventSink,
        now: SimTime,
    ) -> Vec<CheckpointDirective> {
        if self.1 || now < self.0 {
            return Vec::new();
        }
        self.1 = true;
        vec![CheckpointDirective::CheckpointAllCached]
    }
}

/// A `checkpoint_now` drain does not poll the policy hooks: a timer
/// policy whose instant falls inside the drain fires at the first step
/// after it, so the drain writes only the RDD it was asked for and ends
/// when the hookless drain does (t+491 ms; a polling drain would also
/// write the persisted RDD's eight cached partitions and end at
/// t+597 ms).
#[test]
fn checkpoint_drain_does_not_poll_the_hooks() {
    let drain = |hooks: Box<dyn CheckpointHooks>| {
        let mut d = Driver::new(DriverConfig::default(), hooks, Box::new(NoFailures));
        d.add_worker_with_ext(1, WorkerSpec::r3_large());
        d.add_worker_with_ext(2, WorkerSpec::r3_large());
        let src = d.ctx().parallelize((0..200_000).map(Value::from_i64), 8);
        let persisted = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() ^ 3));
        let persisted = d.ctx().persist(persisted);
        let mapped = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() + 1));
        d.count(persisted).unwrap();
        d.checkpoint_now(mapped).unwrap();
        let (end, written) = (d.now(), d.stats().checkpoints_written);
        d.idle_until(ms(2_000)).unwrap();
        (end, written, d.stats().checkpoints_written)
    };
    let (end, written, _) = drain(Box::new(NoCheckpoint));
    assert_eq!((end, written), (ms(491), 8));
    let timer = drain(Box::new(PollOnceAt(ms(400), false)));
    assert_eq!(timer, (end, 8, 16), "the timer fires after the drain");
}
