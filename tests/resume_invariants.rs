//! Crash-resume invariants: suspending a run at ANY wave-commit
//! boundary and replaying it through `Driver::resume` must reproduce
//! the uninterrupted run byte for byte — results, `RunStats`, the
//! trace stream (modulo the suspend/resume bookkeeping events), and
//! summed billing — at every `host_threads` setting. The manifest is a
//! verification artifact: a replay that crosses the recorded frontier
//! with different time or stats is rejected with a typed error, never
//! silently continued.

use flint::engine::{
    CheckpointEveryRdd, Driver, DriverConfig, EngineError, RunManifest, ScriptedInjector, Value,
    WorkerEvent, WorkerSpec,
};
use flint::simtime::SimTime;
use flint::trace::TraceHandle;
use proptest::prelude::*;

/// A deterministic multi-stage job (map → reduce_by_key → sort) with a
/// mid-job revocation and replacement, so waves span recomputation too.
fn run_job(driver: &mut Driver, seed: i64) -> Result<Vec<Value>, EngineError> {
    let src = driver
        .ctx()
        .parallelize((0..400).map(|i| Value::from_i64(i * seed % 101)), 8);
    let pairs = driver.ctx().map(src, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 7), v.clone())
    });
    let grouped = driver.ctx().reduce_by_key(pairs, 5, |a, b| {
        Value::Int(a.as_i64().unwrap_or(0) + b.as_i64().unwrap_or(0))
    });
    let sorted = driver.ctx().sort_by_key(grouped, 3, true);
    let mut out = driver.collect(sorted)?;
    out.sort();
    Ok(out)
}

struct TracedRun {
    driver: Driver,
    reader: flint::trace::MemoryReader,
}

fn launch(host_threads: usize, suspend_after: Option<u64>) -> TracedRun {
    let mut cfg = DriverConfig::default();
    cfg.cost.size_scale = 5e5;
    cfg.host_threads = host_threads;
    cfg.suspend_after_waves = suspend_after;
    let injector = ScriptedInjector::new(vec![
        (
            SimTime::from_millis(25_000),
            WorkerEvent::Remove { ext_id: 2 },
        ),
        (
            SimTime::from_millis(145_000),
            WorkerEvent::Add {
                ext_id: 100,
                spec: WorkerSpec::r3_large(),
            },
        ),
    ]);
    // Eager checkpoints, so manifests carry a non-trivial block catalog
    // and resume verifies checkpoint counters.
    let mut driver = Driver::new(cfg, Box::new(CheckpointEveryRdd), Box::new(injector));
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    driver.set_trace(trace);
    for ext in 1..=6u64 {
        driver.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    TracedRun { driver, reader }
}

/// Strips the suspend/resume bookkeeping events, which by design exist
/// only in interrupted sessions; everything else must match exactly.
fn canonical_trace(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| !l.contains("\"RunSuspended\"") && !l.contains("\"RunResumed\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Sums every billing event in the stream (instance or invocation), so
/// "resumed costs what the uninterrupted run costs" is checked even if
/// the trace comparison were ever relaxed.
fn billed_total(jsonl: &str) -> f64 {
    jsonl
        .lines()
        .filter(|l| l.contains("\"InstanceBilled\"") || l.contains("\"InvocationBilled\""))
        .filter_map(|l| {
            let idx = l.find("\"cost\":")?;
            let rest = &l[idx + 7..];
            let end = rest.find([',', '}'])?;
            rest[..end].parse::<f64>().ok()
        })
        .sum()
}

struct Uninterrupted {
    out: Vec<Value>,
    stats: flint::engine::RunStats,
    now: SimTime,
    trace: String,
    waves: u64,
}

fn uninterrupted(host_threads: usize, seed: i64) -> Uninterrupted {
    let mut run = launch(host_threads, None);
    let out = run_job(&mut run.driver, seed).expect("fault-free run completes");
    Uninterrupted {
        out,
        stats: run.driver.stats().clone(),
        now: run.driver.now(),
        trace: run.reader.to_jsonl(),
        waves: run.driver.waves_committed(),
    }
}

/// Crashes at wave `w`, harvests the persisted manifest, and replays a
/// fresh session through `Driver::resume`. Returns everything needed to
/// compare against the uninterrupted twin.
fn crash_and_resume(
    host_threads: usize,
    seed: i64,
    w: u64,
) -> (Vec<Value>, flint::engine::RunStats, SimTime, String) {
    // Session A: killed at wave w.
    let mut a = launch(host_threads, Some(w));
    let err = run_job(&mut a.driver, seed).expect_err("suspension must interrupt the run");
    let key = match err {
        EngineError::Suspended { manifest, frontier } => {
            assert_eq!(frontier, w, "suspended at the requested wave");
            manifest
        }
        other => panic!("expected Suspended, got {other:?}"),
    };
    let text = a
        .driver
        .checkpoints()
        .get_manifest(&key)
        .expect("manifest persisted durably")
        .to_string();
    let manifest = RunManifest::decode(&text).expect("manifest round-trips");
    assert_eq!(manifest.frontier, w);
    let a_trace = a.reader.to_jsonl();
    assert!(
        a_trace.contains("\"RunSuspended\""),
        "suspension must be traced"
    );

    // Session B: fresh driver, same config, replays and verifies.
    let mut b = launch(host_threads, None);
    b.driver
        .resume(&manifest)
        .expect("config fingerprints match");
    let out = run_job(&mut b.driver, seed).expect("resumed run completes");
    let trace = b.reader.to_jsonl();
    assert!(
        trace.contains("\"RunResumed\""),
        "crossing the frontier must emit RunResumed"
    );
    (out, b.driver.stats().clone(), b.driver.now(), trace)
}

/// The headline invariant, exhaustively: crash at EVERY wave-commit
/// boundary, at every host_threads tier, and demand byte-identity with
/// the uninterrupted twin.
#[test]
fn resume_is_byte_identical_from_every_wave_boundary() {
    for host_threads in [1usize, 2, 8] {
        let golden = uninterrupted(host_threads, 23);
        assert!(
            golden.waves >= 3,
            "job too small to exercise boundaries: {} waves",
            golden.waves
        );
        for w in 1..=golden.waves {
            let (out, stats, now, trace) = crash_and_resume(host_threads, 23, w);
            assert_eq!(
                out, golden.out,
                "results diverged (threads {host_threads}, wave {w})"
            );
            assert_eq!(
                stats, golden.stats,
                "RunStats diverged (threads {host_threads}, wave {w})"
            );
            assert_eq!(
                now, golden.now,
                "makespan diverged (threads {host_threads}, wave {w})"
            );
            assert_eq!(
                canonical_trace(&trace),
                canonical_trace(&golden.trace),
                "trace suffix diverged (threads {host_threads}, wave {w})"
            );
            let (billed, golden_billed) = (billed_total(&trace), billed_total(&golden.trace));
            assert!(
                (billed - golden_billed).abs() < 1e-9,
                "billing diverged: {billed} vs {golden_billed}"
            );
        }
    }
}

/// A replay under a different config must be rejected up front, and a
/// forged manifest must be rejected when the frontier is crossed — with
/// typed errors, never a silent continuation.
#[test]
fn diverging_resume_is_rejected_with_typed_errors() {
    // Crash a real run to obtain a genuine manifest.
    let mut a = launch(1, Some(2));
    let err = run_job(&mut a.driver, 23).expect_err("suspends at wave 2");
    let key = match err {
        EngineError::Suspended { manifest, .. } => manifest,
        other => panic!("expected Suspended, got {other:?}"),
    };
    let manifest = RunManifest::decode(a.driver.checkpoints().get_manifest(&key).unwrap()).unwrap();

    // Different determinism-relevant config: rejected immediately.
    let mut other_cfg = DriverConfig::default();
    other_cfg.cost.size_scale = 5e5;
    other_cfg.store_retry.budget += 1;
    let mut b = Driver::new(
        other_cfg,
        Box::new(CheckpointEveryRdd),
        Box::new(ScriptedInjector::new(Vec::new())),
    );
    match b.resume(&manifest) {
        Err(EngineError::ResumeDiverged { field, .. }) => assert_eq!(field, "config_fp"),
        other => panic!("expected ResumeDiverged, got {other:?}"),
    }

    // Forged stats: accepted up front, rejected at the frontier by the
    // name of the one verified field that lies.
    type Field = fn(&mut RunManifest) -> &mut u64;
    let fields: [(&str, Field); 4] = [
        ("now_ms", |m| &mut m.now_ms),
        ("tasks_run", |m| &mut m.tasks_run),
        ("revocations", |m| &mut m.revocations),
        ("checkpoints_written", |m| &mut m.checkpoints_written),
    ];
    for (name, forge) in fields {
        let mut forged = manifest.clone();
        *forge(&mut forged) += 1;
        let mut c = launch(1, None);
        c.driver.resume(&forged).expect("fingerprint still matches");
        match run_job(&mut c.driver, 23) {
            Err(EngineError::ResumeDiverged {
                field,
                expected,
                actual,
            }) => assert_eq!((field, expected), (name, actual + 1)),
            other => panic!("forged {name}: expected ResumeDiverged, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random job seeds and crash waves: the invariant is not specific
    /// to one workload shape.
    #[test]
    fn resume_invariant_holds_for_random_seeds(seed in 1i64..500, wave in 1u64..4) {
        let golden = uninterrupted(2, seed);
        // Clamp into the run's actual wave range (the vendored proptest
        // has no prop_assume; clamping keeps every case meaningful).
        let wave = wave.min(golden.waves).max(1);
        let (out, stats, now, trace) = crash_and_resume(2, seed, wave);
        prop_assert_eq!(out, golden.out);
        prop_assert_eq!(stats, golden.stats);
        prop_assert_eq!(now, golden.now);
        prop_assert_eq!(canonical_trace(&trace), canonical_trace(&golden.trace));
    }
}
