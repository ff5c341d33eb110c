//! The serverless backend's contracts, stated as tests:
//!
//! * **Determinism** — the traced event stream is byte-identical across
//!   `host_threads` settings and across replays of the same backend
//!   seed. Cold-start draws come from a dedicated `rng::stream`
//!   sub-stream consumed in admission (commit-planning) order, so thread
//!   scheduling cannot reorder them.
//! * **Billing exactness** — Σ `InvocationBilled` event costs equals the
//!   backend's `compute_cost()` *exactly* (same f64 accumulation order,
//!   not approximately), and likewise for GB-seconds. Every invocation
//!   is billed, including ones whose external shuffle write faults.
//! * **Chaos robustness** — a 100-seed campaign of store-level faults
//!   (torn writes, lost writes, read outages) against the external
//!   shuffle transport never panics, never returns wrong data, and
//!   keeps billing exact on every seed.

use flint_engine::{
    ChaosConfig, ChaosSchedule, Driver, DriverConfig, EngineError, NoCheckpoint, NoFailures,
    ServerlessBackend, ServerlessConfig, StoreFaultPolicy, TraceHandle, Value, WorkerSpec,
};
use flint_trace::EventKind;

/// A deterministic multi-stage job with two shuffles and a join — enough
/// map outputs to drive real traffic through the external shuffle
/// transport — returning its sorted output.
fn run_job(driver: &mut Driver) -> Result<Vec<Value>, EngineError> {
    let src = driver
        .ctx()
        .parallelize((0..400).map(|i| Value::from_i64(i * 23 % 101)), 8);
    let pairs = driver.ctx().map(src, |v| {
        Value::pair(Value::Int(v.as_i64().unwrap() % 7), v.clone())
    });
    let sums = driver.ctx().reduce_by_key(pairs, 5, |a, b| {
        Value::Int(a.as_i64().unwrap_or(0) + b.as_i64().unwrap_or(0))
    });
    let ones = driver.ctx().map_values(pairs, |_| Value::Int(1));
    let counts = driver.ctx().reduce_by_key(ones, 5, |a, b| {
        Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
    });
    let joined = driver.ctx().join(sums, counts, 4);
    let sorted = driver.ctx().sort_by_key(joined, 3, true);
    let mut out = driver.collect(sorted)?;
    out.sort();
    Ok(out)
}

/// Everything one serverless run produces: the stream, the answer, the
/// billing ledger folded from events, and the backend's own counters.
struct ServerlessRun {
    jsonl: String,
    output: Result<Vec<Value>, EngineError>,
    billed_cost: f64,
    billed_gb_seconds: f64,
    billed_events: u64,
    started_events: u64,
    externalized: u64,
    compute_cost: f64,
    backend_gb_seconds: f64,
    invocations: u64,
    invocations_billed: u64,
    cold_starts: u64,
}

/// Runs [`run_job`] on a driver with a seeded [`ServerlessBackend`]
/// installed and per-invocation 1-core slots — optionally with a
/// store-fault policy degrading the external shuffle transport.
fn run_serverless(
    host_threads: usize,
    backend_seed: u64,
    faults: Option<Box<dyn StoreFaultPolicy>>,
) -> ServerlessRun {
    let cfg = DriverConfig::builder()
        .host_threads(host_threads)
        .size_scale(5e5)
        .build();
    let mut d = Driver::new(cfg, Box::new(NoCheckpoint), Box::new(NoFailures));
    if let Some(policy) = faults {
        d.checkpoints_mut().set_fault_policy(policy);
    }
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    d.set_trace(trace);
    let scfg = ServerlessConfig::default();
    let mem_gb = scfg.memory_gb;
    d.set_serverless(ServerlessBackend::new(scfg, backend_seed));
    for ext in 1..=8u64 {
        d.add_worker_with_ext(ext, WorkerSpec::serverless_slot(mem_gb));
    }
    let output = run_job(&mut d);

    let mut billed_cost = 0.0f64;
    let mut billed_gb_seconds = 0.0f64;
    let mut billed_events = 0u64;
    let mut started_events = 0u64;
    let mut externalized = 0u64;
    for ev in reader.events() {
        match &ev.kind {
            EventKind::InvocationBilled {
                gb_seconds, cost, ..
            } => {
                billed_cost += cost;
                billed_gb_seconds += gb_seconds;
                billed_events += 1;
            }
            EventKind::InvocationStarted { .. } => started_events += 1,
            EventKind::ShuffleExternalized { .. } => externalized += 1,
            _ => {}
        }
    }
    let backend = d.serverless().expect("installed above");
    ServerlessRun {
        jsonl: reader.to_jsonl(),
        output,
        billed_cost,
        billed_gb_seconds,
        billed_events,
        started_events,
        externalized,
        compute_cost: backend.compute_cost(),
        backend_gb_seconds: backend.billed_gb_seconds(),
        invocations: backend.invocations(),
        invocations_billed: backend.invocations_billed(),
        cold_starts: backend.cold_starts(),
    }
}

/// The job's answer is backend-independent: golden bytes come from a
/// plain local VM driver.
fn golden_output() -> Vec<Value> {
    run_job(&mut Driver::local(6)).unwrap()
}

#[test]
fn serverless_trace_is_identical_across_host_thread_counts() {
    let golden = run_serverless(1, 42, None);
    let expect = golden_output();
    assert_eq!(golden.output.as_ref().unwrap(), &expect);
    assert!(!golden.jsonl.is_empty());
    assert!(golden.invocations > 0, "every task is an invocation");
    assert!(golden.cold_starts > 0, "first hit on each slot is cold");
    assert!(
        golden.externalized > 0,
        "map outputs must flow through the external store"
    );
    for threads in [2usize, 8] {
        let run = run_serverless(threads, 42, None);
        assert_eq!(
            run.jsonl, golden.jsonl,
            "host_threads={threads} moved the serverless stream"
        );
        assert_eq!(run.output.as_ref().unwrap(), &expect);
    }
}

#[test]
fn serverless_same_seed_replays_byte_identical_and_seeds_differ() {
    let a = run_serverless(4, 7, None);
    let b = run_serverless(4, 7, None);
    assert_eq!(a.jsonl, b.jsonl, "same seed must replay byte-identically");
    assert_eq!(a.compute_cost, b.compute_cost);
    let c = run_serverless(4, 8, None);
    assert_ne!(
        a.jsonl, c.jsonl,
        "a different seed draws different cold-start latencies"
    );
    // Seeds move latency draws, never the answer.
    assert_eq!(a.output.unwrap(), c.output.unwrap());
}

#[test]
fn serverless_billing_reconciles_exactly_with_the_event_stream() {
    let run = run_serverless(2, 11, None);
    run.output.unwrap();
    assert!(run.compute_cost > 0.0);
    // Exact equality, not approximate: the event stream accumulates the
    // same f64s in the same (commit) order as the backend's ledger.
    assert_eq!(run.billed_cost, run.compute_cost);
    assert_eq!(run.billed_gb_seconds, run.backend_gb_seconds);
    assert_eq!(run.billed_events, run.invocations_billed);
    assert_eq!(run.started_events, run.invocations);
    // Billing can trail admission (tasks in flight when the final job
    // completes are never committed), but never exceed it.
    assert!(run.invocations_billed <= run.invocations);
}

/// 100 consecutive chaos seeds of store-level degradation — torn
/// external shuffle writes, lost writes, and read-outage windows, with
/// worker churn switched off (serverless slots are not revocable spot
/// instances) — and every run either reproduces the fault-free bytes or
/// fails with a typed error, replays byte-identically, and keeps
/// Σ `InvocationBilled` == `compute_cost()` exactly.
#[test]
fn serverless_chaos_campaign_100_seeds_store_faults() {
    let expect = golden_output();
    let mut completed = 0u32;
    let mut typed = 0u32;
    let mut faulted_seeds = 0u32;
    for seed in 0..100u64 {
        let mut ccfg = ChaosConfig::new(seed);
        ccfg.revocations = 0;
        ccfg.flap_prob = 0.0;
        ccfg.mass_revoke_prob = 0.0;
        ccfg.torn_write_prob = 0.25;
        ccfg.failed_write_prob = 0.2;
        ccfg.outages = 2;
        let schedule = ChaosSchedule::generate(&ccfg);
        assert!(
            schedule.worker_events.is_empty(),
            "seed {seed}: zero revocation rates must script no worker churn"
        );
        let store_faults = schedule.store_faults(&ccfg);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_serverless(4, seed, Some(Box::new(store_faults)))
        }))
        .unwrap_or_else(|_| panic!("seed {seed}: serverless chaos run panicked"));
        match &run.output {
            Ok(out) => {
                assert_eq!(out, &expect, "seed {seed}: wrong data under store faults");
                completed += 1;
            }
            Err(_) => typed += 1,
        }
        // Billing stays exact even when the store faults mid-run.
        assert_eq!(
            run.billed_cost, run.compute_cost,
            "seed {seed}: billing ledger diverged from the event stream"
        );
        assert_eq!(run.billed_events, run.invocations_billed);
        if run.jsonl.contains("\"fault\"") || run.jsonl.contains("shuffle_ext_") {
            faulted_seeds += 1;
        }
        // Replay determinism: the same chaos seed regenerates the same
        // schedule, so the whole run is byte-reproducible.
        let ccfg2 = {
            let mut c = ChaosConfig::new(seed);
            c.revocations = 0;
            c.flap_prob = 0.0;
            c.mass_revoke_prob = 0.0;
            c.torn_write_prob = 0.25;
            c.failed_write_prob = 0.2;
            c.outages = 2;
            c
        };
        let replay_faults = ChaosSchedule::generate(&ccfg2).store_faults(&ccfg2);
        let replay = run_serverless(4, seed, Some(Box::new(replay_faults)));
        assert_eq!(
            replay.jsonl, run.jsonl,
            "seed {seed}: replay was not byte-identical"
        );
    }
    assert_eq!(completed + typed, 100);
    assert!(
        completed > 50,
        "most campaigns should survive (got {completed} completed, {typed} typed)"
    );
    assert!(
        faulted_seeds > 10,
        "the campaign must actually inject shuffle faults (got {faulted_seeds})"
    );
}
