//! Property-based tests of the engine's core correctness invariant:
//! under ANY revocation schedule — scripted or seeded chaos, including
//! checkpoint-store corruption and outages — recovery (recomputation +
//! checkpoint restore) either produces results bit-identical to a
//! failure-free run or fails with a typed error. Never a panic, never
//! wrong data.

use flint::core::{FlintCheckpointPolicy, FlintCluster, FlintConfig, Mode};
use flint::engine::{
    run_against_twin, ChaosConfig, ChaosError, ChaosInjector, ChaosSchedule, ChaosVerdict,
    CheckpointEveryRdd, Driver, DriverConfig, EngineError, NoCheckpoint, ScriptedInjector, Value,
    WorkerEvent, WorkerSpec,
};
use flint::market::MarketCatalog;
use flint::model::catalog_with_mttf;
use flint::simtime::{SimDuration, SimTime};
use flint::trace::{EventKind, TraceHandle};
use proptest::prelude::*;

/// Builds a deterministic multi-stage job and returns its sorted output,
/// or the typed error the engine surfaced.
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
    let swapped = driver.ctx().map(grouped, |p| {
        let (k, v) = p.clone().into_pair().unwrap();
        Value::pair(v, k)
    });
    let sorted = driver.ctx().sort_by_key(swapped, 3, true);
    let mut out = driver.collect(sorted)?;
    out.sort();
    Ok(out)
}

/// Launches a 4-worker cluster on markets with a one-hour MTTF, runs
/// [`run_job`], then idles six virtual hours: long enough that every
/// seed's markets revoke and the node manager runs replacement rounds.
fn run_with_churn(config: FlintConfig, seed: u64) -> FlintCluster {
    let catalog = catalog_with_mttf(seed, SimDuration::from_days(30), 1.0);
    let mut cluster = FlintCluster::launch(catalog, config);
    let out = run_job(cluster.driver_mut(), 9).unwrap();
    assert!(!out.is_empty());
    let idle = cluster.driver().now() + SimDuration::from_hours(6);
    cluster.driver_mut().idle_until(idle).unwrap();
    let rounds = cluster.node_manager().replacements();
    assert!(rounds > 0, "seed {seed} ran no replacement round");
    cluster
}

/// A revocation schedule: (milliseconds, workers to kill, replace?).
fn schedules() -> impl Strategy<Value = Vec<(u64, u8, bool)>> {
    proptest::collection::vec((1_000u64..600_000, 1u8..4, proptest::bool::ANY), 0..4)
}

fn scripted(events: &[(u64, u8, bool)], n_workers: u64) -> ScriptedInjector {
    let mut evs = Vec::new();
    let mut next_victim = 1u64;
    let mut next_repl = 100u64;
    for (ms, k, replace) in events {
        for _ in 0..*k {
            if next_victim > n_workers {
                break;
            }
            let t = SimTime::from_millis(*ms);
            evs.push((
                t,
                WorkerEvent::Remove {
                    ext_id: next_victim,
                },
            ));
            next_victim += 1;
            if *replace {
                evs.push((
                    t + SimDuration::from_secs(120),
                    WorkerEvent::Add {
                        ext_id: next_repl,
                        spec: WorkerSpec::r3_large(),
                    },
                ));
                next_repl += 1;
            }
        }
    }
    ScriptedInjector::new(evs)
}

/// Mid-wave revocation under parallel wave execution: workers die while
/// a wave's tasks are in flight, forcing lineage recovery. At any
/// `host_threads` the run must produce the same answer AND the same
/// simulated makespan/accounting — parallelism is wall-clock only.
#[test]
fn parallel_recovery_matches_sequential() {
    let run = |host_threads: usize| {
        let mut cfg = DriverConfig::default();
        cfg.cost.size_scale = 5e5;
        cfg.host_threads = host_threads;
        // Kill two workers (one replaced) 20 s in — well inside the
        // first stage at this size_scale — then a third later.
        let inj = scripted(&[(20_000, 2, true), (45_000, 1, false)], 6);
        let mut d = Driver::new(cfg, Box::new(NoCheckpoint), Box::new(inj));
        for ext in 1..=6u64 {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        d.add_worker_with_ext(999, WorkerSpec::r3_large());
        let out = run_job(&mut d, 17).unwrap();
        (out, d.stats().clone(), d.now())
    };
    let sequential = run(1);
    assert!(
        sequential.1.revocations >= 1,
        "schedule must revoke mid-job (got {:?})",
        sequential.1
    );
    let parallel = run(8);
    assert_eq!(parallel.0, sequential.0, "answers diverged");
    assert_eq!(parallel.2, sequential.2, "simulated makespan diverged");
    assert_eq!(parallel.1, sequential.1, "run statistics diverged");
}

fn golden_output(job_seed: i64) -> &'static Vec<Value> {
    static GOLDEN: std::sync::OnceLock<Vec<Value>> = std::sync::OnceLock::new();
    assert_eq!(job_seed, 23, "golden cache is keyed to one job seed");
    GOLDEN.get_or_init(|| run_job(&mut Driver::local(6), 23).unwrap())
}

/// Runs the standard job under the given chaos campaign — worker churn
/// via [`ChaosInjector`], store degradation via the schedule's
/// [`flint::engine::ChaosStoreFaults`], and a driver crash with its
/// resume when the schedule drew one — and returns the verdict against
/// the fault-free run.
fn chaos_verdict(ccfg: &ChaosConfig, job_seed: i64) -> ChaosVerdict<Vec<Value>> {
    let schedule = ChaosSchedule::generate(ccfg);
    let build = |suspend: Option<u64>| {
        let mut cfg = DriverConfig::default();
        cfg.cost.size_scale = 5e5;
        cfg.store_retry.budget = 4;
        cfg.suspend_after_waves = suspend;
        let mut d = Driver::new(
            cfg,
            Box::new(CheckpointEveryRdd),
            Box::new(ChaosInjector::from_schedule(schedule.clone())),
        );
        d.checkpoints_mut()
            .set_fault_policy(Box::new(schedule.store_faults(ccfg)));
        for ext in 1..=u64::from(ccfg.n_workers) {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        // A lifeline worker outside the chaos pool guarantees
        // progress is at least possible; the store can still force
        // typed errors.
        d.add_worker_with_ext(999, WorkerSpec::r3_large());
        Ok(d)
    };
    run_against_twin(
        &schedule,
        build,
        |d| run_job(d, job_seed),
        golden_output(job_seed),
    )
}

/// Why a verdict breaks the headline invariant, or `None` when it holds
/// (byte-identical, or a typed engine error). A harness failure — a
/// suspension with no persisted manifest, or one that does not decode —
/// is a violation: manifest writes bypass the store's fault policy, so
/// no chaos schedule can cause it.
fn violation(verdict: &ChaosVerdict<Vec<Value>>) -> Option<String> {
    match verdict {
        ChaosVerdict::Identical { .. } | ChaosVerdict::Typed(ChaosError::Engine(_)) => None,
        ChaosVerdict::Typed(ChaosError::Harness(msg)) => Some(format!("harness failure: {msg}")),
        ChaosVerdict::WrongData(out) => Some(format!(
            "wrong data — {} records vs {} in the fault-free run",
            out.len(),
            golden_output(23).len()
        )),
        ChaosVerdict::Panicked(_) => Some("chaos run panicked".to_string()),
    }
}

/// The headline robustness claim, stated as a campaign: 200 consecutive
/// chaos seeds of the default (moderately hostile) campaign — mixed
/// warned/unwarned revocations, correlated mass revocations, flapping
/// workers, delayed replacements, torn/lost checkpoint writes, and store
/// outages — and every run either reproduces the fault-free bytes or
/// fails with a typed error. Zero panics, zero wrong answers.
#[test]
fn chaos_campaign_200_seeds_byte_identical_or_typed() {
    let mut identical = 0u32;
    let mut typed = 0u32;
    for seed in 0..200u64 {
        let mut ccfg = ChaosConfig::new(seed);
        ccfg.n_workers = 6;
        ccfg.groups = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let verdict = chaos_verdict(&ccfg, 23);
        if let Some(why) = violation(&verdict) {
            panic!("seed {seed}: {why}");
        }
        match verdict {
            ChaosVerdict::Identical { .. } => identical += 1,
            _ => typed += 1,
        }
    }
    assert_eq!(identical + typed, 200);
    assert!(
        identical > 100,
        "most campaigns should survive (got {identical} identical, {typed} typed)"
    );
}

/// The same campaign with the two degradation-layer fault kinds armed:
/// half the seeds kill the driver at a drawn wave boundary (crash →
/// manifest → resume → replay → frontier check), and a third collapse
/// every pool market at once (the whole cluster vanishes until a
/// recovery cohort lands).
/// The invariant is unchanged: byte-identical completion or a typed
/// error, zero panics — crash-resume and market collapse are inside
/// the fault envelope, not special cases.
#[test]
fn chaos_campaign_with_driver_crash_and_market_collapse() {
    let mut identical = 0u32;
    let mut typed = 0u32;
    let mut crashes = 0u32;
    let mut collapses = 0u32;
    let mut resumed = 0u32;
    for seed in 0..200u64 {
        let mut ccfg = ChaosConfig::new(seed);
        ccfg.n_workers = 6;
        ccfg.groups = vec![vec![1, 2, 3], vec![4, 5, 6]];
        ccfg.driver_crash_prob = 0.5;
        ccfg.market_collapse_prob = 0.35;
        let schedule = ChaosSchedule::generate(&ccfg);
        crashes += u32::from(schedule.driver_crash_wave.is_some());
        collapses += u32::from(
            schedule
                .notes
                .iter()
                .any(|(_, k, _)| k == "market_collapse"),
        );
        let verdict = chaos_verdict(&ccfg, 23);
        if let Some(why) = violation(&verdict) {
            panic!("seed {seed}: {why}");
        }
        match verdict {
            ChaosVerdict::Identical { resumed_from, .. } => {
                identical += 1;
                resumed += u32::from(resumed_from.is_some());
            }
            _ => typed += 1,
        }
    }
    assert_eq!(identical + typed, 200);
    assert!(
        crashes > 60 && collapses > 30,
        "fault kinds must actually arm: {crashes} crashes, {collapses} collapses"
    );
    assert!(
        resumed > 60,
        "crashed runs must survive through a verified resume (got {resumed} of {crashes})"
    );
    assert!(
        identical > 100,
        "most campaigns should survive (got {identical} identical, {typed} typed)"
    );
}

/// Runs the standard job on a [`FlintCluster`] over `catalog` with the
/// given selection mode, returning `(output, Σ InstanceBilled, compute
/// cost)` — or `None` if the run panicked.
#[allow(clippy::type_complexity)]
fn cluster_outcome(
    catalog: &MarketCatalog,
    mode: Mode,
    seed: u64,
) -> Option<(Result<Vec<Value>, EngineError>, f64, f64)> {
    let catalog = catalog.clone();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        let config = FlintConfig::builder()
            .n_workers(4)
            .mode(mode)
            .risk_aversion(2.0)
            .seed(seed)
            .trace(trace)
            .build();
        let mut cluster = FlintCluster::launch(catalog, config);
        let out = run_job(cluster.driver_mut(), 9);
        let report = cluster.shutdown();
        let billed: f64 = reader
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::InstanceBilled { cost, .. } => Some(*cost),
                _ => None,
            })
            .sum();
        (out, billed, report.compute_cost)
    }))
    .ok()
}

/// The portfolio arm of the chaos story: 200 consecutive cloud seeds on
/// a *volatile* catalog (2h MTTF, three correlated-by-construction spot
/// markets) whose price spikes revoke whole market slices at once. The
/// portfolio cluster must never panic, every completion must match the
/// greedy cluster's output bytes, and billing must stay exact
/// (Σ `InstanceBilled` == compute cost) on both arms, every seed.
#[test]
fn portfolio_campaign_200_seeds_survives_mass_revocations() {
    let catalog = flint::model::catalog_with_mttf(7, SimDuration::from_days(30), 2.0);
    let golden = golden_output(23);
    assert!(!golden.is_empty());
    let expect = run_job(&mut Driver::local(6), 9).unwrap();
    let mut portfolio_ok = 0u32;
    let mut greedy_ok = 0u32;
    for seed in 0..200u64 {
        let (mode, ok_counter) = if seed % 2 == 0 {
            (Mode::Portfolio, &mut portfolio_ok)
        } else {
            (Mode::Batch, &mut greedy_ok)
        };
        let Some((out, billed, compute_cost)) = cluster_outcome(&catalog, mode, seed) else {
            panic!("seed {seed} ({mode:?}): cluster run panicked");
        };
        assert!(
            (billed - compute_cost).abs() < 1e-9,
            "seed {seed} ({mode:?}): Σ InstanceBilled = {billed} but compute cost = {compute_cost}"
        );
        // Typed errors are acceptable under revocation storms; completed
        // runs must match the fault-free bytes.
        if let Ok(v) = out {
            assert_eq!(v, expect, "seed {seed} ({mode:?}): wrong data");
            *ok_counter += 1;
        }
    }
    assert!(
        portfolio_ok > 50,
        "most portfolio runs should complete (got {portfolio_ok}/100)"
    );
    assert!(
        greedy_ok > 50,
        "most greedy runs should complete (got {greedy_ok}/100)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any revocation schedule (with at least one surviving or replaced
    /// worker) yields byte-identical results, without checkpointing.
    #[test]
    fn recomputation_is_exact(seed in 1i64..50, events in schedules()) {
        let mut clean = Driver::local(6);
        let golden = run_job(&mut clean, seed).unwrap();

        let mut cfg = DriverConfig::default();
        cfg.cost.size_scale = 5e5; // paper-scale pressure from tiny data
        let mut d = Driver::new(
            cfg,
            Box::new(NoCheckpoint),
            Box::new(scripted(&events, 6)),
        );
        for ext in 1..=6u64 {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        // Guarantee progress even if the schedule kills everyone without
        // replacement.
        d.add_worker_with_ext(999, WorkerSpec::r3_large());

        let got = run_job(&mut d, seed).unwrap();
        prop_assert_eq!(got, golden);
    }

    /// Same invariant with Flint's adaptive checkpointing active: restores
    /// must also be exact.
    #[test]
    fn checkpointed_recovery_is_exact(seed in 1i64..50, events in schedules()) {
        let mut clean = Driver::local(6);
        let golden = run_job(&mut clean, seed).unwrap();

        let mut cfg = DriverConfig::default();
        cfg.cost.size_scale = 5e5;
        let mut d = Driver::new(
            cfg,
            Box::new(FlintCheckpointPolicy::with_mttf(SimDuration::from_mins(20))),
            Box::new(scripted(&events, 6)),
        );
        for ext in 1..=6u64 {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        d.add_worker_with_ext(999, WorkerSpec::r3_large());

        let got = run_job(&mut d, seed).unwrap();
        prop_assert_eq!(got, golden);
    }

    /// Randomized chaos knobs: revocation volume, warning mix, mass
    /// revocations, store corruption/loss rates, and outage windows are
    /// all drawn by proptest; the headline invariant must hold for every
    /// combination.
    #[test]
    fn chaos_knobs_never_corrupt(
        seed in 0u64..100_000,
        revocations in 0u32..12,
        unwarned in 0.0f64..=1.0,
        mass in 0.0f64..=1.0,
        torn in 0.0f64..0.5,
        lost in 0.0f64..0.4,
        outages in 0u32..4,
    ) {
        let mut ccfg = ChaosConfig::new(seed);
        ccfg.n_workers = 6;
        ccfg.revocations = revocations;
        ccfg.unwarned_frac = unwarned;
        ccfg.mass_revoke_prob = mass;
        ccfg.groups = vec![vec![1, 2, 3], vec![4, 5, 6]];
        ccfg.torn_write_prob = torn;
        ccfg.failed_write_prob = lost;
        ccfg.outages = outages;
        if let Some(why) = violation(&chaos_verdict(&ccfg, 23)) {
            prop_assert!(false, "seed {}: {}", seed, why);
        }
    }

    /// Billing stays consistent under market-driven churn: after
    /// shutdown, the sum of `InstanceBilled` trace events equals the
    /// `CostReport`'s compute cost, replacement rounds included.
    #[test]
    fn billed_events_match_cost_report_under_churn(seed in 0u64..500) {
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        let config = FlintConfig::builder()
            .n_workers(4)
            .mode(Mode::Interactive)
            .seed(seed)
            .trace(trace)
            .build();
        let cluster = run_with_churn(config, seed);
        let report = cluster.shutdown();
        let billed: f64 = reader
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::InstanceBilled { cost, .. } => Some(*cost),
                _ => None,
            })
            .sum();
        prop_assert!(
            (billed - report.compute_cost).abs() < 1e-9,
            "Σ InstanceBilled = {} but CostReport.compute_cost = {}",
            billed,
            report.compute_cost
        );
    }

    /// The billing invariant holds for the portfolio policy too: its
    /// multi-market allocations and replacement re-optimizations must
    /// leave Σ `InstanceBilled` equal to the cost report.
    #[test]
    fn portfolio_billed_events_match_cost_report(seed in 0u64..500) {
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        let config = FlintConfig::builder()
            .n_workers(4)
            .mode(Mode::Portfolio)
            .risk_aversion(1.5)
            .seed(seed)
            .trace(trace)
            .build();
        let cluster = run_with_churn(config, seed);
        let report = cluster.shutdown();
        let mut billed = 0.0;
        let mut weights = 0u32;
        for e in reader.events().iter() {
            match &e.kind {
                EventKind::InstanceBilled { cost, .. } => billed += *cost,
                EventKind::PortfolioWeight { .. } => weights += 1,
                _ => {}
            }
        }
        prop_assert!(
            (billed - report.compute_cost).abs() < 1e-9,
            "Σ InstanceBilled = {} but CostReport.compute_cost = {}",
            billed,
            report.compute_cost
        );
        prop_assert!(weights > 0, "portfolio decisions must emit weight events");
    }

    /// Explicitly checkpointed datasets survive arbitrary later failures
    /// and always restore to the same contents.
    #[test]
    fn checkpoint_round_trip(data in proptest::collection::vec(-1000i64..1000, 1..200)) {
        let mut d = Driver::local(3);
        let src = d.ctx().parallelize(data.iter().copied().map(Value::from_i64), 4);
        let mapped = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() * 3));
        d.checkpoint_now(mapped).unwrap();

        let mut expect: Vec<i64> = data.iter().map(|x| x * 3).collect();
        expect.sort_unstable();
        let mut got: Vec<i64> = d
            .collect(mapped)
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
