//! Count-based scaling test for the readiness planner (DESIGN.md §8,
//! "Readiness planning").
//!
//! Scheduling cost must be proportional to what changed since the last
//! step. The planner's own counters (`Driver::plan_stats`) make that a
//! repeatable assertion: no wall clock is read here. Before the block
//! directory and the carried plan, availability probes per task grew as
//! `P² × W` (every step re-probed every map output of every shuffle in
//! the cone on every worker).

use flint::core::FlintCheckpointPolicy;
use flint::engine::{
    ChaosConfig, ChaosInjector, ChaosSchedule, Driver, DriverConfig, NoCheckpoint, NoFailures,
    PlanStats, WorkerSpec,
};
use flint::simtime::{SimDuration, SimTime};
use flint::workloads::{Als, PageRank, Workload, WorkloadConfig};

/// Runs ALS 2 GB with `partitions` on `workers` plain workers and
/// returns the planner counters with the number of tasks and of jobs
/// run.
fn als(partitions: u32, workers: u32) -> (PlanStats, u64, u64) {
    let wl = Als::new(WorkloadConfig {
        dataset_gb: 2.0,
        partitions,
        iterations: 3,
        seed: 7,
    });
    let mut d = Driver::new(
        DriverConfig::builder()
            .size_scale(wl.recommended_size_scale())
            .build(),
        Box::new(NoCheckpoint),
        Box::new(NoFailures),
    );
    for _ in 0..workers {
        d.add_worker(WorkerSpec::r3_large());
    }
    wl.run(&mut d).expect("fault-free run");
    let jobs = d.stats().actions.len() as u64;
    (d.plan_stats(), d.stats().tasks_run, jobs)
}

#[test]
fn probes_per_task_do_not_grow_with_partitions_or_workers() {
    let runs: Vec<(u32, PlanStats, u64)> = [8, 16, 32]
        .into_iter()
        .map(|p| {
            let (stats, tasks, jobs) = als(p, 5);
            // Nothing but a new target discards the plan.
            assert_eq!(stats.rebuilds, jobs, "P={p}: {stats:?} over {jobs} jobs");
            (p, stats, tasks)
        })
        .collect();
    for (p, stats, tasks) in &runs {
        eprintln!("P={p}: {stats:?} over {tasks} tasks");
    }
    // In debug builds the oracle builds a fresh plan every pass and drops
    // its counters: these are the carried planner's own, pinned, and the
    // same in release builds.
    let pin = |passes, nodes_visited, availability_probes| PlanStats {
        passes,
        rebuilds: 2,
        nodes_visited,
        availability_probes,
    };
    assert_eq!(
        runs.iter().map(|(_, s, _)| *s).collect::<Vec<_>>(),
        [pin(116, 240, 656), pin(240, 480, 1312), pin(462, 960, 2624)]
    );
    let per_task = |(_, s, t): &(u32, PlanStats, u64)| s.availability_probes as f64 / *t as f64;
    for pair in runs.windows(2) {
        let (p0, p1) = (f64::from(pair[0].0), f64::from(pair[1].0));
        let growth = per_task(&pair[1]) / per_task(&pair[0]);
        assert!(
            growth <= p1 / p0,
            "availability probes per task grew {growth:.2}x from P={p0} to P={p1}: \
             faster than linearly in the partition count",
        );
    }
    // A task is derived when its shuffle first gains a reader and looked
    // at again only if something it read flips; fault-free, nothing does.
    for (p, stats, tasks) in &runs {
        assert!(
            stats.nodes_visited <= 2 * tasks,
            "P={p}: {} nodes derived for {tasks} tasks — the cone is being re-walked",
            stats.nodes_visited
        );
    }

    // The worker count is invisible to the planner: same plan, same
    // counters, whether 5 or 15 workers hold the blocks.
    let (few, tasks_few, _) = als(16, 5);
    let (many, tasks_many, _) = als(16, 15);
    assert_eq!(tasks_few, tasks_many);
    assert_eq!(few.availability_probes, many.availability_probes);
    assert_eq!(few.nodes_visited, many.nodes_visited);
}

/// A store outage makes every checkpoint unreadable at once, so the plan
/// is rebuilt where the clock crosses a window edge and carried
/// everywhere else, inside the windows included.
#[test]
fn outage_windows_rebuild_only_at_their_edges() {
    let wl = PageRank::new(WorkloadConfig {
        dataset_gb: 0.3,
        partitions: 8,
        iterations: 3,
        seed: 1,
    });
    let cfg = DriverConfig::builder()
        .size_scale(wl.recommended_size_scale())
        .build();
    let workers = |d: &mut Driver| {
        for ext in 1..=4 {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
    };
    let mut twin = Driver::new(cfg.clone(), Box::new(NoCheckpoint), Box::new(NoFailures));
    workers(&mut twin);
    let expect = wl.run(&mut twin).expect("fault-free twin");

    let mut edges_crossed = 0;
    let (mut rebuilds, mut passes) = (0, 0);
    for seed in 0..4 {
        let mut chaos = ChaosConfig::new(seed);
        chaos.horizon = twin.now().since_epoch();
        chaos.outages = 3;
        chaos.outage_len = chaos.horizon / 8;
        let schedule = ChaosSchedule::generate(&chaos);
        let mut d = Driver::new(
            cfg.clone(),
            Box::new(FlintCheckpointPolicy::with_mttf(SimDuration::from_mins(10))),
            Box::new(ChaosInjector::from_schedule(schedule.clone())),
        );
        d.checkpoints_mut()
            .set_fault_policy(Box::new(schedule.store_faults(&chaos)));
        workers(&mut d);
        let got = wl.run(&mut d).expect("survives its chaos schedule");
        assert_eq!(got.checksum, expect.checksum, "seed {seed}");

        let end = d.now();
        let edges: Vec<SimTime> = schedule
            .outages
            .iter()
            .flat_map(|(s, e)| [*s, *e])
            .filter(|t| *t <= end)
            .collect();
        let jobs = d.stats().actions.len() as u64;
        let stats = d.plan_stats();
        eprintln!("seed {seed}: {stats:?}, {jobs} jobs, {} edges", edges.len());
        assert!(
            stats.rebuilds <= jobs + edges.len() as u64,
            "seed {seed}: {stats:?} over {jobs} jobs and {} window edges",
            edges.len()
        );
        edges_crossed += edges.len();
        rebuilds += stats.rebuilds;
        passes += stats.passes;
    }
    // Non-vacuous: the windows fell inside the runs, and the passes
    // there carried their plan.
    assert!(edges_crossed > 0, "no outage window fell inside a run");
    assert!(
        rebuilds * 20 < passes,
        "{rebuilds} of {passes} passes rebuilt"
    );
}
