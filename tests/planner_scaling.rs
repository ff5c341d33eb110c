//! Count-based scaling test for the readiness planner (DESIGN.md §8,
//! "Readiness planning").
//!
//! Scheduling cost must be proportional to what changed since the last
//! step. The planner's own counters (`Driver::plan_stats`) make that a
//! repeatable assertion: no wall clock is read here. Before the block
//! directory and the carried plan, availability probes per task grew as
//! `P² × W` (every step re-probed every map output of every shuffle in
//! the cone on every worker).

use flint::engine::{Driver, DriverConfig, NoCheckpoint, NoFailures, PlanStats, WorkerSpec};
use flint::workloads::{Als, Workload, WorkloadConfig};

/// Runs ALS 2 GB with `partitions` on `workers` plain workers and
/// returns the planner counters with the number of tasks run.
fn als(partitions: u32, workers: u32) -> (PlanStats, u64) {
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
    (d.plan_stats(), d.stats().tasks_run)
}

#[test]
fn probes_per_task_do_not_grow_with_partitions_or_workers() {
    let runs: Vec<(u32, PlanStats, u64)> = [8, 16, 32]
        .into_iter()
        .map(|p| {
            let (stats, tasks) = als(p, 5);
            (p, stats, tasks)
        })
        .collect();
    for (p, stats, tasks) in &runs {
        eprintln!("P={p}: {stats:?} over {tasks} tasks");
    }
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
    let (few, tasks_few) = als(16, 5);
    let (many, tasks_many) = als(16, 15);
    assert_eq!(tasks_few, tasks_many);
    assert_eq!(few.availability_probes, many.availability_probes);
    assert_eq!(few.nodes_visited, many.nodes_visited);
}
