//! Shared experiment machinery: calibrated drivers, failure schedules,
//! and workload runners.

use flint_core::FlintCheckpointPolicy;
use flint_engine::{
    CheckpointHooks, Driver, DriverConfig, NoCheckpoint, RunStats, ScriptedInjector, WorkerEvent,
    WorkerSpec,
};
use flint_simtime::{SimDuration, SimTime};
use flint_store::StorageConfig;
use flint_workloads::{Workload, WorkloadSummary};

/// Which checkpointing policy a run uses.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HookSpec {
    /// No checkpointing (the paper's "Recomputation" configuration).
    None,
    /// Flint's adaptive frontier policy with a fixed cluster MTTF.
    Flint {
        /// Cluster MTTF in hours.
        mttf_hours: f64,
        /// Enable the shuffle fast-path (τ / #map-partitions).
        shuffle_fastpath: bool,
    },
    /// Systems-level whole-memory snapshots on a fixed interval.
    System {
        /// Snapshot interval.
        interval: SimDuration,
    },
    /// Spark-Streaming-style fixed-interval RDD checkpointing.
    Periodic {
        /// Checkpoint interval.
        interval: SimDuration,
    },
    /// Flint with δ re-estimation disabled (τ frozen at its initial
    /// guess) — the adaptive-δ ablation.
    FlintFrozenDelta {
        /// Cluster MTTF in hours.
        mttf_hours: f64,
    },
}

impl HookSpec {
    fn build(self) -> Box<dyn CheckpointHooks> {
        match self {
            HookSpec::None => Box::new(NoCheckpoint),
            HookSpec::Flint {
                mttf_hours,
                shuffle_fastpath,
            } => {
                let mut p =
                    FlintCheckpointPolicy::with_mttf(SimDuration::from_hours_f64(mttf_hours));
                p.shuffle_fastpath = shuffle_fastpath;
                Box::new(p)
            }
            HookSpec::System { interval } => {
                Box::new(flint_core::PeriodicSystemCheckpoint::new(interval))
            }
            HookSpec::Periodic { interval } => {
                Box::new(flint_core::PeriodicRddCheckpoint::new(interval))
            }
            HookSpec::FlintFrozenDelta { mttf_hours } => {
                let mut p =
                    FlintCheckpointPolicy::with_mttf(SimDuration::from_hours_f64(mttf_hours));
                p.adaptive_delta = false;
                Box::new(p)
            }
        }
    }
}

/// Options for an engine experiment run.
#[derive(Debug, Clone)]
pub(crate) struct RunOpts {
    /// Cluster size (the paper's evaluation uses 10 `r3.large`).
    pub(crate) n_workers: u32,
    /// Checkpoint policy.
    pub(crate) hooks: HookSpec,
    /// `(time, servers)` revocation batches; victims are drawn from the
    /// initial workers in order.
    pub(crate) kill_batches: Vec<(SimTime, u32)>,
    /// Replace revoked servers after the EC2 acquisition delay.
    pub(crate) replace: bool,
    /// Worker shape (defaults to `r3.large`).
    pub(crate) worker: WorkerSpec,
    /// Storage bandwidth model override.
    pub(crate) storage: StorageConfig,
    /// Source-data (S3) read bandwidth override, MiB/s.
    pub(crate) source_mib_s: f64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            n_workers: 10,
            hooks: HookSpec::None,
            kill_batches: Vec::new(),
            replace: true,
            worker: WorkerSpec::r3_large(),
            storage: StorageConfig::default(),
            source_mib_s: 40.0,
        }
    }
}

/// Outcome of an engine experiment run.
#[derive(Debug, Clone)]
pub(crate) struct EngineRun {
    /// Total virtual running time of the workload.
    pub(crate) runtime: SimDuration,
    /// Engine statistics.
    pub(crate) stats: RunStats,
    /// Workload result digest.
    pub(crate) summary: WorkloadSummary,
}

/// The EC2 acquisition / warning lead used by the schedules.
pub(crate) const ACQ: SimDuration = SimDuration::from_secs(120);

/// Builds the scripted worker-event schedule for `opts`.
///
/// Victims are drawn from the currently-alive workers (oldest first), so
/// repeated full-cluster revocations — each batch killing the previous
/// batch's replacements — work as expected.
fn schedule(opts: &RunOpts) -> Vec<(SimTime, WorkerEvent)> {
    let mut events = Vec::new();
    // (ext_id, alive_since) of live workers, oldest first.
    let mut alive: Vec<(u64, SimTime)> = (1..=u64::from(opts.n_workers))
        .map(|e| (e, SimTime::ZERO))
        .collect();
    let mut repl: u64 = 1000;
    let mut batches = opts.kill_batches.clone();
    batches.sort_by_key(|(t, _)| *t);
    for (t, k) in batches {
        let mut killed = 0;
        while killed < k {
            // Oldest alive worker that is actually up by `t`.
            let Some(pos) = alive.iter().position(|(_, since)| *since <= t) else {
                break;
            };
            let (victim, _) = alive.remove(pos);
            events.push((t.saturating_sub(ACQ), WorkerEvent::Warn { ext_id: victim }));
            events.push((t, WorkerEvent::Remove { ext_id: victim }));
            if opts.replace {
                let ready = t + ACQ;
                events.push((
                    ready,
                    WorkerEvent::Add {
                        ext_id: repl,
                        spec: opts.worker,
                    },
                ));
                alive.push((repl, ready));
                repl += 1;
            }
            killed += 1;
        }
    }
    events.sort_by_key(|(t, _)| *t);
    events
}

/// Builds a calibrated driver for `workload` under `opts`.
pub(crate) fn build_driver(workload: &dyn Workload, opts: &RunOpts) -> Driver {
    let mut cfg = DriverConfig::builder()
        .size_scale(workload.recommended_size_scale())
        .storage(opts.storage)
        .build();
    cfg.cost.source_mib_s = opts.source_mib_s;
    let mut d = Driver::new(
        cfg,
        opts.hooks.build(),
        Box::new(ScriptedInjector::new(schedule(opts))),
    );
    for ext in 1..=u64::from(opts.n_workers) {
        d.add_worker_with_ext(ext, opts.worker);
    }
    d
}

/// Runs `workload` under `opts`, returning timing and statistics.
///
/// # Panics
///
/// Panics if the workload fails (experiments are expected to complete).
pub(crate) fn run_workload(workload: &dyn Workload, opts: &RunOpts) -> EngineRun {
    let mut d = build_driver(workload, opts);
    let summary = workload
        .run(&mut d)
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    EngineRun {
        runtime: d.now().since_epoch(),
        stats: d.stats().clone(),
        summary,
    }
}

/// The failure-free running time of `workload` on `n` workers.
pub(crate) fn baseline_runtime(workload: &dyn Workload, n_workers: u32) -> SimDuration {
    run_workload(
        workload,
        &RunOpts {
            n_workers,
            ..RunOpts::default()
        },
    )
    .runtime
}

/// Draws a seeded Poisson schedule of full-cluster revocations at rate
/// `1/mttf_hours` over `[0, horizon)` — the §5 experiments' failure
/// model for a given market volatility.
///
/// Inter-kill gaps come from [`flint_market::ExponentialHazard`] (the
/// same model the node manager assumes), drawing the same stream the
/// inline inverse-CDF sampler always consumed, so historical schedules
/// are unchanged.
pub(crate) fn poisson_kills(
    mttf_hours: f64,
    horizon: SimTime,
    cluster_size: u32,
    seed: u64,
    label: &str,
) -> Vec<(SimTime, u32)> {
    use flint_market::{ExponentialHazard, HazardModel};
    let hazard = ExponentialHazard::from_hours(mttf_hours);
    let mut rng = flint_simtime::rng::stream(seed, label);
    let mut kills = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        t += hazard.sample_lifetime(&mut rng);
        if t >= horizon {
            return kills;
        }
        kills.push((t, cluster_size));
    }
}

/// Maps `f` over independent `items` on one thread per host core;
/// results come back in `items` order ([`flint_simtime::fan_out`]).
pub(crate) fn on_host_cores<T, O, F>(items: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    flint_simtime::fan_out(jobs, items, f)
}

/// Percentage increase of `x` over baseline `b`.
pub(crate) fn pct_increase(x: SimDuration, b: SimDuration) -> f64 {
    let b = b.as_secs_f64().max(1e-9);
    (x.as_secs_f64() - b) / b * 100.0
}

/// Formats seconds with one decimal.
pub(crate) fn fmt_secs(d: SimDuration) -> String {
    format!("{:.1}s", d.as_secs_f64())
}

/// Formats a percentage with one decimal.
pub(crate) fn fmt_pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_workloads::{PageRank, WorkloadConfig};

    fn tiny_pagerank() -> PageRank {
        PageRank::new(WorkloadConfig {
            dataset_gb: 0.2,
            partitions: 4,
            iterations: 2,
            seed: 2,
        })
    }

    #[test]
    fn schedule_orders_warn_remove_add() {
        let opts = RunOpts {
            n_workers: 4,
            kill_batches: vec![(SimTime::from_hours_f64(1.0), 2)],
            ..RunOpts::default()
        };
        let evs = schedule(&opts);
        assert_eq!(evs.len(), 6); // 2 × (warn + remove + add)
        let warns = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Warn { .. }))
            .count();
        assert_eq!(warns, 2);
    }

    #[test]
    fn kill_count_capped_at_cluster_size() {
        let opts = RunOpts {
            n_workers: 2,
            kill_batches: vec![(SimTime::from_hours_f64(1.0), 5)],
            replace: false,
            ..RunOpts::default()
        };
        let evs = schedule(&opts);
        let removes = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Remove { .. }))
            .count();
        assert_eq!(removes, 2);
    }

    #[test]
    fn baseline_run_completes_and_times() {
        let wl = tiny_pagerank();
        let t = baseline_runtime(&wl, 4);
        assert!(t > SimDuration::ZERO);
    }

    #[test]
    fn failure_run_is_slower_but_correct() {
        let wl = tiny_pagerank();
        let base = run_workload(
            &wl,
            &RunOpts {
                n_workers: 4,
                ..RunOpts::default()
            },
        );
        let mid = SimTime::ZERO + base.runtime / 2;
        let failed = run_workload(
            &wl,
            &RunOpts {
                n_workers: 4,
                kill_batches: vec![(mid, 2)],
                ..RunOpts::default()
            },
        );
        assert_eq!(failed.summary.checksum, base.summary.checksum);
        assert!(failed.runtime > base.runtime);
        assert_eq!(failed.stats.revocations, 2);
    }

    #[test]
    fn pct_helpers() {
        let b = SimDuration::from_secs(100);
        let x = SimDuration::from_secs(150);
        assert!((pct_increase(x, b) - 50.0).abs() < 1e-9);
        assert_eq!(fmt_pct(12.34), "12.3%");
        assert_eq!(fmt_secs(SimDuration::from_millis(1500)), "1.5s");
    }
}
