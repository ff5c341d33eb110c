//! One-call convenience: run a workload on a Flint-managed transient
//! cluster and get the result, the bill, and (optionally) the full
//! event trace.

use flint_core::{CostReport, FlintCluster, FlintConfig};
use flint_engine::{Result, TraceHandle};
use flint_market::MarketCatalog;
use flint_simtime::SimTime;
use flint_workloads::{Workload, WorkloadSummary};

/// Everything a Flint-managed workload run produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload's result digest.
    pub summary: WorkloadSummary,
    /// Total virtual running time of the workload, in seconds.
    pub runtime_secs: f64,
    /// Engine statistics snapshot.
    pub stats: flint_engine::RunStats,
    /// The final bill (cluster terminated).
    pub cost: CostReport,
    /// The run's trace handle, when the launch config had one enabled
    /// (a sink attached). Flushed before return; read it back through
    /// whatever sink was attached (memory ring, JSONL file, …).
    pub trace: Option<TraceHandle>,
}

impl RunReport {
    /// The execution backend that produced this run (`"vm"` or
    /// `"serverless"`); under serverless, `cost.invocations` and
    /// `cost.invocation_gb_seconds` carry the billing breakdown.
    pub fn backend(&self) -> &str {
        &self.cost.backend
    }
}

/// Launches a Flint cluster for `config`, sizes the engine's cost model
/// to the workload's recommended scale, runs the workload to completion,
/// shuts the cluster down, and returns results plus the bill.
///
/// # Examples
///
/// ```
/// use flint::runner::run_on_flint;
/// use flint::core::FlintConfig;
/// use flint::market::MarketCatalog;
/// use flint::simtime::SimDuration;
/// use flint::workloads::{PageRank, WorkloadConfig};
///
/// let catalog = MarketCatalog::synthetic_ec2(7, SimDuration::from_days(30));
/// let wl = PageRank::new(WorkloadConfig {
///     dataset_gb: 0.3,
///     partitions: 4,
///     iterations: 2,
///     seed: 1,
/// });
/// let run = run_on_flint(catalog, FlintConfig::builder().n_workers(4).build(), &wl).unwrap();
/// assert!(run.summary.records > 0);
/// assert!(run.cost.compute_cost >= 0.0);
/// assert!(run.trace.is_none()); // no sink attached
/// ```
pub fn run_on_flint(
    catalog: MarketCatalog,
    config: FlintConfig,
    workload: &dyn Workload,
) -> Result<RunReport> {
    let mut cluster = launch_for(catalog, config, workload);
    let started = cluster.driver().now();
    let summary = workload.run(cluster.driver_mut())?;
    finish_run(cluster, summary, started)
}

/// Launches a Flint cluster for `config` with the engine's cost model
/// sized to `workload`'s recommended scale: the first step of
/// [`run_on_flint`].
pub fn launch_for(
    catalog: MarketCatalog,
    mut config: FlintConfig,
    workload: &dyn Workload,
) -> FlintCluster {
    config.driver.cost.size_scale = workload.recommended_size_scale();
    FlintCluster::launch(catalog, config)
}

/// The last step of [`run_on_flint`]: closes a workload run that began
/// at `started` and produced `summary`. Checks that a resumed replay
/// reached its manifest's frontier ([`Driver::resume_verified`], the only
/// error), shuts the cluster down and flushes its trace.
///
/// [`Driver::resume_verified`]: flint_engine::Driver::resume_verified
pub fn finish_run(
    cluster: FlintCluster,
    summary: WorkloadSummary,
    started: SimTime,
) -> Result<RunReport> {
    cluster.driver().resume_verified()?;
    let runtime_secs = (cluster.driver().now() - started).as_secs_f64();
    let stats = cluster.driver().stats().clone();
    let trace = cluster.driver().trace().clone();
    let cost = cluster.shutdown();
    trace.flush();
    Ok(RunReport {
        summary,
        runtime_secs,
        stats,
        cost,
        trace: trace.is_enabled().then_some(trace),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_core::Mode;
    use flint_simtime::SimDuration;
    use flint_workloads::{KMeans, WorkloadConfig};

    #[test]
    fn end_to_end_run_with_bill() {
        let catalog = MarketCatalog::synthetic_ec2(3, SimDuration::from_days(30));
        let wl = KMeans::new(WorkloadConfig {
            dataset_gb: 0.5,
            partitions: 4,
            iterations: 2,
            seed: 2,
        });
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        let run = run_on_flint(
            catalog,
            FlintConfig::builder()
                .n_workers(4)
                .mode(Mode::Interactive)
                .trace(trace)
                .build(),
            &wl,
        )
        .unwrap();
        assert_eq!(run.summary.records, 10); // k centroids
        assert!(run.runtime_secs > 0.0);
        assert!(run.cost.compute_cost > 0.0);
        assert_eq!(run.cost.policy, "flint-interactive");
        assert!(run.trace.is_some());
        assert!(!reader.is_empty(), "an enabled trace must capture events");
    }
}
