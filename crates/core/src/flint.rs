//! [`FlintCluster`]: the assembled managed service.

use flint_engine::{
    Driver, DriverConfig, EventKind, NoCheckpoint, NoFailures, ServerlessBackend, ServerlessConfig,
    TraceHandle, WorkerSpec,
};
use flint_market::{CloudSim, EbsCostModel, MarketCatalog};
use flint_simtime::{SimDuration, SimTime};

use crate::ckpt_policy::new_shared;
use crate::{
    BatchSelection, BidPolicy, CostReport, FlintCheckpointPolicy, FtSharedHandle,
    InteractiveSelection, JobProfile, NodeManager, NodeManagerHandle, PortfolioPolicy,
    SelectionConfig, SelectionPolicy,
};

/// Which of Flint's policy pairs to run (§3.1 vs §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Homogeneous cluster, minimum expected cost.
    Batch,
    /// Diversified cluster, minimum response-time variance.
    Interactive,
    /// Mean-variance portfolio over markets; the risk-aversion knob
    /// ([`FlintConfigBuilder::risk_aversion`]) interpolates between the two.
    Portfolio,
}

/// Which execution substrate to assemble the session on.
///
/// [`BackendSpec::TransientVm`] (the default) is the paper's setting:
/// a node manager bidding for transient VMs, with checkpointing and
/// replacement. [`BackendSpec::Serverless`] instead runs every task as
/// a function invocation — no node manager, no bids, no checkpoint
/// policy; shuffle data is materialized through the durable store and
/// the bill is per GB-second.
#[derive(Debug, Clone, Default)]
pub enum BackendSpec {
    /// Transient VMs managed by the node manager (the paper's setting).
    #[default]
    TransientVm,
    /// Per-invocation function slots priced by the given model.
    Serverless(ServerlessConfig),
}

/// Configuration of a [`FlintCluster`].
///
/// Start from [`FlintConfig::default`] or [`FlintConfig::builder`]; the
/// builder has a setter for every field.
#[derive(Debug, Clone)]
pub struct FlintConfig {
    /// Cluster size `N` (the paper's evaluation uses 10).
    pub n_workers: u32,
    /// Batch or interactive policy pair.
    pub(crate) mode: Mode,
    /// Engine configuration (cost model, storage bandwidth).
    pub driver: DriverConfig,
    /// Seed for the cloud simulator (preemptible lifetimes).
    pub(crate) seed: u64,
    /// Risk-aversion λ for [`Mode::Portfolio`] (ignored by the other
    /// modes): `0` recovers the greedy batch allocation, values at or
    /// above `flint_core::RISK_POLICY2` recover the interactive
    /// (Policy 2) split.
    pub(crate) risk_aversion: f64,
    /// Shared event-trace handle. Disabled (no sinks) by default; attach
    /// a sink before launch to capture the run's full event stream.
    pub trace: TraceHandle,
    /// Execution backend. The default transient-VM spec preserves the
    /// pre-abstraction behavior exactly; under
    /// [`BackendSpec::Serverless`] the `mode` and `risk_aversion`
    /// fields are meaningless and ignored.
    pub(crate) backend: BackendSpec,
}

impl Default for FlintConfig {
    fn default() -> Self {
        FlintConfig {
            n_workers: 10,
            mode: Mode::Batch,
            driver: DriverConfig::default(),
            seed: 0,
            risk_aversion: 1.0,
            trace: TraceHandle::disabled(),
            backend: BackendSpec::TransientVm,
        }
    }
}

impl FlintConfig {
    /// Starts a builder preloaded with the paper's defaults (`N = 10`,
    /// batch mode, the §5.5 cost model).
    pub fn builder() -> FlintConfigBuilder {
        FlintConfigBuilder::default()
    }
}

/// Fluent builder for [`FlintConfig`]. Every setter has a paper-default
/// value, so `FlintConfig::builder().build()` equals
/// `FlintConfig::default()`.
///
/// # Examples
///
/// ```
/// use flint_core::{FlintConfig, Mode};
///
/// let cfg = FlintConfig::builder()
///     .n_workers(6)
///     .mode(Mode::Interactive)
///     .seed(7)
///     .build();
/// assert_eq!(cfg.n_workers, 6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlintConfigBuilder {
    cfg: FlintConfig,
}

impl FlintConfigBuilder {
    /// Cluster size `N` (paper default 10).
    pub fn n_workers(mut self, n: u32) -> Self {
        self.cfg.n_workers = n;
        self
    }

    /// Batch or interactive policy pair.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Engine configuration (cost model, storage bandwidth, threads).
    pub fn driver(mut self, driver: DriverConfig) -> Self {
        self.cfg.driver = driver;
        self
    }

    /// Seed for the cloud simulator (preemptible lifetimes).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Risk-aversion λ for [`Mode::Portfolio`] (default 1.0).
    pub fn risk_aversion(mut self, risk: f64) -> Self {
        self.cfg.risk_aversion = risk;
        self
    }

    /// Attaches a trace handle; engine, market, and policy events are
    /// all emitted on it.
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.cfg.trace = trace;
        self
    }

    /// Selects the execution backend (default transient VMs).
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> FlintConfig {
        self.cfg
    }
}

/// A Flint managed-service session: an engine driver wired to a node
/// manager (server selection + replacement) and the Flint checkpoint
/// policy, with end-to-end cost accounting.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct FlintCluster {
    driver: Driver,
    backing: Backing,
    ft: FtSharedHandle,
    config: FlintConfig,
    ebs: EbsCostModel,
}

/// What stands behind the driver: a node manager bidding for VMs, or
/// nothing but a pricing reference for serverless.
enum Backing {
    Vm {
        nm: NodeManagerHandle,
    },
    Serverless {
        /// On-demand VM price used as the unit-cost reference.
        on_demand_equiv: f64,
    },
}

impl FlintCluster {
    /// Session start within the price traces: two weeks in, so the
    /// backward-looking window has history.
    const START: SimTime = SimTime::from_millis(SimDuration::from_days(14).as_millis());

    /// Launches Flint on the configured backend: the mode's default
    /// policy pair on transient VMs, or a serverless session (the
    /// catalog is unused there — functions are not bid for).
    pub fn launch(catalog: MarketCatalog, config: FlintConfig) -> FlintCluster {
        match config.backend.clone() {
            BackendSpec::TransientVm => Self::launch_vm(catalog, config),
            BackendSpec::Serverless(spec) => Self::launch_serverless(config, spec),
        }
    }

    /// Launches a serverless session: `n_workers` units of function
    /// concurrency, no node manager, no checkpoint policy (the durable
    /// store carries shuffle data instead), per-GB-second billing.
    fn launch_serverless(config: FlintConfig, spec: ServerlessConfig) -> FlintCluster {
        let ft = new_shared(SimDuration::MAX);
        let mut driver = Driver::new(
            config.driver.clone(),
            Box::new(NoCheckpoint),
            Box::new(NoFailures),
        );
        driver.set_trace(config.trace.clone());
        driver.set_serverless(ServerlessBackend::new(spec.clone(), config.seed));
        driver.warp_to(Self::START);
        for i in 1..=u64::from(config.n_workers) {
            driver.add_worker_with_ext(i, WorkerSpec::serverless_slot(spec.memory_gb));
        }
        config.trace.emit(
            driver.now(),
            EventKind::BackendSelected {
                backend: "serverless".to_string(),
                workers: u64::from(config.n_workers),
            },
        );
        FlintCluster {
            driver,
            backing: Backing::Serverless {
                on_demand_equiv: spec.on_demand_equiv,
            },
            ft,
            config,
            ebs: EbsCostModel::default(),
        }
    }

    /// Launches on transient VMs: the mode's selection policy behind a
    /// node manager, checkpointed by [`FlintCheckpointPolicy`].
    fn launch_vm(catalog: MarketCatalog, config: FlintConfig) -> FlintCluster {
        let policy: Box<dyn SelectionPolicy> = match config.mode {
            Mode::Batch => Box::new(BatchSelection),
            Mode::Interactive => Box::new(InteractiveSelection::default()),
            Mode::Portfolio => Box::new(PortfolioPolicy::new(config.risk_aversion)),
        };
        let mut cloud = CloudSim::with_seed(catalog, config.seed);
        cloud.set_trace(config.trace.clone());
        let ft = new_shared(SimDuration::MAX);
        let (nm_injector, nm) = NodeManager::launch(
            cloud,
            policy,
            BidPolicy::OnDemandPrice,
            SelectionConfig::default(),
            JobProfile::default(),
            config.driver.storage,
            config.n_workers,
            ft.clone(),
            Self::START,
        );
        let hooks = Box::new(FlintCheckpointPolicy::new(ft.clone()));
        let mut driver = Driver::new(config.driver.clone(), hooks, Box::new(nm_injector));
        driver.set_trace(config.trace.clone());
        driver.warp_to(Self::START);
        config.trace.emit(
            driver.now(),
            EventKind::BackendSelected {
                backend: "vm".to_string(),
                workers: u64::from(config.n_workers),
            },
        );
        FlintCluster {
            driver,
            backing: Backing::Vm { nm },
            ft,
            config,
            ebs: EbsCostModel::default(),
        }
    }

    /// The engine driver (define RDDs, run actions).
    pub fn driver_mut(&mut self) -> &mut Driver {
        &mut self.driver
    }

    /// The engine driver, read-only.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// The node-manager query handle.
    ///
    /// # Panics
    ///
    /// Panics under the serverless backend, which has no node manager.
    pub fn node_manager(&self) -> &NodeManagerHandle {
        self.try_node_manager()
            .expect("the serverless backend has no node manager")
    }

    /// The node-manager query handle, or `None` under serverless.
    pub(crate) fn try_node_manager(&self) -> Option<&NodeManagerHandle> {
        match &self.backing {
            Backing::Vm { nm } => Some(nm),
            Backing::Serverless { .. } => None,
        }
    }

    /// The shared fault-tolerance state (MTTF, δ, τ).
    pub fn ft_state(&self) -> FtSharedHandle {
        self.ft.clone()
    }

    /// Builds the bill up to the current virtual instant.
    pub fn cost_report(&mut self) -> CostReport {
        let now = self.driver.now();
        let storage_cost = self
            .driver
            .checkpoints_mut()
            .store_mut()
            .storage_cost(self.ebs.price_per_gb_month, now);
        match &self.backing {
            Backing::Vm { nm } => CostReport {
                policy: nm.policy_name().to_string(),
                compute_cost: nm.compute_cost(now),
                storage_cost,
                start: Self::START,
                end: now,
                n_workers: self.config.n_workers,
                on_demand_price: nm.on_demand_price(),
                revocations: nm.revocations(),
                backend: "vm".to_string(),
                invocations: 0,
                invocation_gb_seconds: 0.0,
            },
            Backing::Serverless { on_demand_equiv } => {
                let backend = self
                    .driver
                    .serverless()
                    .expect("a serverless session installs its backend at launch");
                CostReport {
                    policy: "serverless".to_string(),
                    // Per-invocation bills, accumulated in commit
                    // order — Σ InvocationBilled events reproduce this
                    // exactly.
                    compute_cost: backend.compute_cost(),
                    storage_cost,
                    start: Self::START,
                    end: now,
                    n_workers: self.config.n_workers,
                    on_demand_price: *on_demand_equiv,
                    revocations: 0,
                    backend: "serverless".to_string(),
                    // Billed count, not admitted count: tasks still in
                    // flight when the final job completes are admitted
                    // but never committed, and only committed
                    // invocations are charged.
                    invocations: backend.invocations_billed(),
                    invocation_gb_seconds: backend.billed_gb_seconds(),
                }
            }
        }
    }

    /// Terminates all instances and returns the final bill. Under
    /// serverless there is nothing to terminate — invocations already
    /// ended — so this only closes the books.
    pub fn shutdown(mut self) -> CostReport {
        let now = self.driver.now();
        if let Backing::Vm { nm } = &self.backing {
            nm.shutdown(now);
        }
        self.cost_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_engine::Value;
    use flint_simtime::lock;

    fn catalog() -> MarketCatalog {
        MarketCatalog::synthetic_ec2(23, SimDuration::from_days(60))
    }

    fn word_count(driver: &mut Driver) -> u64 {
        let words = driver.ctx().parallelize(
            (0..2000).map(|i| Value::from_str_(&format!("w{}", i % 50))),
            10,
        );
        let pairs = driver
            .ctx()
            .map(words, |w| Value::pair(w.clone(), Value::Int(1)));
        let counts = driver.ctx().reduce_by_key(pairs, 10, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        });
        driver.count(counts).unwrap()
    }

    #[test]
    fn batch_cluster_runs_jobs_end_to_end() {
        let mut cluster =
            FlintCluster::launch(catalog(), FlintConfig::builder().n_workers(6).build());
        assert_eq!(word_count(cluster.driver_mut()), 50);
        // Hold the cluster for 10 hours so hourly billing amortizes.
        let until = cluster.driver().now() + SimDuration::from_hours(10);
        cluster.driver_mut().idle_until(until).unwrap();
        let report = cluster.cost_report();
        assert!(report.compute_cost > 0.0);
        assert_eq!(report.policy, "flint-batch");
        // Spot prices in the catalog sit at ~10-15% of on-demand.
        assert!(
            report.unit_cost() < 0.4,
            "unit cost {} should be far below on-demand",
            report.unit_cost()
        );
    }

    #[test]
    fn interactive_cluster_spans_markets() {
        let mut cluster = FlintCluster::launch(
            catalog(),
            FlintConfig::builder()
                .n_workers(8)
                .mode(Mode::Interactive)
                .build(),
        );
        assert_eq!(word_count(cluster.driver_mut()), 50);
        assert!(cluster.node_manager().active_markets().len() >= 2);
        assert_eq!(cluster.node_manager().policy_name(), "flint-interactive");
    }

    #[test]
    fn portfolio_cluster_runs_and_reports_policy() {
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        let mut cluster = FlintCluster::launch(
            catalog(),
            FlintConfig::builder()
                .n_workers(8)
                .mode(Mode::Portfolio)
                .risk_aversion(5.0)
                .trace(trace)
                .build(),
        );
        assert_eq!(word_count(cluster.driver_mut()), 50);
        assert_eq!(cluster.node_manager().policy_name(), "flint-portfolio");
        let report = cluster.shutdown();
        assert!(report.compute_cost > 0.0);
        // The portfolio policy announces its weights on the trace.
        let weights = reader
            .events()
            .iter()
            .filter(|e| matches!(e.kind, flint_engine::EventKind::PortfolioWeight { .. }))
            .count();
        assert!(weights > 0, "expected PortfolioWeight events");
    }

    #[test]
    fn ft_state_carries_finite_mttf() {
        let cluster = FlintCluster::launch(catalog(), FlintConfig::default());
        let mttf = lock(&cluster.ft_state()).mttf;
        assert!(mttf < SimDuration::MAX);
    }

    #[test]
    fn serverless_cluster_runs_jobs_and_bills_per_invocation() {
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        let mut cluster = FlintCluster::launch(
            catalog(),
            FlintConfig::builder()
                .n_workers(6)
                .backend(BackendSpec::Serverless(ServerlessConfig::default()))
                .trace(trace)
                .build(),
        );
        assert_eq!(word_count(cluster.driver_mut()), 50);
        assert!(cluster.try_node_manager().is_none());
        // Externalized map outputs are resident in the durable store.
        assert!(
            cluster
                .driver()
                .checkpoints()
                .store()
                .bytes_with_prefix("shuffle-")
                > 0
        );
        let report = cluster.shutdown();
        assert_eq!(report.backend, "serverless");
        assert_eq!(report.policy, "serverless");
        assert!(report.invocations > 0);
        assert!(report.invocation_gb_seconds > 0.0);
        assert!(report.compute_cost > 0.0);
        // Σ per-invocation bills on the trace == the reported compute
        // cost, exactly (same accumulation order).
        let events = reader.events();
        let billed: f64 = events
            .iter()
            .filter_map(|e| match e.kind {
                flint_engine::EventKind::InvocationBilled { cost, .. } => Some(cost),
                _ => None,
            })
            .sum();
        assert_eq!(billed, report.compute_cost);
        assert!(events.iter().any(
            |e| matches!(&e.kind, flint_engine::EventKind::BackendSelected { backend, .. }
                if backend == "serverless")
        ));
        // The shuffle travelled through the store, not worker memory.
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, flint_engine::EventKind::ShuffleExternalized { .. })));
    }

    #[test]
    fn serverless_matches_vm_results_and_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut cluster = FlintCluster::launch(
                catalog(),
                FlintConfig::builder()
                    .n_workers(6)
                    .seed(seed)
                    .backend(BackendSpec::Serverless(ServerlessConfig::default()))
                    .build(),
            );
            let n = word_count(cluster.driver_mut());
            let report = cluster.shutdown();
            (n, report.compute_cost, report.invocations)
        };
        assert_eq!(run(3), run(3), "same seed must replay identically");
        // The result (not the bill) is backend-independent.
        assert_eq!(run(4).0, 50);
    }

    #[test]
    fn long_session_with_checkpointing_accrues_storage_cost() {
        let mut cluster =
            FlintCluster::launch(catalog(), FlintConfig::builder().n_workers(6).build());
        // Force a low MTTF so τ is short and checkpoints happen quickly.
        lock(&cluster.ft_state()).mttf = SimDuration::from_hours(1);
        let driver = cluster.driver_mut();
        // An iterative program: each iteration derives a new frontier.
        let mut cur = driver.ctx().parallelize((0..3000).map(Value::from_i64), 10);
        driver.ctx().persist(cur);
        for i in 0..30 {
            // Space iterations out in virtual time so the τ timer fires.
            let t = driver.now() + SimDuration::from_mins(4);
            driver.idle_until(t).unwrap();
            let next = driver
                .ctx()
                .map(cur, move |v| Value::Int(v.as_i64().unwrap() + i));
            driver.ctx().persist(next);
            let _ = driver.count(next).unwrap();
            cur = next;
        }
        assert!(
            cluster.driver().stats().checkpoints_written > 0,
            "adaptive policy should have checkpointed during 2h of iterations"
        );
        let report = cluster.cost_report();
        assert!(report.storage_cost > 0.0);
    }
}
