//! `als_serverless` — `run_on_flint` end to end per op (catalog → launch
//! → run → shutdown → bill) on the serverless backend, with the
//! product's JSONL trace streaming into a byte-counting null writer.
//! Uses the shuffle and store layers the *other* way from the VM
//! workloads — every shuffle-map commit is a `CheckpointStore` write and
//! every reduce a store read — plus the backend hooks, per-invocation
//! billing and cluster shutdown inside every op. VM-path optimisations
//! should leave it flat.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flint::core::{BackendSpec, FlintCluster, FlintConfig};
use flint::engine::{Event, EventKind, EventSink, RunStats, ServerlessConfig};
use flint::market::MarketCatalog;
use flint::runner::run_on_flint;
use flint::simtime::rng::derive_seed;
use flint::simtime::SimDuration;
use flint::workloads::{Als, Workload, WorkloadConfig};

use super::{Bench, Fnv, OpOutcome, RunCfg, TraceMode};
use crate::host::{median, timed_ms, Spans};
use crate::metrics::Metrics;
use crate::probes;

/// Sized well under the host-time cliff (`--gb 10` takes 1.4 s a run,
/// `--gb 40` more than 300 s); do not raise.
const DATASET_GB: f64 = 10.0;
const PARTITIONS: u32 = 20;
const ITERATIONS: u32 = 5;
const WORKERS: u32 = 10;
/// Distinct workload seeds in one pass of the op list; each needs a VM
/// reference run in set-up, which is most of this workload's `setup_s`.
const SEEDS: usize = 2;

/// Counts `InvocationBilled` events on the product's trace bus.
struct BillCounter(Arc<AtomicU64>);

impl EventSink for BillCounter {
    fn emit(&mut self, event: &Event) {
        if matches!(event.kind, EventKind::InvocationBilled { .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

pub struct AlsServerless {
    seed: u64,
    /// Per list entry: the workload and the checksum of its VM-backend run.
    entries: Vec<(Als, u64, u64)>,
    /// Host seconds a VM-backend run took; an op gets 20x this.
    expected_op_s: f64,
    mode: TraceMode,
    done: Accounting,
}

/// Totals over the ops run since the trace mode was last set.
#[derive(Default)]
struct Accounting {
    cost_usd: f64,
    stats: RunStats,
    invocations: u64,
    gb_seconds: f64,
}

fn catalog(seed: u64) -> MarketCatalog {
    MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(30))
}

impl AlsServerless {
    pub fn setup(cfg: &RunCfg, spans: &mut Spans) -> Result<Self, String> {
        let mut entries = Vec::new();
        let mut vm_run_s = Vec::new();
        for j in 0..cfg.list_len(SEEDS) {
            let wl_seed = derive_seed(cfg.seed, &format!("als-data-{j}"));
            let wl = Als::new(WorkloadConfig {
                dataset_gb: DATASET_GB,
                partitions: PARTITIONS,
                iterations: ITERATIONS,
                seed: wl_seed,
            });
            let s = spans.enter("setup.vm_reference_run");
            let (vm, ms) = timed_ms(|| {
                run_on_flint(
                    catalog(wl_seed),
                    FlintConfig::builder()
                        .n_workers(WORKERS)
                        .seed(wl_seed)
                        .build(),
                    &wl,
                )
            });
            let vm = vm.map_err(|e| format!("VM reference run: {e}"))?;
            vm_run_s.push(ms / 1e3);
            spans.exit(s);
            entries.push((wl, wl_seed, vm.summary.checksum));
        }
        // No separate warm-up op: the VM reference runs just ran the same
        // ALS jobs through the same engine, and a third run per set-up
        // would make this workload's set-up a third of its run.
        Ok(AlsServerless {
            seed: cfg.seed,
            entries,
            expected_op_s: median(&vm_run_s),
            mode: TraceMode::Jsonl,
            done: Accounting::default(),
        })
    }

    fn config(&self, wl_seed: u64, trace: flint::engine::TraceHandle) -> FlintConfig {
        FlintConfig::builder()
            .n_workers(WORKERS)
            .seed(wl_seed)
            .trace(trace)
            .backend(BackendSpec::Serverless(ServerlessConfig::default()))
            .build()
    }
}

impl Bench for AlsServerless {
    fn list_len(&self) -> usize {
        self.entries.len()
    }

    fn default_trace(&self) -> TraceMode {
        TraceMode::Jsonl
    }

    fn set_trace(&mut self, mode: TraceMode) {
        self.mode = mode;
        self.done = Accounting::default();
    }

    fn expected_op_s(&self) -> f64 {
        self.expected_op_s
    }

    fn run_op(&mut self, i: usize, spans: &mut Spans) -> OpOutcome {
        let (wl, wl_seed, vm_checksum) = &self.entries[i % self.entries.len()];
        let trace = self.mode.handle();
        let billed = Arc::new(AtomicU64::new(0));
        // Billing is reconciled against the event stream, so the counter
        // rides along whenever the product trace is on at all.
        if trace.is_enabled() {
            trace.add_sink(Box::new(BillCounter(billed.clone())));
        }
        let s = spans.enter("market.catalog_gen");
        let catalog = catalog(*wl_seed);
        spans.exit(s);
        let s = spans.enter("runner.run_on_flint");
        let run = run_on_flint(catalog, self.config(*wl_seed, trace.clone()), wl);
        spans.exit(s);
        let run = match run {
            Ok(run) => run,
            Err(e) => return OpOutcome::failed(format!("typed error: {e}")),
        };
        self.done.cost_usd += run.cost.total();
        self.done.invocations += run.cost.invocations;
        self.done.gb_seconds += run.cost.invocation_gb_seconds;
        probes::add_stats(&mut self.done.stats, &run.stats);
        if run.summary.checksum != *vm_checksum {
            return OpOutcome::failed(format!(
                "checksum {:#018x} differs from the VM-backend run {vm_checksum:#018x}",
                run.summary.checksum
            ));
        }
        let billed = billed.load(Ordering::Relaxed);
        if trace.is_enabled() && billed != run.cost.invocations {
            return OpOutcome::failed(format!(
                "{billed} InvocationBilled events, bill says {} invocations",
                run.cost.invocations
            ));
        }
        OpOutcome {
            failure: None,
            digest: Fnv::new()
                .eat_u64(run.summary.checksum)
                .eat_u64(run.summary.records)
                .0,
            virtual_s: run.runtime_secs,
        }
    }

    fn cost_usd(&mut self, _spans: &mut Spans) -> f64 {
        self.done.cost_usd
    }

    fn layer_probes(&mut self, spans: &mut Spans, m: &mut Metrics) {
        // The same run taken apart, so launch, the cost report and
        // shutdown can be timed on their own.
        let (wl, wl_seed, _) = &self.entries[0];
        let trace = self.mode.handle();
        let s = spans.enter("core.launch");
        let (mut cluster, launch_ms) =
            timed_ms(|| FlintCluster::launch(catalog(*wl_seed), self.config(*wl_seed, trace)));
        spans.exit(s);
        let mut cost_model = *cluster.driver().cost_model();
        cost_model.size_scale = wl.recommended_size_scale();
        cluster.driver_mut().set_cost_model(cost_model);
        let s = spans.enter("workloads.als.run");
        let ran = wl.run(cluster.driver_mut());
        spans.exit(s);
        if let Err(e) = ran {
            eprintln!("als_serverless: core probe run failed: {e}");
        }
        let store = cluster.driver().checkpoints().store();
        m.set("store.bytes_written", store.bytes_written() as f64);
        m.set("store.peak_bytes", store.peak_bytes() as f64);
        let s = spans.enter("core.cost_report");
        let (_, cost_report_ms) = timed_ms(|| cluster.cost_report());
        spans.exit(s);
        let s = spans.enter("core.shutdown");
        let (_, shutdown_ms) = timed_ms(|| cluster.shutdown());
        spans.exit(s);
        m.set("core.launch_ms", launch_ms);
        m.set("core.cost_report_ms", cost_report_ms);
        m.set("core.shutdown_ms", shutdown_ms);

        let s = spans.enter("probes.store");
        probes::store(m);
        probes::shuffle_partition(self.seed, m);
        spans.exit(s);
    }

    fn teardown(self: Box<Self>, spans: &mut Spans, m: &mut Metrics) -> Vec<String> {
        probes::run_stats(&self.done.stats, 0, m);
        m.set("engine.backend.invocations", self.done.invocations as f64);
        m.set("engine.backend.gb_seconds", self.done.gb_seconds);
        m.set("core.virtual_cost_usd", self.done.cost_usd);
        m.set(
            "runner.run_on_flint_ms",
            median(&spans.durations_ms("runner.run_on_flint")),
        );
        m.set(
            "market.catalog_gen_ms",
            median(&spans.durations_ms("market.catalog_gen")),
        );
        // Function slots cache 4 GB each.
        m.set(
            "bench.working_set_share",
            DATASET_GB * 1e9 / (ServerlessConfig::default().memory_gb * 1e9 * f64::from(WORKERS)),
        );
        Vec::new()
    }
}
