//! `pagerank_revoked` — a batch iterative job under revocations: a plain
//! `Driver`, one full PageRank job per op, each under its own seeded
//! chaos schedule (worker revocations, mass revocations, a degraded
//! checkpoint store). The same engine used differently from
//! `tpch_session`: the row-closure `cogroup`/`flat_map` path instead of
//! kernels, checkpoint *writes* and restores beside cache reads, lineage
//! recompute, sequential commit — so a columnar or read-path gain that
//! costs the recovery/write path shows here.

use std::time::Instant;

use flint::core::FlintCheckpointPolicy;
use flint::engine::{
    ChaosConfig, ChaosInjector, ChaosSchedule, Driver, DriverConfig, NoCheckpoint, NoFailures,
    RunStats, WorkerSpec,
};
use flint::simtime::rng::derive_seed;
use flint::simtime::SimDuration;
use flint::workloads::{PageRank, Workload, WorkloadConfig, WorkloadSummary};

use super::{Bench, Fnv, OpOutcome, RunCfg, TraceMode};
use crate::host::{median, Spans};
use crate::metrics::Metrics;
use crate::probes;

/// Sized well under the host-time cliff (`--gb 60` takes 5 s a job,
/// `--gb 80` more than 300 s); do not raise.
const DATASET_GB: f64 = 10.0;
const PARTITIONS: u32 = 20;
const ITERATIONS: u32 = 5;
const WORKERS: u32 = 8;
/// Fault schedules in one pass of the op list.
const SCHEDULES: usize = 12;
/// The MTTF Flint's adaptive checkpoint policy is told to expect. A
/// job lasts about eight virtual minutes, so a quarter of an hour makes
/// the policy write checkpoints within every job; with eight
/// revocations a job about two ops in five also restore from them.
const POLICY_MTTF: SimDuration = SimDuration::from_mins(15);
const REVOCATIONS: u32 = 8;

pub struct PagerankRevoked {
    seed: u64,
    wl: PageRank,
    driver_cfg: DriverConfig,
    /// The fault-free twin: every op must reproduce its digest.
    twin: WorkloadSummary,
    twin_runtime: SimDuration,
    schedules: usize,
    warmup_op_s: f64,
    mode: TraceMode,
    done: Accounting,
}

/// The product's own accounting, summed over the ops run since the
/// trace mode was last set.
#[derive(Default)]
struct Accounting {
    stats: RunStats,
    waves: u64,
    typed_errors: u64,
    /// Injected faults: all, plain revocations, mass revocations, outages.
    faults: [u64; 4],
    op_ms_total: f64,
}

fn workers(d: &mut Driver) {
    for ext in 1..=u64::from(WORKERS) {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
}

impl PagerankRevoked {
    pub fn setup(cfg: &RunCfg, spans: &mut Spans) -> Result<Self, String> {
        let wl = PageRank::new(WorkloadConfig {
            dataset_gb: DATASET_GB,
            partitions: PARTITIONS,
            iterations: ITERATIONS,
            seed: cfg.seed,
        });
        let driver_cfg = DriverConfig::builder()
            .host_threads(1)
            .size_scale(wl.recommended_size_scale())
            .build();

        let s = spans.enter("setup.fault_free_twin");
        let mut d = Driver::new(
            driver_cfg.clone(),
            Box::new(NoCheckpoint),
            Box::new(NoFailures),
        );
        workers(&mut d);
        let twin = wl
            .run(&mut d)
            .map_err(|e| format!("fault-free twin: {e}"))?;
        let twin_runtime = d.now().since_epoch();
        spans.exit(s);

        let mut this = PagerankRevoked {
            seed: cfg.seed,
            wl,
            driver_cfg,
            twin,
            twin_runtime,
            schedules: cfg.list_len(SCHEDULES),
            warmup_op_s: 0.0,
            mode: TraceMode::Off,
            done: Accounting::default(),
        };
        if !cfg.quick {
            let s = spans.enter("setup.warmup_op");
            let t = Instant::now();
            // A schedule outside the op list, so no op is pre-warmed.
            this.run_schedule(usize::MAX, &mut Spans::new(false));
            this.warmup_op_s = t.elapsed().as_secs_f64();
            spans.exit(s);
            this.done = Accounting::default();
        }
        Ok(this)
    }

    fn chaos(&self, entry: usize) -> ChaosConfig {
        let mut c = ChaosConfig::new(derive_seed(self.seed, &format!("pagerank-chaos-{entry}")));
        c.n_workers = WORKERS;
        c.horizon = self.twin_runtime.max(SimDuration::from_mins(1));
        c.revocations = REVOCATIONS;
        // Two zones of four: a mass revocation takes out half the cluster.
        c.groups = vec![(1..=4).collect(), (5..=8).collect()];
        // Faults in play: revoke + mass + store. Flapping workers and
        // late replacements stay out.
        c.flap_prob = 0.0;
        c.delayed_frac = 0.0;
        c
    }

    fn run_schedule(&mut self, entry: usize, spans: &mut Spans) -> OpOutcome {
        let t = Instant::now();
        let chaos = self.chaos(entry);
        let s = spans.enter("engine.chaos.schedule_gen");
        let schedule = ChaosSchedule::generate(&chaos);
        spans.exit(s);
        for (_, kind, _) in &schedule.notes {
            self.done.faults[0] += 1;
            match kind.as_str() {
                "revoke_warned" | "revoke_unwarned" => self.done.faults[1] += 1,
                "mass_revoke" => self.done.faults[2] += 1,
                "store_outage" => self.done.faults[3] += 1,
                _ => {}
            }
        }

        let s = spans.enter("engine.driver_build");
        let store_faults = schedule.store_faults(&chaos);
        let mut d = Driver::new(
            self.driver_cfg.clone(),
            Box::new(FlintCheckpointPolicy::with_mttf(POLICY_MTTF)),
            Box::new(ChaosInjector::from_schedule(schedule)),
        );
        d.set_trace(self.mode.handle());
        d.checkpoints_mut().set_fault_policy(Box::new(store_faults));
        workers(&mut d);
        spans.exit(s);

        let s = spans.enter("workloads.pagerank.run");
        let result = self.wl.run(&mut d);
        spans.exit(s);
        d.trace().flush();

        probes::add_stats(&mut self.done.stats, d.stats());
        self.done.waves += d.waves_committed();
        self.done.op_ms_total += t.elapsed().as_secs_f64() * 1e3;
        match result {
            Err(e) => {
                self.done.typed_errors += 1;
                OpOutcome::failed(format!("typed error: {e}"))
            }
            Ok(sum) if sum.checksum != self.twin.checksum || sum.records != self.twin.records => {
                OpOutcome::failed(format!(
                    "wrong data: checksum {:#018x} / {} records, twin {:#018x} / {}",
                    sum.checksum, sum.records, self.twin.checksum, self.twin.records
                ))
            }
            Ok(sum) => OpOutcome {
                failure: None,
                digest: Fnv::new().eat_u64(sum.checksum).eat_u64(sum.records).0,
                virtual_s: d.now().since_epoch().as_secs_f64(),
            },
        }
    }
}

impl Bench for PagerankRevoked {
    fn list_len(&self) -> usize {
        self.schedules
    }

    fn default_trace(&self) -> TraceMode {
        TraceMode::Off
    }

    fn set_trace(&mut self, mode: TraceMode) {
        self.mode = mode;
        self.done = Accounting::default();
    }

    fn expected_op_s(&self) -> f64 {
        self.warmup_op_s
    }

    fn run_op(&mut self, i: usize, spans: &mut Spans) -> OpOutcome {
        self.run_schedule(i % self.schedules, spans)
    }

    fn cost_usd(&mut self, _spans: &mut Spans) -> f64 {
        // A plain `Driver` has no market and bills nothing.
        0.0
    }

    fn layer_probes(&mut self, spans: &mut Spans, m: &mut Metrics) {
        let s = spans.enter("probes.engine");
        probes::pagerank_data_paths(self.seed, DATASET_GB, PARTITIONS, m);
        spans.exit(s);
    }

    fn teardown(self: Box<Self>, spans: &mut Spans, m: &mut Metrics) -> Vec<String> {
        probes::run_stats(&self.done.stats, self.done.waves, m);
        m.set("engine.typed_errors", self.done.typed_errors as f64);
        m.set(
            "engine.host_us_per_task",
            self.done.op_ms_total * 1e3 / self.done.stats.tasks_run.max(1) as f64,
        );
        m.set(
            "engine.host_us_per_wave",
            self.done.op_ms_total * 1e3 / self.done.waves.max(1) as f64,
        );
        m.set(
            "engine.chaos.schedule_gen_ms",
            median(&spans.durations_ms("engine.chaos.schedule_gen")),
        );
        for (name, count) in [
            "engine.chaos.faults_injected",
            "engine.chaos.faults_revoke",
            "engine.chaos.faults_mass_revoke",
            "engine.chaos.faults_store_outage",
        ]
        .into_iter()
        .zip(self.done.faults)
        {
            m.set(name, count as f64);
        }
        // Cluster memory is what the eight workers cache between them.
        let capacity = WorkerSpec::r3_large().cache_mem_bytes * u64::from(WORKERS);
        m.set(
            "bench.working_set_share",
            DATASET_GB * 1e9 / capacity.max(1) as f64,
        );
        let mut gaps = Vec::new();
        if self.done.stats.checkpoints_written == 0 {
            gaps.push("no checkpoint was written under any schedule".to_string());
        }
        if self.done.stats.restores == 0 {
            gaps.push("no partition was restored from a checkpoint under any schedule".to_string());
        }
        gaps
    }
}
