//! `mc_week` — the `flint mc` campaign path. An op is one campaign
//! *cell*: a 168 h job on 1 000 workers over one synthetic catalog,
//! simulated three ways in fixed order — memoryless hazard, age-aware
//! capped-lifetime hazard, and memoryless again with the product trace
//! streaming JSONL. `flint-market` (`CloudSim`, `PriceTrace`),
//! `flint-core` (`NodeManager`, selection, hazard refit), `flint-model`
//! and, on the third, `flint-trace` encoding do all the work; the
//! engine executor does none, so an engine change must not move this
//! workload and a `CloudSim` index change must.
//!
//! Catalogs come from the seed, but only those on which the batch
//! policy stays on spot for the whole week (checked by a 4-worker pilot
//! run in set-up). When the policy escapes to on-demand the simulator
//! goes quiet and the cell takes a tenth of the time: a mix of the two
//! regimes made the median depend on the seed more than on the code.

use std::time::Instant;

use flint::engine::TraceHandle;
use flint::market::{HazardSpec, MarketCatalog};
use flint::model::{catalog_with_mttf, run_mc, run_mc_traced, McConfig, McResult, PolicyKind};
use flint::simtime::rng::derive_seed;
use flint::simtime::SimDuration;

use super::{Bench, Fnv, OpOutcome, RunCfg, TraceMode};
use crate::host::{median, Spans};
use crate::metrics::Metrics;
use crate::probes;

pub const WORKERS: u32 = 1_000;
const JOB_HOURS: u64 = 168;
const HORIZON_DAYS: u64 = 120;
const TARGET_MTTF_HOURS: f64 = 2.0;
/// Catalogs (cells) in one pass of the op list.
const CELLS: usize = 12;
/// All-spot runs cost ~0.09 of on-demand; a run that escaped sits well
/// above 0.25.
const PILOT_MAX_UNIT_COST: f64 = 0.12;
const PILOT_WORKERS: u32 = 4;

pub fn mc_config(n_workers: u32, age_aware: bool) -> McConfig {
    let mut cfg = McConfig {
        job_length: SimDuration::from_hours(JOB_HOURS),
        n_workers,
        policy: PolicyKind::FlintBatch,
        ..McConfig::default()
    };
    if age_aware {
        cfg.selection.hazard = HazardSpec::CappedLifetime {
            early_prob: 0.1,
            cap_hours: 24.0,
        };
    }
    cfg
}

pub struct McWeek {
    catalogs: Vec<MarketCatalog>,
    warmup_op_s: f64,
    mode: TraceMode,
    done: Accounting,
}

/// Totals over the ops run since the trace mode was last set.
#[derive(Default)]
struct Accounting {
    cost_usd: f64,
    cluster_hours: f64,
    op_s_total: f64,
}

fn digest(results: &[McResult]) -> u64 {
    results
        .iter()
        .fold(Fnv::new(), |h, r| h.eat(format!("{r:?}").as_bytes()))
        .0
}

impl McWeek {
    pub fn setup(cfg: &RunCfg, spans: &mut Spans) -> Result<Self, String> {
        let want = cfg.list_len(CELLS);
        let mut catalogs = Vec::with_capacity(want);
        let pilot = mc_config(PILOT_WORKERS, false);
        for candidate in 0..64 * want as u64 {
            if catalogs.len() == want {
                break;
            }
            let s = spans.enter("market.catalog_gen");
            let catalog = catalog_with_mttf(
                derive_seed(cfg.seed, &format!("mc-catalog-{candidate}")),
                SimDuration::from_days(HORIZON_DAYS),
                TARGET_MTTF_HOURS,
            );
            spans.exit(s);
            let s = spans.enter("setup.pilot_run");
            let stays_on_spot = run_mc(&catalog, &pilot).unit_cost() < PILOT_MAX_UNIT_COST;
            spans.exit(s);
            if stays_on_spot {
                catalogs.push(catalog);
            }
        }
        if catalogs.len() < want {
            return Err(format!(
                "only {} of {want} catalogs kept the batch policy on spot",
                catalogs.len()
            ));
        }
        let mut this = McWeek {
            catalogs,
            warmup_op_s: 0.0,
            mode: TraceMode::Jsonl,
            done: Accounting::default(),
        };
        if !cfg.quick {
            let s = spans.enter("setup.warmup_op");
            let t = Instant::now();
            this.run_op(0, &mut Spans::new(false));
            this.warmup_op_s = t.elapsed().as_secs_f64();
            spans.exit(s);
            this.done = Accounting::default();
        }
        Ok(this)
    }
}

impl Bench for McWeek {
    fn list_len(&self) -> usize {
        self.catalogs.len()
    }

    fn default_trace(&self) -> TraceMode {
        TraceMode::Jsonl
    }

    fn set_trace(&mut self, mode: TraceMode) {
        self.mode = mode;
        self.done = Accounting::default();
    }

    fn expected_op_s(&self) -> f64 {
        self.warmup_op_s
    }

    fn run_op(&mut self, i: usize, spans: &mut Spans) -> OpOutcome {
        let t = Instant::now();
        let catalog = &self.catalogs[i % self.catalogs.len()];
        let s = spans.enter("model.run_mc.memoryless");
        let memoryless = run_mc(catalog, &mc_config(WORKERS, false));
        spans.exit(s);
        let s = spans.enter("model.run_mc.hazard");
        let hazard = run_mc(catalog, &mc_config(WORKERS, true));
        spans.exit(s);
        let s = spans.enter("model.run_mc.traced");
        let handle: TraceHandle = self.mode.handle();
        let traced = run_mc_traced(catalog, &mc_config(WORKERS, false), handle);
        spans.exit(s);

        let results = [memoryless, hazard];
        self.done.cost_usd +=
            results.iter().map(McResult::total_cost).sum::<f64>() + traced.total_cost();
        let hours: f64 = results
            .iter()
            .map(|r| r.runtime.as_hours_f64())
            .sum::<f64>()
            + traced.runtime.as_hours_f64();
        self.done.cluster_hours += f64::from(WORKERS) * hours;
        self.done.op_s_total += t.elapsed().as_secs_f64();
        if traced != results[0] {
            return OpOutcome::failed("traced run differs from the untraced run");
        }
        OpOutcome {
            failure: None,
            digest: digest(&results),
            virtual_s: hours * 3600.0,
        }
    }

    fn cost_usd(&mut self, _spans: &mut Spans) -> f64 {
        self.done.cost_usd
    }

    fn layer_probes(&mut self, spans: &mut Spans, m: &mut Metrics) {
        let s = spans.enter("probes.market");
        probes::market(&self.catalogs[0], m);
        probes::selection(&self.catalogs[0], WORKERS, m);
        probes::cloud(&self.catalogs[0], m);
        spans.exit(s);
        let s = spans.enter("probes.campaign");
        probes::campaign_jobs2(&self.catalogs[0], m);
        spans.exit(s);
    }

    fn teardown(self: Box<Self>, spans: &mut Spans, m: &mut Metrics) -> Vec<String> {
        for (name, span) in [
            ("model.mc_memoryless_ms_p50", "model.run_mc.memoryless"),
            ("model.mc_hazard_ms_p50", "model.run_mc.hazard"),
            ("model.mc_traced_ms_p50", "model.run_mc.traced"),
            ("market.catalog_gen_ms", "market.catalog_gen"),
        ] {
            m.set(name, median(&spans.durations_ms(span)));
        }
        m.set(
            "model.wall_ms_per_cluster_hour",
            self.done.op_s_total * 1e3 / self.done.cluster_hours.max(1e-9),
        );
        m.set(
            "model.sim_cluster_hours_per_s",
            self.done.cluster_hours / self.done.op_s_total.max(1e-9),
        );
        m.set("core.virtual_cost_usd", self.done.cost_usd);
        // The canonical program's working set is the 4 GB it checkpoints.
        let cache = flint::engine::WorkerSpec::r3_large().cache_mem_bytes * u64::from(WORKERS);
        m.set(
            "bench.working_set_share",
            McConfig::default().checkpoint_bytes as f64 / cache as f64,
        );
        Vec::new()
    }
}
