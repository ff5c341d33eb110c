//! Parallel seed campaigns: fan Monte-Carlo seeds across scoped host
//! threads, then merge reports in fixed seed order.
//!
//! The fan-out is [`fan_out`], which also runs the engine's task waves:
//! worker threads pull indices from a shared atomic cursor and compute
//! independent, deterministic runs; results are committed back in
//! input order. Parallelism therefore only changes wall time — every
//! per-seed result, trace, and the merged report are byte-identical
//! to a sequential (`jobs == 1`) campaign.

use flint_market::MarketCatalog;
use flint_simtime::{fan_out, SimDuration};

use crate::{run_mc, McConfig, McResult};

/// Offset added to `base.start` per successive seed, so runs on the same
/// price traces decorrelate (spot revocations are a function of the
/// trace, not the cloud seed).
const START_STRIDE: SimDuration = SimDuration::from_hours(6);

/// A seed campaign over [`run_mc`]: the same base configuration
/// replayed under many seeds (and staggered trace offsets), merged
/// into one report.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Per-run configuration; `seed` and `start` are overridden per
    /// seed.
    pub(crate) base: McConfig,
    /// The seeds to run, in report order.
    pub seeds: Vec<u64>,
    /// Maximum host threads computing seeds concurrently.
    pub(crate) jobs: usize,
}

impl CampaignConfig {
    /// A campaign of `runs` consecutive seeds starting at `base.seed`,
    /// staggered by six simulated hours per run.
    pub fn consecutive(base: McConfig, runs: u64, jobs: usize) -> Self {
        let first = base.seed;
        CampaignConfig {
            base,
            seeds: (0..runs).map(|r| first.wrapping_add(r)).collect(),
            jobs,
        }
    }

    /// The per-seed configuration for position `idx` in the campaign.
    pub fn cfg_for(&self, idx: usize) -> McConfig {
        McConfig {
            seed: self.seeds[idx],
            start: self.base.start + START_STRIDE * idx as u64,
            ..self.base.clone()
        }
    }
}

/// Merged outcome of a seed campaign, in seed order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// `(seed, result)` per run, in the campaign's seed order.
    pub(crate) runs: Vec<(u64, McResult)>,
}

impl CampaignReport {
    /// Mean unit cost across runs (on-demand = 1.0).
    pub(crate) fn mean_unit_cost(&self) -> f64 {
        self.fold_mean(|r| r.unit_cost())
    }

    /// Mean runtime-increase fraction versus the failure-free job.
    pub(crate) fn mean_runtime_increase(&self) -> f64 {
        self.fold_mean(|r| r.runtime_increase_frac(r.job_length))
    }

    /// Total servers revoked across all runs.
    pub(crate) fn servers_revoked(&self) -> u64 {
        self.runs
            .iter()
            .map(|(_, r)| u64::from(r.servers_revoked))
            .sum()
    }

    /// Folds `f` over the runs in seed order and divides by the run
    /// count — one fixed summation order, so the aggregate is the same
    /// bit pattern however the runs were scheduled.
    fn fold_mean(&self, f: impl Fn(&McResult) -> f64) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.runs.iter().map(|(_, r)| f(r)).sum();
        sum / self.runs.len() as f64
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (seed, r) in &self.runs {
            writeln!(
                f,
                "seed {seed:<8}: runtime {:<12} unit {:.3} revs {:>4}/{:<4} stall {:.1}%",
                r.runtime.to_string(),
                r.unit_cost(),
                r.revocation_events,
                r.servers_revoked,
                r.stall_fraction * 100.0
            )?;
        }
        writeln!(
            f,
            "campaign      : {} run(s), mean unit cost {:.3}, mean runtime \
             increase {:+.1}%, {} server(s) revoked",
            self.runs.len(),
            self.mean_unit_cost(),
            self.mean_runtime_increase() * 100.0,
            self.servers_revoked()
        )
    }
}

/// Runs the campaign: seeds fan out over `cfg.jobs` scoped threads and
/// merge into a seed-ordered [`CampaignReport`]. Byte-identical for
/// any `jobs` value.
pub fn run_mc_campaign(catalog: &MarketCatalog, cfg: &CampaignConfig) -> CampaignReport {
    let indices: Vec<usize> = (0..cfg.seeds.len()).collect();
    let results = fan_out(cfg.jobs, &indices, |&i| run_mc(catalog, &cfg.cfg_for(i)));
    CampaignReport {
        runs: cfg.seeds.iter().copied().zip(results).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog_with_mttf;
    use flint_simtime::SimDuration;

    /// A campaign's seed order is the fan-out's commit order.
    #[test]
    fn fan_out_preserves_input_order() {
        let items: Vec<u64> = (0..40).collect();
        let seq = fan_out(1, &items, |&x| x * 3);
        let par = fan_out(8, &items, |&x| x * 3);
        assert_eq!(seq, par);
        assert_eq!(seq, (0..40).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn campaign_report_identical_across_jobs() {
        let cat = catalog_with_mttf(11, SimDuration::from_days(60), 4.0);
        let base = McConfig {
            job_length: SimDuration::from_hours(6),
            n_workers: 4,
            ..McConfig::default()
        };
        let mk = |jobs| CampaignConfig::consecutive(base.clone(), 5, jobs);
        let seq = run_mc_campaign(&cat, &mk(1));
        let par = run_mc_campaign(&cat, &mk(8));
        assert_eq!(seq, par);
        assert_eq!(seq.to_string(), par.to_string());
        assert_eq!(seq.runs.len(), 5);
    }
}
