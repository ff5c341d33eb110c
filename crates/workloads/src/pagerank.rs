//! PageRank over a power-law web graph (the paper's graph workload).

use flint_engine::{
    AggKernel, Driver, FlatMapKernel, KeyExpr, MapKernel, NumExpr, PayloadExpr, Result, ScalarExpr,
    Value,
};

use crate::graph::{power_law_graph, GraphConfig};
use crate::{f64_bits, fold_checksum, Workload, WorkloadConfig, WorkloadSummary};

/// Iterative PageRank, structured exactly like the canonical Spark
/// implementation: a persisted `links` RDD joined with the evolving
/// `ranks` RDD each iteration, contributions shuffled by destination.
///
/// This is the paper's checkpoint-friendliest workload: every iteration
/// pushes the lineage frontier forward through two shuffles, so
/// recomputation without checkpoints cascades to the source (Fig. 8a).
///
/// # Examples
///
/// ```
/// use flint_engine::Driver;
/// use flint_workloads::{PageRank, Workload, WorkloadConfig};
///
/// let wl = PageRank::new(WorkloadConfig {
///     dataset_gb: 2.0,
///     partitions: 4,
///     iterations: 2,
///     seed: 1,
/// });
/// let mut driver = Driver::local(4);
/// let summary = wl.run(&mut driver).unwrap();
/// assert!(summary.records > 0);
/// ```
#[derive(Debug, Clone)]
pub struct PageRank {
    cfg: WorkloadConfig,
    graph: GraphConfig,
}

impl PageRank {
    /// Creates the workload; graph size follows `cfg.dataset_gb`
    /// (~1000 vertices per logical GB keeps in-process data tiny while
    /// the scale factor restores paper-sized virtual bytes).
    pub fn new(cfg: WorkloadConfig) -> Self {
        let nodes = ((cfg.dataset_gb * 1000.0).round() as u32).max(100);
        PageRank {
            cfg,
            graph: GraphConfig {
                nodes,
                avg_degree: 16,
                seed: cfg.seed,
            },
        }
    }

    /// The paper's 2 GB LiveJournal-equivalent configuration.
    pub fn paper_scale() -> Self {
        PageRank::new(WorkloadConfig {
            dataset_gb: 2.0,
            partitions: 20,
            iterations: 10,
            seed: 42,
        })
    }

    fn adjacency_values(&self) -> Vec<Value> {
        power_law_graph(&self.graph)
            .into_iter()
            .map(|(src, dsts)| {
                Value::pair(
                    Value::Int(i64::from(src)),
                    Value::list(dsts.into_iter().map(|d| Value::Int(i64::from(d))).collect()),
                )
            })
            .collect()
    }

    fn real_bytes(&self) -> u64 {
        self.adjacency_values().iter().map(Value::size_bytes).sum()
    }

    /// Runs PageRank and returns the final ranks.
    pub(crate) fn run_ranks(&self, driver: &mut Driver) -> Result<Vec<(i64, f64)>> {
        let parts = self.cfg.partitions;
        let links = driver.ctx().parallelize(self.adjacency_values(), parts);
        driver.ctx().persist(links);

        let mut ranks = driver.ctx().map_kernel(
            links,
            MapKernel::Pair {
                key: KeyExpr::PairKey,
                val: PayloadExpr::Scalar(ScalarExpr::Num(NumExpr::Lit(1.0))),
            },
        );
        driver.ctx().persist(ranks);

        for _ in 0..self.cfg.iterations {
            // GraphX-style tight loop: cogroup links with ranks and emit
            // contributions directly, with no intermediate join RDD.
            let grouped = driver.ctx().cogroup(links, ranks, parts);
            // (node, [[dsts...], [rank]]) → (dst, rank / |dsts|) per dst,
            // built as one Int/Float pair batch when columnar is on.
            let contribs = driver
                .ctx()
                .flat_map_kernel(grouped, FlatMapKernel::ShareOverFirstList);
            let summed = driver
                .ctx()
                .reduce_by_key_kernel(contribs, parts, AggKernel::SumFloat);
            // rank' = 0.15 + 0.85 * Σ contributions, vectorized over the
            // summed pair columns.
            ranks = driver.ctx().map_kernel(
                summed,
                MapKernel::Pair {
                    key: KeyExpr::PairKey,
                    val: PayloadExpr::Scalar(ScalarExpr::Num(NumExpr::Add(
                        Box::new(NumExpr::Lit(0.15)),
                        Box::new(NumExpr::Mul(
                            Box::new(NumExpr::Lit(0.85)),
                            Box::new(NumExpr::Input),
                        )),
                    ))),
                },
            );
            driver.ctx().persist(ranks);
        }

        let out = driver.collect(ranks)?;
        let mut ranks: Vec<(i64, f64)> = out
            .into_iter()
            .filter_map(|v| {
                let (k, r) = v.into_pair()?;
                Some((k.as_i64()?, r.as_f64()?))
            })
            .collect();
        ranks.sort_by_key(|(k, _)| *k);
        Ok(ranks)
    }
}

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn run(&self, driver: &mut Driver) -> Result<WorkloadSummary> {
        let ranks = self.run_ranks(driver)?;
        let checksum = ranks.iter().fold(0u64, |acc, (k, r)| {
            fold_checksum(acc, *k as u64 ^ f64_bits(*r))
        });
        Ok(WorkloadSummary {
            name: self.name().into(),
            checksum,
            records: ranks.len() as u64,
        })
    }

    fn recommended_size_scale(&self) -> f64 {
        let real = self.real_bytes().max(1) as f64;
        self.cfg.dataset_gb * 1e9 / real
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_engine::{DriverConfig, NoCheckpoint, ScriptedInjector, WorkerEvent, WorkerSpec};
    use flint_simtime::SimTime;

    fn small() -> PageRank {
        PageRank::new(WorkloadConfig {
            dataset_gb: 0.3,
            partitions: 4,
            iterations: 3,
            seed: 5,
        })
    }

    #[test]
    fn ranks_form_probability_like_distribution() {
        let wl = small();
        let mut d = Driver::local(4);
        let ranks = wl.run_ranks(&mut d).unwrap();
        assert!(ranks.len() as u32 >= 200);
        // All ranks at least the damping floor; total near node count.
        assert!(ranks.iter().all(|(_, r)| *r >= 0.15));
        let total: f64 = ranks.iter().map(|(_, r)| r).sum();
        let n = ranks.len() as f64;
        assert!(
            (total / n - 1.0).abs() < 0.5,
            "mean rank {:.3} should be near 1",
            total / n
        );
    }

    #[test]
    fn deterministic_across_drivers() {
        let wl = small();
        let mut d1 = Driver::local(4);
        let mut d2 = Driver::local(2);
        let s1 = wl.run(&mut d1).unwrap();
        let s2 = wl.run(&mut d2).unwrap();
        assert_eq!(
            s1.checksum, s2.checksum,
            "partitioning must not change results"
        );
    }

    #[test]
    fn identical_results_under_revocation() {
        let wl = small();
        let mut clean = Driver::local(4);
        let golden = wl.run(&mut clean).unwrap();

        // Time the failure-free run at the same scale, then strike at
        // the midpoint.
        let mut cfg = DriverConfig::default();
        cfg.cost.size_scale = wl.recommended_size_scale();
        let mut timing = Driver::new(
            cfg.clone(),
            Box::new(NoCheckpoint),
            Box::new(flint_engine::NoFailures),
        );
        for ext in 1..=4u64 {
            timing.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        let _ = wl.run(&mut timing).unwrap();
        let mid = SimTime::ZERO + timing.now().since_epoch() / 2;

        let mut d = Driver::new(
            cfg,
            Box::new(NoCheckpoint),
            Box::new(ScriptedInjector::new(vec![
                (mid, WorkerEvent::Remove { ext_id: 1 }),
                (mid, WorkerEvent::Remove { ext_id: 2 }),
            ])),
        );
        for ext in 1..=4u64 {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        let got = wl.run(&mut d).unwrap();
        assert_eq!(got.checksum, golden.checksum);
        assert!(d.stats().revocations >= 1);
        assert!(d.stats().recompute_time > flint_simtime::SimDuration::ZERO);
    }

    #[test]
    fn scale_factor_restores_paper_size() {
        let wl = PageRank::paper_scale();
        let scale = wl.recommended_size_scale();
        let virtual_gb = wl.real_bytes() as f64 * scale / 1e9;
        assert!(
            (virtual_gb - 2.0).abs() < 0.01,
            "virtual size {virtual_gb} GB"
        );
    }
}
