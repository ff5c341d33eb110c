//! KMeans clustering (the paper's compute-intensive workload).

use std::sync::Arc;

use flint_engine::{AggKernel, Driver, MapKernel, Result, Value};
use flint_simtime::rng::stream;
use rand::Rng;

use crate::{f64_bits, fold_checksum, Workload, WorkloadConfig, WorkloadSummary};

/// Lloyd's KMeans over a Gaussian mixture, structured like MLlib's
/// DenseKMeans: a persisted points RDD; each iteration assigns points to
/// the nearest centroid in a CPU-heavy `map_partitions` (narrow), then
/// one shuffle aggregates per-cluster sums, and the driver updates the
/// centroids.
#[derive(Debug, Clone)]
pub struct KMeans {
    cfg: WorkloadConfig,
    /// Number of clusters.
    pub(crate) k: u32,
    /// Point dimensionality.
    pub(crate) dim: u32,
    points_count: u32,
}

impl KMeans {
    /// Creates the workload (≈600 points per logical GB, 16-dimensional).
    pub fn new(cfg: WorkloadConfig) -> Self {
        KMeans {
            cfg,
            k: 10,
            dim: 16,
            points_count: ((cfg.dataset_gb * 600.0).round() as u32).max(200),
        }
    }

    /// The paper's 16 GB configuration.
    pub fn paper_scale() -> Self {
        KMeans::new(WorkloadConfig {
            dataset_gb: 16.0,
            partitions: 20,
            iterations: 6,
            seed: 42,
        })
    }

    /// The well-separated ground-truth centers points jitter around.
    pub(crate) fn true_centers(k: u32, dim: u32) -> Vec<Vec<f64>> {
        (0..k)
            .map(|c| {
                let mut rng = stream(0xC3A5, &format!("center{c}"));
                (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect()
            })
            .collect()
    }

    fn points(&self) -> Vec<Value> {
        let mut rng = stream(self.cfg.seed, "kmeans-points");
        let k = self.k as usize;
        let centers = Self::true_centers(self.k, self.dim);
        (0..self.points_count)
            .map(|i| {
                let c = &centers[(i as usize) % k];
                let p: Vec<f64> = c.iter().map(|x| x + rng.gen_range(-0.5..0.5)).collect();
                Value::vector(p)
            })
            .collect()
    }

    fn real_bytes(&self) -> u64 {
        u64::from(self.points_count) * (24 + 8 * u64::from(self.dim))
    }

    /// Runs KMeans and returns the final centroids.
    pub(crate) fn run_centroids(&self, driver: &mut Driver) -> Result<Vec<Vec<f64>>> {
        let parts = self.cfg.partitions;
        let points = driver.ctx().parallelize(self.points(), parts);
        driver.ctx().persist(points);

        // Initial centroids: the first k points (deterministic).
        let init = driver.take(points, self.k as usize)?;
        let mut centroids: Vec<Vec<f64>> = init
            .iter()
            .filter_map(|v| v.as_vector().map(<[f64]>::to_vec))
            .collect();

        // Distance evaluation costs ~k·dim flops per point-byte; reflect
        // that in the charged compute intensity.
        let assign_cost = f64::from(self.k * self.dim) / 4.0;

        for _ in 0..self.cfg.iterations {
            // The CPU-heavy assignment runs as a vectorized
            // nearest-center kernel over the point columns when columnar
            // execution is on; its row fallback replays the same
            // distance loop point by point.
            let assigned = driver.ctx().map_partitions_kernel(
                points,
                assign_cost,
                MapKernel::NearestCenter {
                    centers: Arc::new(centroids.clone()),
                },
            );
            let sums = driver
                .ctx()
                .reduce_by_key_kernel(assigned, self.k, AggKernel::VecSumCount);
            let collected = driver.collect(sums)?;
            for v in collected {
                let Some((k, payload)) = v.into_pair() else {
                    continue;
                };
                let Some(idx) = k.as_i64() else { continue };
                let Some(list) = payload.as_list() else {
                    continue;
                };
                let (Some(sum), Some(n)) = (list[0].as_vector(), list[1].as_i64()) else {
                    continue;
                };
                if n > 0 {
                    centroids[idx as usize] = sum.iter().map(|x| x / n as f64).collect();
                }
            }
        }
        Ok(centroids)
    }
}

impl Workload for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn run(&self, driver: &mut Driver) -> Result<WorkloadSummary> {
        let centroids = self.run_centroids(driver)?;
        let checksum = centroids
            .iter()
            .flatten()
            .fold(0u64, |acc, x| fold_checksum(acc, f64_bits(*x)));
        Ok(WorkloadSummary {
            name: self.name().into(),
            checksum,
            records: centroids.len() as u64,
        })
    }

    fn recommended_size_scale(&self) -> f64 {
        self.cfg.dataset_gb * 1e9 / self.real_bytes().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KMeans {
        KMeans::new(WorkloadConfig {
            dataset_gb: 1.0,
            partitions: 4,
            iterations: 4,
            seed: 3,
        })
    }

    #[test]
    fn centroids_converge_to_lattice_centers() {
        let wl = small();
        let mut d = Driver::local(4);
        let cents = wl.run_centroids(&mut d).unwrap();
        assert_eq!(cents.len(), 10);
        // Each learned centroid should be close to SOME ground-truth
        // center (within the ±0.5 jitter).
        let truth = KMeans::true_centers(10, 16);
        let mut matched = 0;
        for c in &cents {
            let best: f64 = truth
                .iter()
                .map(|t| {
                    t.iter()
                        .zip(c)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            if best < 1.5 {
                matched += 1;
            }
        }
        assert!(matched >= 8, "only {matched}/10 centroids converged");
    }

    #[test]
    fn deterministic_checksum() {
        let wl = small();
        let mut d1 = Driver::local(3);
        let mut d2 = Driver::local(5);
        assert_eq!(
            wl.run(&mut d1).unwrap().checksum,
            wl.run(&mut d2).unwrap().checksum
        );
    }

    #[test]
    fn compute_heavy_cost_factor_dominates_runtime() {
        // The same dataset with a trivial map should finish much faster
        // than the KMeans assignment stage, because of the cost factor.
        let wl = small();
        let mut cfg = flint_engine::DriverConfig::default();
        cfg.cost.size_scale = wl.recommended_size_scale();
        let mut d = Driver::new(
            cfg,
            Box::new(flint_engine::NoCheckpoint),
            Box::new(flint_engine::NoFailures),
        );
        for _ in 0..4 {
            d.add_worker(flint_engine::WorkerSpec::r3_large());
        }
        let _ = wl.run(&mut d).unwrap();
        let kmeans_compute = d.stats().compute_time;
        assert!(
            kmeans_compute.as_secs_f64() > 60.0,
            "assignment stages should dominate: {kmeans_compute}"
        );
    }
}
