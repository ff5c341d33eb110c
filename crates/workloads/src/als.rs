//! Alternating least squares (the paper's shuffle-intensive ML workload).

use flint_engine::{Driver, RddRef, Result, Value};
use flint_simtime::rng::stream;
use rand::Rng;

use crate::{f64_bits, fold_checksum, Workload, WorkloadConfig, WorkloadSummary};

/// ALS matrix factorization in the MovieLensALS shape: a persisted
/// ratings RDD keyed both ways, with each half-iteration joining ratings
/// against the opposite side's factors, shuffling contributions by
/// entity, and solving per-entity updates in a CPU-heavy reducer.
///
/// The per-entity solve is simplified to a regularized weighted average
/// of the counterpart factors (not a true normal-equations solve); the
/// data movement, lineage shape (two shuffles per half-iteration), and
/// compute intensity — which are what Flint's policies react to — match
/// the paper's description of ALS as "more shuffle-intensive [than
/// KMeans], where each transformation takes more time".
#[derive(Debug, Clone)]
pub struct Als {
    cfg: WorkloadConfig,
    /// Latent factor rank.
    pub(crate) rank: u32,
    users: u32,
    items: u32,
    ratings_count: u32,
}

impl Als {
    /// Creates the workload (~400 ratings per logical GB).
    pub fn new(cfg: WorkloadConfig) -> Self {
        let ratings = ((cfg.dataset_gb * 400.0).round() as u32).max(200);
        Als {
            cfg,
            rank: 8,
            users: (ratings / 8).max(10),
            items: (ratings / 16).max(10),
            ratings_count: ratings,
        }
    }

    /// The paper's 10 GB MovieLens-style configuration.
    pub fn paper_scale() -> Self {
        Als::new(WorkloadConfig {
            dataset_gb: 10.0,
            partitions: 20,
            iterations: 5,
            seed: 42,
        })
    }

    /// Ratings as `(user, (item, rating))` triples.
    fn ratings(&self) -> Vec<(i64, i64, f64)> {
        let mut rng = stream(self.cfg.seed, "als-ratings");
        (0..self.ratings_count)
            .map(|_| {
                let u = rng.gen_range(0..self.users) as i64;
                let i = rng.gen_range(0..self.items) as i64;
                let r = rng.gen_range(1.0..5.0);
                (u, i, r)
            })
            .collect()
    }

    fn real_bytes(&self) -> u64 {
        u64::from(self.ratings_count) * 64
    }

    fn init_factors(&self, driver: &mut Driver, n: u32, label: u64) -> RddRef {
        let rank = self.rank as usize;
        let seed = self.cfg.seed ^ label;
        let vals: Vec<Value> = (0..n)
            .map(|e| {
                let mut rng = stream(seed, &format!("fac{e}"));
                Value::pair(
                    Value::Int(i64::from(e)),
                    Value::vector((0..rank).map(|_| rng.gen_range(0.1..1.0)).collect()),
                )
            })
            .collect();
        let r = driver.ctx().parallelize(vals, self.cfg.partitions);
        driver.ctx().persist(r);
        r
    }

    /// One half-iteration: update `side` factors from the other side's.
    fn half_step(
        &self,
        driver: &mut Driver,
        ratings_by_other: RddRef,
        other_factors: RddRef,
    ) -> RddRef {
        let parts = self.cfg.partitions;
        let rank = self.rank as usize;
        // (other, [ (this, rating), ofac ]) for every rating.
        let joined = driver.ctx().join(ratings_by_other, other_factors, parts);
        // Contribution of each rating to "this" entity's factor.
        let contribs = driver.ctx().flat_map(joined, move |v| {
            let Some((_, payload)) = v.clone().into_pair() else {
                return vec![];
            };
            let Some(sides) = payload.as_list() else {
                return vec![];
            };
            let (Some(tr), Some(ofac)) = (sides[0].as_list(), sides[1].as_vector()) else {
                return vec![];
            };
            let (Some(this), Some(rating)) = (tr[0].as_i64(), tr[1].as_f64()) else {
                return vec![];
            };
            let weighted: Vec<f64> = ofac.iter().map(|x| x * rating / 5.0).collect();
            vec![Value::pair(
                Value::Int(this),
                Value::list(vec![Value::vector(weighted), Value::Int(1)]),
            )]
        });
        // Heavy aggregation: the regularized "solve" per entity. The
        // combine itself is cheap; the solve cost (~rank² per rating) is
        // charged through a follow-up map_partitions.
        let summed = driver.ctx().reduce_by_key(contribs, parts, |a, b| {
            let av = a.as_list().unwrap();
            let bv = b.as_list().unwrap();
            let sa = av[0].as_vector().unwrap();
            let sb = bv[0].as_vector().unwrap();
            let sum: Vec<f64> = sa.iter().zip(sb).map(|(x, y)| x + y).collect();
            Value::list(vec![
                Value::vector(sum),
                Value::Int(av[1].as_i64().unwrap() + bv[1].as_i64().unwrap()),
            ])
        });
        let solve_cost = (rank * rank) as f64 / 3.0;
        let new_factors = driver
            .ctx()
            .map_partitions(summed, solve_cost, move |_, data| {
                data.iter()
                    .filter_map(|v| {
                        let (k, payload) = v.clone().into_pair()?;
                        let list = payload.as_list()?.to_vec();
                        let sum = list[0].as_vector()?.to_vec();
                        let n = list[1].as_i64()? as f64;
                        // Regularized average.
                        let fac: Vec<f64> = sum.iter().map(|x| x / (n + 0.1)).collect();
                        Some(Value::pair(k, Value::vector(fac)))
                    })
                    .collect()
            });
        driver.ctx().persist(new_factors);
        new_factors
    }

    /// Runs ALS, returning `(user_factors, item_factors)` sorted by id.
    #[allow(clippy::type_complexity)]
    pub(crate) fn run_factors(
        &self,
        driver: &mut Driver,
    ) -> Result<(Vec<(i64, Vec<f64>)>, Vec<(i64, Vec<f64>)>)> {
        let parts = self.cfg.partitions;
        let ratings = self.ratings();

        // Ratings keyed by item: (item, (user, rating)).
        let by_item_vals: Vec<Value> = ratings
            .iter()
            .map(|(u, i, r)| {
                Value::pair(
                    Value::Int(*i),
                    Value::list(vec![Value::Int(*u), Value::Float(*r)]),
                )
            })
            .collect();
        let by_item = driver.ctx().parallelize(by_item_vals, parts);
        driver.ctx().persist(by_item);

        // Ratings keyed by user: (user, (item, rating)).
        let by_user_vals: Vec<Value> = ratings
            .iter()
            .map(|(u, i, r)| {
                Value::pair(
                    Value::Int(*u),
                    Value::list(vec![Value::Int(*i), Value::Float(*r)]),
                )
            })
            .collect();
        let by_user = driver.ctx().parallelize(by_user_vals, parts);
        driver.ctx().persist(by_user);

        let mut user_f = self.init_factors(driver, self.users, 0x55);
        let mut item_f = self.init_factors(driver, self.items, 0xAA);

        for _ in 0..self.cfg.iterations {
            // Update users from item factors (join keyed by item).
            user_f = self.half_step(driver, by_item, item_f);
            // Update items from user factors (join keyed by user).
            item_f = self.half_step(driver, by_user, user_f);
        }

        let extract = |vals: Vec<Value>| {
            let mut out: Vec<(i64, Vec<f64>)> = vals
                .into_iter()
                .filter_map(|v| {
                    let (k, f) = v.into_pair()?;
                    Some((k.as_i64()?, f.as_vector()?.to_vec()))
                })
                .collect();
            out.sort_by_key(|(k, _)| *k);
            out
        };
        let u = extract(driver.collect(user_f)?);
        let i = extract(driver.collect(item_f)?);
        Ok((u, i))
    }
}

impl Workload for Als {
    fn name(&self) -> &'static str {
        "als"
    }

    fn run(&self, driver: &mut Driver) -> Result<WorkloadSummary> {
        let (u, i) = self.run_factors(driver)?;
        let checksum = u.iter().chain(i.iter()).fold(0u64, |acc, (k, fac)| {
            let inner = fac
                .iter()
                .fold(*k as u64, |a, x| fold_checksum(a, f64_bits(*x)));
            fold_checksum(acc, inner)
        });
        Ok(WorkloadSummary {
            name: self.name().into(),
            checksum,
            records: (u.len() + i.len()) as u64,
        })
    }

    fn recommended_size_scale(&self) -> f64 {
        self.cfg.dataset_gb * 1e9 / self.real_bytes().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Als {
        Als::new(WorkloadConfig {
            dataset_gb: 1.0,
            partitions: 4,
            iterations: 2,
            seed: 11,
        })
    }

    #[test]
    fn produces_factors_for_rated_entities() {
        let wl = small();
        let mut d = Driver::local(4);
        let (u, i) = wl.run_factors(&mut d).unwrap();
        assert!(!u.is_empty());
        assert!(!i.is_empty());
        // Factors stay finite and bounded.
        for (_, f) in u.iter().chain(i.iter()) {
            assert_eq!(f.len(), 8);
            assert!(f.iter().all(|x| x.is_finite() && *x >= 0.0 && *x < 10.0));
        }
    }

    #[test]
    fn deterministic_across_cluster_sizes() {
        let wl = small();
        let mut d1 = Driver::local(2);
        let mut d2 = Driver::local(6);
        assert_eq!(
            wl.run(&mut d1).unwrap().checksum,
            wl.run(&mut d2).unwrap().checksum
        );
    }

    #[test]
    fn als_is_shuffle_heavy() {
        let wl = small();
        let mut d = Driver::local(4);
        let _ = wl.run(&mut d).unwrap();
        // Each half-step = one cogroup (2 shuffle edges) + one
        // reduce_by_key (1 edge); 2 half-steps × 2 iterations = 12 edges.
        let shuffle_edges: usize = d
            .lineage()
            .ids()
            .map(|id| d.lineage().meta(id).op.input_shuffles().len())
            .sum();
        assert!(
            shuffle_edges >= 12,
            "expected many shuffle edges, got {shuffle_edges}"
        );
    }
}
