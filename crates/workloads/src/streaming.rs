//! A Spark-Streaming-style micro-batch workload (the paper's §6 points
//! at streaming systems as future beneficiaries of Flint's policies).
//!
//! Discretized streams process arriving data in fixed micro-batches,
//! folding each batch into a running state RDD — exactly the shape of
//! Spark Streaming's `updateStateByKey`. The interesting metric on
//! transient servers is the *per-batch latency*, and in particular how
//! far it spikes when a revocation lands between batches: the state RDD
//! embodies the whole stream history, so without checkpoints a loss
//! replays everything.

use flint_engine::{Driver, RddRef, Result, Value};
use flint_simtime::rng::stream;
use flint_simtime::{SimDuration, SimTime};
use rand::Rng;

use crate::{f64_bits, fold_checksum, Workload, WorkloadConfig, WorkloadSummary};

/// `(per-batch records, final (key, total) state sorted by key)`.
pub(crate) type StreamOutcome = (Vec<BatchRecord>, Vec<(i64, f64)>);

/// Per-batch timing of a streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Batch sequence number.
    pub(crate) batch: u32,
    /// Virtual instant the batch started processing.
    pub(crate) started: SimTime,
    /// Processing latency of the batch.
    pub latency: SimDuration,
}

/// Micro-batch streaming aggregation: each batch of keyed events is
/// reduced and merged into a persisted running-state RDD.
#[derive(Debug, Clone)]
pub struct Streaming {
    cfg: WorkloadConfig,
    /// Number of micro-batches to process (`cfg.iterations`).
    pub(crate) batches: u32,
    /// Events per micro-batch.
    pub(crate) events_per_batch: u32,
    /// Distinct keys in the stream.
    pub(crate) keys: u32,
    /// Wall-clock interval between batch arrivals.
    pub(crate) batch_interval: SimDuration,
}

impl Streaming {
    /// Creates the workload (~200 events/batch per logical GB).
    pub fn new(cfg: WorkloadConfig) -> Self {
        Streaming {
            cfg,
            batches: cfg.iterations.max(1),
            events_per_batch: ((cfg.dataset_gb * 200.0).round() as u32).max(50),
            keys: 64,
            batch_interval: SimDuration::from_secs(30),
        }
    }

    /// A paper-scale configuration: 4 GB of stream state over 20 batches.
    pub fn paper_scale() -> Self {
        Streaming::new(WorkloadConfig {
            dataset_gb: 4.0,
            partitions: 20,
            iterations: 20,
            seed: 42,
        })
    }

    fn batch_events(&self, batch: u32) -> Vec<Value> {
        let mut rng = stream(self.cfg.seed ^ u64::from(batch), "stream-batch");
        (0..self.events_per_batch)
            .map(|_| {
                let k = rng.gen_range(0..self.keys) as i64;
                let v = rng.gen_range(0.0..100.0);
                Value::pair(Value::Int(k), Value::Float(v))
            })
            .collect()
    }

    fn real_bytes(&self) -> u64 {
        u64::from(self.events_per_batch) * u64::from(self.batches) * 80
    }

    /// Runs the stream to completion, returning per-batch records and the
    /// final per-key state.
    pub fn run_stream(&self, driver: &mut Driver) -> Result<StreamOutcome> {
        let parts = self.cfg.partitions;
        let mut records = Vec::new();
        let mut state: Option<RddRef> = None;

        for batch in 0..self.batches {
            // Wait for the batch to arrive.
            let arrive = driver.now() + self.batch_interval;
            driver.idle_until(arrive)?;
            let started = driver.now();

            let events = driver.ctx().parallelize(self.batch_events(batch), parts);
            let reduced = driver.ctx().reduce_by_key(events, parts, |a, b| {
                Value::Float(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0))
            });
            let new_state = match state {
                None => reduced,
                Some(prev) => {
                    // updateStateByKey: merge this batch into the running
                    // totals.
                    let merged = driver.ctx().union(prev, reduced);
                    driver.ctx().reduce_by_key(merged, parts, |a, b| {
                        Value::Float(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0))
                    })
                }
            };
            driver.ctx().persist(new_state);
            // The batch's output action (e.g. publish counters).
            driver.count(new_state)?;
            records.push(BatchRecord {
                batch,
                started,
                latency: driver.now() - started,
            });
            state = Some(new_state);
        }

        let final_state = state.expect("at least one batch");
        let mut totals: Vec<(i64, f64)> = driver
            .collect(final_state)?
            .into_iter()
            .filter_map(|v| {
                let (k, t) = v.into_pair()?;
                Some((k.as_i64()?, t.as_f64()?))
            })
            .collect();
        totals.sort_by_key(|(k, _)| *k);
        Ok((records, totals))
    }
}

impl Workload for Streaming {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn run(&self, driver: &mut Driver) -> Result<WorkloadSummary> {
        let (records, totals) = self.run_stream(driver)?;
        let checksum = totals.iter().fold(0u64, |acc, (k, t)| {
            fold_checksum(acc, *k as u64 ^ f64_bits(*t))
        });
        Ok(WorkloadSummary {
            name: self.name().into(),
            checksum,
            records: records.len() as u64,
        })
    }

    fn recommended_size_scale(&self) -> f64 {
        self.cfg.dataset_gb * 1e9 / self.real_bytes().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_engine::{DriverConfig, NoCheckpoint, ScriptedInjector, WorkerEvent, WorkerSpec};

    fn small() -> Streaming {
        Streaming::new(WorkloadConfig {
            dataset_gb: 0.5,
            partitions: 4,
            iterations: 6,
            seed: 7,
        })
    }

    #[test]
    fn totals_match_manual_accumulation() {
        let wl = small();
        let mut d = Driver::local(3);
        let (records, totals) = wl.run_stream(&mut d).unwrap();
        assert_eq!(records.len(), 6);

        // Manual reference over the generated batches.
        let mut expect = std::collections::BTreeMap::new();
        for b in 0..6 {
            for ev in wl.batch_events(b) {
                let (k, v) = ev.into_pair().unwrap();
                *expect.entry(k.as_i64().unwrap()).or_insert(0.0) += v.as_f64().unwrap();
            }
        }
        assert_eq!(totals.len(), expect.len());
        for (k, t) in &totals {
            let e = expect[k];
            assert!(
                (t - e).abs() < 1e-6 * e.abs().max(1.0),
                "key {k}: {t} vs {e}"
            );
        }
    }

    #[test]
    fn batches_are_paced_by_the_interval() {
        let wl = small();
        let mut d = Driver::local(3);
        let (records, _) = wl.run_stream(&mut d).unwrap();
        for w in records.windows(2) {
            let gap = w[1].started - w[0].started;
            assert!(gap >= wl.batch_interval, "batches must not start early");
        }
    }

    #[test]
    fn revocation_mid_stream_preserves_totals() {
        let wl = small();
        let mut clean = Driver::local(3);
        let golden = wl.run(&mut clean).unwrap();

        let mut cfg = DriverConfig::default();
        cfg.cost.size_scale = wl.recommended_size_scale();
        let mut d = flint_engine::Driver::new(
            cfg,
            Box::new(NoCheckpoint),
            Box::new(ScriptedInjector::new(vec![(
                // Between batches 2 and 3 (batches arrive every 30 s).
                SimTime::from_millis(80_000),
                WorkerEvent::Remove { ext_id: 1 },
            )])),
        );
        for ext in 1..=3u64 {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        let got = wl.run(&mut d).unwrap();
        assert_eq!(got.checksum, golden.checksum);
        assert_eq!(d.stats().revocations, 1);
    }

    #[test]
    fn deterministic_across_cluster_sizes() {
        let wl = small();
        let mut a = Driver::local(2);
        let mut b = Driver::local(5);
        assert_eq!(
            wl.run(&mut a).unwrap().checksum,
            wl.run(&mut b).unwrap().checksum
        );
    }
}
