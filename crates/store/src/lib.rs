//! Durable checkpoint storage for Flint, modeled after HDFS on EBS.
//!
//! The paper stores RDD checkpoints in HDFS backed by network-attached EBS
//! volumes (§4, "Checkpoint Storage"): data survives revocations, writes
//! are replicated and bandwidth-bound, and the volumes cost $0.10 per
//! GB-month. This crate reproduces those three properties:
//!
//! * [`DurableStore`] — a keyed object store whose contents survive any
//!   worker revocation; supports put/get and prefix deletion (checkpoint
//!   garbage collection) and keeps a GB-hour integral for cost
//!   accounting.
//! * [`StorageConfig`] — the bandwidth/latency model used to charge
//!   virtual time for checkpoint writes and restore reads, including the
//!   replication write amplification and an optional cross-availability-
//!   zone bandwidth factor (§5.2's multi-AZ experiment).
//!
//! # Examples
//!
//! ```
//! use flint_store::{DurableStore, StorageConfig};
//! use flint_simtime::SimTime;
//!
//! let mut store: DurableStore<Vec<u8>> = DurableStore::new(StorageConfig::default());
//! store.put("rdd-3/part-0", vec![1, 2, 3], 64 << 20, SimTime::ZERO);
//! assert!(store.contains("rdd-3/part-0"));
//!
//! // Writing 64 MiB over 10 parallel writers at the default bandwidth.
//! let d = store.config().write_time(64 << 20, 10);
//! assert!(d.as_secs_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::BTreeMap;

use flint_simtime::{SimDuration, SimTime};

/// Aggregate write bandwidth per writer node, MiB/s. The paper's
/// `r3.large` workers are EBS-bandwidth-limited to ~500 Mbps (~60 MiB/s)
/// shared by the whole node.
const WRITE_MIB_S_PER_NODE: f64 = 60.0;
/// Aggregate read bandwidth per reader node, MiB/s.
const READ_MIB_S_PER_NODE: f64 = 60.0;
/// Fixed per-operation latency (metadata round trips).
const OP_LATENCY: SimDuration = SimDuration::from_millis(20);

/// Replication and zone model for durable storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageConfig {
    /// HDFS replication factor (the paper uses 3).
    pub replication: u32,
    /// Bandwidth divisor for cross-availability-zone traffic; `1.0`
    /// within a zone. §5.2 reports checkpoint writes are bandwidth- not
    /// latency-sensitive, so multi-AZ mostly shows up here.
    pub cross_zone_factor: f64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            replication: 3,
            cross_zone_factor: 1.0,
        }
    }
}

impl StorageConfig {
    /// Time to durably write `bytes` spread over `parallel_writers` nodes.
    ///
    /// HDFS replicates through a *pipeline*: the client streams each
    /// block once and downstream datanodes forward it concurrently, so
    /// the client-visible write time scales with the bytes written, not
    /// with the replication factor (replication costs capacity, charged
    /// in [`DurableStore::storage_cost`], and a small pipeline overhead
    /// charged here).
    pub fn write_time(&self, bytes: u64, parallel_writers: u32) -> SimDuration {
        let writers = parallel_writers.max(1) as f64;
        // ~10% pipeline overhead per extra replica.
        let pipeline = 1.0 + 0.1 * (self.replication.max(1) - 1) as f64;
        let per_node = bytes as f64 * pipeline / writers;
        let bw = (WRITE_MIB_S_PER_NODE / self.cross_zone_factor.max(1.0)).max(1e-6);
        OP_LATENCY + SimDuration::from_secs_f64(per_node / (bw * 1024.0 * 1024.0))
    }

    /// Time to read `bytes` spread over `parallel_readers` nodes.
    ///
    /// Reads hit a single replica, so no replication amplification.
    pub fn read_time(&self, bytes: u64, parallel_readers: u32) -> SimDuration {
        let readers = parallel_readers.max(1) as f64;
        let per_node = bytes as f64 / readers;
        let bw = (READ_MIB_S_PER_NODE / self.cross_zone_factor.max(1.0)).max(1e-6);
        OP_LATENCY + SimDuration::from_secs_f64(per_node / (bw * 1024.0 * 1024.0))
    }
}

#[derive(Debug, Clone)]
struct StoredObject<T> {
    payload: T,
    bytes: u64,
}

/// A durable, revocation-proof keyed object store.
///
/// Payloads are arbitrary (`T`); the store separately tracks each object's
/// *virtual* size in bytes, which may be scaled up from the in-process
/// payload to represent paper-scale datasets.
///
/// The store integrates byte-hours so EBS-style $/GB-month charges can be
/// computed exactly even as checkpoints are garbage-collected.
#[derive(Debug, Clone)]
pub struct DurableStore<T> {
    cfg: StorageConfig,
    objects: BTreeMap<String, StoredObject<T>>,
    total_bytes: u64,
    peak_bytes: u64,
    /// Integral of stored bytes over time, in byte-milliseconds.
    byte_ms_integral: f64,
    last_update: SimTime,
    /// Cumulative bytes ever written (for reporting write amplification).
    bytes_written: u64,
}

impl<T> DurableStore<T> {
    /// Creates an empty store with the given bandwidth model.
    pub fn new(cfg: StorageConfig) -> Self {
        DurableStore {
            cfg,
            objects: BTreeMap::new(),
            total_bytes: 0,
            peak_bytes: 0,
            byte_ms_integral: 0.0,
            last_update: SimTime::ZERO,
            bytes_written: 0,
        }
    }

    /// Returns the bandwidth/replication model.
    pub fn config(&self) -> &StorageConfig {
        &self.cfg
    }

    fn integrate_to(&mut self, now: SimTime) {
        if now > self.last_update {
            let dt = (now - self.last_update).as_millis() as f64;
            self.byte_ms_integral += self.total_bytes as f64 * dt;
            self.last_update = now;
        }
    }

    /// Stores `payload` under `key` with a virtual size of `bytes`,
    /// overwriting any previous object.
    pub fn put(&mut self, key: &str, payload: T, bytes: u64, now: SimTime) {
        self.integrate_to(now);
        if let Some(old) = self.objects.remove(key) {
            self.total_bytes -= old.bytes;
        }
        self.objects
            .insert(key.to_string(), StoredObject { payload, bytes });
        self.total_bytes += bytes;
        self.bytes_written += bytes;
        self.peak_bytes = self.peak_bytes.max(self.total_bytes);
    }

    /// Returns the payload stored under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&T> {
        self.objects.get(key).map(|o| &o.payload)
    }

    /// Returns an object's virtual size in bytes.
    pub fn size_of(&self, key: &str) -> Option<u64> {
        self.objects.get(key).map(|o| o.bytes)
    }

    /// Returns `true` if `key` is stored.
    pub fn contains(&self, key: &str) -> bool {
        self.objects.contains_key(key)
    }

    /// Deletes every object whose key starts with `prefix`, returning the
    /// number removed. Used by checkpoint garbage collection, which drops
    /// all partitions of an unreachable RDD at once.
    pub fn delete_prefix(&mut self, prefix: &str, now: SimTime) -> usize {
        self.integrate_to(now);
        let doomed: Vec<String> = self
            .objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            if let Some(old) = self.objects.remove(k) {
                self.total_bytes -= old.bytes;
            }
        }
        doomed.len()
    }

    /// Returns the keys with a given prefix, in sorted order.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<&str> {
        self.objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Returns the footprint in virtual bytes of the objects with a
    /// given key prefix — e.g. `"shuffle/"` to measure how much
    /// shuffle data a serverless session is holding in the store.
    pub fn bytes_with_prefix(&self, prefix: &str) -> u64 {
        self.objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, o)| o.bytes)
            .sum()
    }

    /// Returns the number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Returns the current footprint in virtual bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Returns the peak footprint in virtual bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Returns the cumulative bytes ever written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Computes the EBS bill, at `price_per_gb_month` dollars per
    /// GB-month, for holding the store's contents up to `until`, from the
    /// exact byte-hour integral.
    ///
    /// The replicated footprint is what occupies the volumes, so the
    /// integral is multiplied by the replication factor.
    pub fn storage_cost(&mut self, price_per_gb_month: f64, until: SimTime) -> f64 {
        self.integrate_to(until);
        let gb_ms = self.byte_ms_integral / 1e9 * self.cfg.replication.max(1) as f64;
        let gb_hours = gb_ms / 3_600_000.0;
        price_per_gb_month * gb_hours / (24.0 * 30.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_millis(secs * 1000)
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut s: DurableStore<&str> = DurableStore::new(StorageConfig::default());
        s.put("a", "hello", 100, t(0));
        assert_eq!(s.get("a"), Some(&"hello"));
        assert_eq!(s.size_of("a"), Some(100));
        assert_eq!(s.delete_prefix("a", t(1)), 1);
        assert_eq!(s.delete_prefix("a", t(1)), 0);
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn overwrite_replaces_bytes() {
        let mut s: DurableStore<u32> = DurableStore::new(StorageConfig::default());
        s.put("k", 1, 100, t(0));
        s.put("k", 2, 300, t(1));
        assert_eq!(s.total_bytes(), 300);
        assert_eq!(s.get("k"), Some(&2));
        assert_eq!(s.bytes_written(), 400);
        assert_eq!(s.peak_bytes(), 300);
    }

    #[test]
    fn prefix_operations() {
        let mut s: DurableStore<u32> = DurableStore::new(StorageConfig::default());
        s.put("rdd-1/part-0", 0, 10, t(0));
        s.put("rdd-1/part-1", 1, 10, t(0));
        s.put("rdd-2/part-0", 2, 10, t(0));
        assert_eq!(
            s.keys_with_prefix("rdd-1/"),
            vec!["rdd-1/part-0", "rdd-1/part-1"]
        );
        assert_eq!(s.delete_prefix("rdd-1/", t(1)), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_bytes(), 10);
    }

    #[test]
    fn bytes_with_prefix_sums_only_matching_objects() {
        let mut s: DurableStore<u32> = DurableStore::new(StorageConfig::default());
        s.put("shuffle/0/0", 0, 100, t(0));
        s.put("shuffle/0/1", 1, 250, t(0));
        s.put("rdd-1/part-0", 2, 999, t(0));
        assert_eq!(s.bytes_with_prefix("shuffle/"), 350);
        assert_eq!(s.bytes_with_prefix("rdd-"), 999);
        assert_eq!(s.bytes_with_prefix("nope/"), 0);
        assert_eq!(
            s.bytes_with_prefix(""),
            s.total_bytes(),
            "the empty prefix covers everything"
        );
    }

    #[test]
    fn write_time_scales_with_bytes_and_parallelism() {
        let cfg = StorageConfig::default();
        let small = cfg.write_time(1 << 20, 1);
        let big = cfg.write_time(100 << 20, 1);
        assert!(big > small);
        let parallel = cfg.write_time(100 << 20, 10);
        assert!(parallel < big);
        // 10x parallelism ~ 10x faster (minus latency floor).
        let serial_s = big.as_secs_f64() - OP_LATENCY.as_secs_f64();
        let par_s = parallel.as_secs_f64() - OP_LATENCY.as_secs_f64();
        assert!((serial_s / par_s - 10.0).abs() < 0.1);
    }

    #[test]
    fn replication_adds_mild_pipeline_overhead_to_writes_only() {
        let r1 = StorageConfig {
            replication: 1,
            ..StorageConfig::default()
        };
        let r3 = StorageConfig {
            replication: 3,
            ..StorageConfig::default()
        };
        let w1 = r1.write_time(100 << 20, 1).as_secs_f64();
        let w3 = r3.write_time(100 << 20, 1).as_secs_f64();
        // Pipelined: slightly slower, far from 3x.
        assert!(w3 > w1);
        assert!(
            w3 < 1.5 * w1,
            "pipelined replication must not triple writes"
        );
        assert_eq!(r3.read_time(10 << 20, 1), r1.read_time(10 << 20, 1));
    }

    #[test]
    fn cross_zone_slows_io() {
        let near = StorageConfig::default();
        let far = StorageConfig {
            cross_zone_factor: 2.0,
            ..StorageConfig::default()
        };
        assert!(far.write_time(50 << 20, 4) > near.write_time(50 << 20, 4));
    }

    #[test]
    fn storage_cost_integrates_over_time() {
        let mut s: DurableStore<()> = DurableStore::new(StorageConfig {
            replication: 1,
            ..StorageConfig::default()
        });
        // 1 GB held for 30 days = $0.10.
        s.put("k", (), 1_000_000_000, SimTime::ZERO);
        let until = SimTime::ZERO + SimDuration::from_days(30);
        let cost = s.storage_cost(0.10, until);
        assert!((cost - 0.10).abs() < 1e-6, "cost {cost}");
    }

    #[test]
    fn gc_reduces_future_cost() {
        let cfg = StorageConfig {
            replication: 1,
            ..StorageConfig::default()
        };
        let gb = 1_000_000_000;
        let month = SimDuration::from_days(30);

        let mut kept: DurableStore<()> = DurableStore::new(cfg);
        kept.put("k", (), gb, SimTime::ZERO);
        let kept_cost = kept.storage_cost(0.10, SimTime::ZERO + month);

        let mut gced: DurableStore<()> = DurableStore::new(cfg);
        gced.put("k", (), gb, SimTime::ZERO);
        gced.delete_prefix("k", SimTime::ZERO + SimDuration::from_days(15));
        let gced_cost = gced.storage_cost(0.10, SimTime::ZERO + month);

        assert!((gced_cost - kept_cost / 2.0).abs() < 1e-6);
    }

    #[test]
    fn replication_amplifies_storage_cost() {
        let gb = 1_000_000_000;
        let month = SimDuration::from_days(30);
        let mut r3: DurableStore<()> = DurableStore::new(StorageConfig::default());
        r3.put("k", (), gb, SimTime::ZERO);
        let c = r3.storage_cost(0.10, SimTime::ZERO + month);
        assert!(
            (c - 0.30).abs() < 1e-6,
            "3-way replication triples cost, got {c}"
        );
    }
}
