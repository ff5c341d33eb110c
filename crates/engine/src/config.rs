//! Driver configuration: the knobs a [`crate::Driver`] is built with,
//! and the retry policy it waits out store outages by.

use flint_simtime::SimDuration;
use flint_store::StorageConfig;

use crate::cost::CostModel;

/// First store-retry backoff; each further attempt doubles it.
const BACKOFF_BASE: SimDuration = SimDuration::from_secs(1);
/// Ceiling on the store-retry backoff.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(60);

/// A retry policy: an attempt budget plus capped exponential backoff in
/// virtual time.
///
/// It shapes the driver's store-outage wait
/// ([`DriverConfig::store_retry`]). `delay(attempt)` doubles from
/// `BACKOFF_BASE` (1 s) per attempt and saturates at `BACKOFF_CAP` (60 s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts allowed before the loop gives up with a typed error.
    pub budget: u64,
}

impl RetryPolicy {
    /// `true` once `attempt` retries have been spent.
    pub(crate) fn exhausted(&self, attempt: u64) -> bool {
        attempt >= self.budget
    }

    /// The wait before retry number `attempt` (0-based): capped
    /// exponential doubling.
    pub(crate) fn delay(&self, attempt: u64) -> SimDuration {
        let base = BACKOFF_BASE.as_millis();
        SimDuration::from_millis(
            base.saturating_mul(1u64 << attempt.min(32))
                .min(BACKOFF_CAP.as_millis()),
        )
    }
}

/// Tuning knobs for a [`Driver`](crate::Driver).
///
/// Start from [`DriverConfig::default`] or [`DriverConfig::builder`];
/// fields without a builder setter are set directly.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// The virtual-time cost model.
    pub cost: CostModel,
    /// The durable-storage bandwidth model.
    pub storage: StorageConfig,
    /// Host threads used to materialize each scheduling wave's tasks in
    /// parallel (real wall-clock parallelism; virtual time is
    /// unaffected). Results are committed in fixed task-key order on the
    /// driver thread, so any value — including 1 — produces bit-identical
    /// results, statistics, and virtual-time trajectories. See the
    /// `executor` module docs for the compute/commit split.
    pub host_threads: usize,
    /// Retry policy for transient checkpoint-store outages: how many
    /// capped-exponential backoff waits a restore spends before failing
    /// the action with [`EngineError::StoreUnavailable`](crate::EngineError::StoreUnavailable).
    pub store_retry: RetryPolicy,
    /// Enables the columnar batch execution path: partitions of
    /// batch-capable ops (built through the `*_kernel` context
    /// constructors) are stored as typed column vectors and run through
    /// vectorized kernels; everything else stays on the per-record
    /// path. Either setting produces bit-identical results, virtual
    /// sizes, and traces — only host wall-clock changes. On by default.
    pub columnar: bool,
    /// When set, the driver suspends the run at the first wave-commit
    /// boundary where the committed-wave counter reaches this value: a
    /// [`RunManifest`](crate::RunManifest) is persisted through the durable store and the
    /// in-flight action returns [`EngineError::Suspended`](crate::EngineError::Suspended). `None` (the
    /// default) never suspends and leaves every trace byte-identical.
    /// This is the deterministic stand-in for a driver crash — chaos
    /// campaigns wire [`crate::ChaosSchedule::driver_crash_wave`] here.
    pub suspend_after_waves: Option<u64>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            cost: CostModel::default(),
            storage: StorageConfig::default(),
            host_threads: 1,
            store_retry: RetryPolicy { budget: 6 },
            columnar: true,
            suspend_after_waves: None,
        }
    }
}

impl DriverConfig {
    /// Starts a builder preloaded with the defaults (the §5.5 cost model,
    /// default EBS bandwidth, one host thread).
    pub fn builder() -> DriverConfigBuilder {
        DriverConfigBuilder::default()
    }

    /// FNV-1a fingerprint of the determinism-relevant configuration.
    ///
    /// Hashes the value of every knob that shapes results, virtual time
    /// or the trace, floats by their bits, never a type's `Debug` text:
    /// renaming a field leaves old manifests resumable. It excludes
    /// `host_threads` and `columnar` (proven bit-identical by the
    /// determinism suite) and `suspend_after_waves` (which necessarily
    /// differs between a crashing run and its resume replay).
    /// [`Driver::resume`](crate::Driver::resume) rejects a manifest whose
    /// fingerprint does not match.
    pub(crate) fn fingerprint(&self) -> u64 {
        let values = [
            self.cost.size_scale.to_bits(),
            self.cost.source_mib_s.to_bits(),
            self.cost.ckpt_contention.to_bits(),
            u64::from(self.storage.replication),
            self.storage.cross_zone_factor.to_bits(),
            self.store_retry.budget,
        ];
        let bytes = values.iter().flat_map(|v| v.to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// Fluent builder for [`DriverConfig`];
/// `DriverConfig::builder().build()` equals `DriverConfig::default()`.
///
/// # Examples
///
/// ```
/// use flint_engine::DriverConfig;
///
/// let cfg = DriverConfig::builder()
///     .host_threads(8)
///     .size_scale(5e5)
///     .build();
/// assert_eq!(cfg.host_threads, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DriverConfigBuilder {
    cfg: DriverConfig,
}

impl DriverConfigBuilder {
    /// The durable-storage bandwidth model.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.cfg.storage = storage;
        self
    }

    /// Host threads used to materialize each wave in parallel. Any value
    /// produces bit-identical results; see [`DriverConfig::host_threads`].
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.cfg.host_threads = threads;
        self
    }

    /// Convenience: sets the cost model's virtual-size multiplier
    /// (`cost.size_scale`), the usual knob for simulating paper-scale
    /// datasets from small in-memory collections.
    pub fn size_scale(mut self, scale: f64) -> Self {
        self.cfg.cost.size_scale = scale;
        self
    }

    /// Enables or disables the columnar batch path (on by default);
    /// results are bit-identical either way, see
    /// [`DriverConfig::columnar`].
    pub fn columnar(mut self, on: bool) -> Self {
        self.cfg.columnar = on;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> DriverConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fingerprint is a transcribed FNV-1a over the six values, each
    /// as 8 little-endian bytes, and every one of them moves it.
    #[test]
    fn fingerprint_hashes_the_six_values() {
        let cfg = DriverConfig::default();
        let defaults = [
            1f64.to_bits(),
            40f64.to_bits(),
            0.5f64.to_bits(),
            3,
            1f64.to_bits(),
            6,
        ];
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for b in defaults.iter().flat_map(|v| v.to_le_bytes()) {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(fnv, 0x1fbe_cea3_5b6c_57ad);
        assert_eq!(cfg.fingerprint(), fnv);
        let edits: [fn(&mut DriverConfig); 6] = [
            |c| c.cost.size_scale = 2.0,
            |c| c.cost.source_mib_s = 41.0,
            |c| c.cost.ckpt_contention = 0.25,
            |c| c.storage.replication = 2,
            |c| c.storage.cross_zone_factor = 1.5,
            |c| c.store_retry.budget = 7,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut c = cfg.clone();
            edit(&mut c);
            assert_ne!(
                c.fingerprint(),
                fnv,
                "value {i} left the fingerprint unchanged"
            );
        }
    }
}
