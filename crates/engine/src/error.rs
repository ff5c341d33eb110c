//! Engine error types.

use std::fmt;

use crate::RddId;

/// Errors surfaced by the engine.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard
/// arm so future fault domains can add variants without breaking them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The referenced RDD does not exist in the lineage graph.
    UnknownRdd(RddId),
    /// The cluster has no workers and the failure injector will never add
    /// any, so the job can make no progress.
    NoWorkers,
    /// A job exceeded the driver's recomputation retry budget, indicating
    /// a revocation livelock.
    RetryBudgetExhausted {
        /// The RDD whose materialization kept failing.
        rdd: RddId,
    },
    /// An action was invoked on an empty dataset where it has no identity
    /// (e.g. `reduce`).
    EmptyDataset,
    /// The checkpoint store stayed unreachable through the driver's
    /// capped-backoff retry loop.
    StoreUnavailable {
        /// Retries attempted before giving up.
        retries: u64,
    },
    /// The scheduler loop exceeded its step budget in an idle wait or a
    /// checkpoint drain, with no single RDD to blame — a job-level
    /// livelock rather than one failing lineage.
    JobBudgetExhausted {
        /// Which wait gave up: `"idle"` or `"drain-checkpoints"`.
        phase: &'static str,
        /// Scheduler steps spent before giving up.
        iterations: u64,
    },
    /// The run was suspended at a wave-commit boundary; a manifest was
    /// persisted to the durable store and the job can be continued with
    /// `Driver::resume`.
    Suspended {
        /// Durable-store key of the persisted run manifest.
        manifest: String,
        /// Committed wave frontier at the moment of suspension.
        frontier: u64,
    },
    /// A resume replay disagreed with the persisted manifest — either
    /// the config fingerprint differs up front, or the replay crossed
    /// the recorded frontier with different time/stats. The sessions
    /// are not the same run and continuing would corrupt determinism.
    ResumeDiverged {
        /// Which manifest field failed verification (`"config_fp"`,
        /// `"frontier"`, `"now_ms"`, `"tasks_run"`, `"revocations"`,
        /// or `"checkpoints_written"`).
        field: &'static str,
        /// The value the manifest recorded.
        expected: u64,
        /// The value the replay produced.
        actual: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownRdd(id) => write!(f, "unknown RDD {id:?}"),
            EngineError::NoWorkers => write!(f, "no workers available and none forthcoming"),
            EngineError::RetryBudgetExhausted { rdd } => {
                write!(f, "retry budget exhausted while materializing {rdd:?}")
            }
            EngineError::EmptyDataset => write!(f, "action undefined on an empty dataset"),
            EngineError::StoreUnavailable { retries } => {
                write!(
                    f,
                    "checkpoint store unavailable after {retries} backoff retries"
                )
            }
            EngineError::JobBudgetExhausted { phase, iterations } => {
                write!(
                    f,
                    "driver {phase} loop exceeded its budget after {iterations} iterations"
                )
            }
            EngineError::Suspended { manifest, frontier } => {
                write!(
                    f,
                    "run suspended at wave {frontier}; resume from manifest {manifest:?}"
                )
            }
            EngineError::ResumeDiverged {
                field,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "resume replay diverged at {field}: manifest recorded {expected}, replay produced {actual}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Convenience alias for engine results.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_variants_display_their_context() {
        let s = EngineError::StoreUnavailable { retries: 7 };
        assert!(s.to_string().contains('7'));
        // A std error with no deeper source.
        use std::error::Error as _;
        assert!(s.source().is_none());
    }
}
