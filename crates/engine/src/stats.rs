//! Execution metrics collected by the driver.

use flint_simtime::{SimDuration, SimTime};

/// Timing record of one action (job).
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRecord {
    /// Action label, e.g. `"collect(rdd-12)"`.
    pub name: String,
    /// Virtual start instant.
    pub started: SimTime,
    /// Virtual completion instant.
    pub finished: SimTime,
}

impl ActionRecord {
    /// The action's response latency.
    pub fn latency(&self) -> SimDuration {
        self.finished - self.started
    }
}

/// Cumulative execution metrics.
///
/// These are the quantities the paper's figures are built from: total
/// running time, checkpointing overhead ("checkpointing tax"), time lost
/// to recomputation after revocations, and time stalled acquiring
/// replacement servers.
/// `PartialEq` exists so the determinism suite can assert that runs at
/// different `host_threads` settings produce bit-identical accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Number of compute tasks executed.
    pub tasks_run: u64,
    /// Total core time spent computing (includes recomputation).
    pub compute_time: SimDuration,
    /// Core time spent *re*computing partitions that had been
    /// materialized before a loss.
    pub recompute_time: SimDuration,
    /// Core time spent writing checkpoints.
    pub checkpoint_time: SimDuration,
    /// Number of partition checkpoints written.
    pub checkpoints_written: u64,
    /// Virtual bytes of checkpoints written.
    pub checkpoint_bytes: u64,
    /// Byte-exact serialized size of checkpoints written (see
    /// [`crate::wire_size`]); computed on the wave executor's host
    /// threads.
    pub checkpoint_wire_bytes: u64,
    /// Time spent restoring partitions from durable checkpoints.
    pub restore_time: SimDuration,
    /// Number of partitions restored from checkpoints.
    pub restores: u64,
    /// Wall (virtual) time the driver spent with zero usable workers,
    /// waiting for replacements.
    pub stall_time: SimDuration,
    /// Worker revocations observed.
    pub revocations: u64,
    /// Revocation warnings observed.
    pub warnings: u64,
    /// Per-action latencies, in execution order.
    pub actions: Vec<ActionRecord>,
}

impl RunStats {
    /// Latency of the most recent action.
    pub fn last_action_latency(&self) -> Option<SimDuration> {
        self.actions.last().map(ActionRecord::latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_latency_accounting() {
        let mut s = RunStats::default();
        s.actions.push(ActionRecord {
            name: "a".into(),
            started: SimTime::from_millis(0),
            finished: SimTime::from_millis(1500),
        });
        s.actions.push(ActionRecord {
            name: "b".into(),
            started: SimTime::from_millis(2000),
            finished: SimTime::from_millis(2500),
        });
        assert_eq!(s.last_action_latency(), Some(SimDuration::from_millis(500)));
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunStats::default();
        assert_eq!(s.last_action_latency(), None);
    }
}
