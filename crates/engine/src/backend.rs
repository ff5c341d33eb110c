//! The serverless execution backend. A driver without one runs on
//! transient VMs: the failure injector drives worker lifecycle, shuffle
//! map outputs stay in worker memory, and the market layer bills
//! instance-hours. With a [`ServerlessBackend`] installed
//! ([`crate::Driver::set_serverless`]) every task is an invocation that
//! pays a seeded cold start or a warm dispatch at admission and a
//! per-GB-second bill at commit (Σ `InvocationBilled` == compute cost
//! *exactly*), and shuffle map outputs go through the durable store,
//! because invocations cannot serve remote reads after they return.

use crate::cluster::WorkerId;
use flint_simtime::{rng, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// What [`ServerlessBackend::on_task_admitted`] registered for a task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InvocationStart {
    /// Monotone invocation id (1-based, admission order).
    pub(crate) invocation: u64,
    /// Cold-start latency in virtual millis (0 for a warm container).
    pub(crate) cold_ms: u64,
    /// Startup overhead added to the task's duration (warm or cold).
    pub(crate) overhead: SimDuration,
}

/// The bill [`ServerlessBackend::on_task_committed`] charged for a task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InvocationBill {
    /// GB-seconds consumed: task duration × function memory.
    pub(crate) gb_seconds: f64,
    /// Dollars charged: GB-seconds × rate + per-request fee.
    pub(crate) cost: f64,
}

/// Dollars per GB-second of invocation time.
const PRICE_PER_GB_SECOND: f64 = 0.000_016_666_7;
/// Flat dollars per invocation (request fee).
const PRICE_PER_INVOCATION: f64 = 0.000_000_2;
/// Deterministic floor of a cold start.
const COLD_START_BASE: SimDuration = SimDuration::from_millis(150);
/// Mean of the exponential cold-start tail added to the floor.
const COLD_START_MEAN_EXTRA: SimDuration = SimDuration::from_millis(350);
/// Dispatch latency onto an already-warm container.
const WARM_START: SimDuration = SimDuration::from_millis(5);
/// How long a container stays warm after an invocation starts or
/// commits on its slot.
const KEEPALIVE: SimDuration = SimDuration::from_mins(10);

/// Slot size and cost-report reference for [`ServerlessBackend`].
///
/// Prices and latencies model a Lambda-like offering: 4 GB function
/// slots at $0.0000166667 per GB-second plus $0.0000002 per request,
/// cold starts of 150 ms plus an exponential tail (mean 350 ms), 5 ms
/// warm dispatch, and a 10-minute container keepalive.
#[derive(Debug, Clone)]
pub struct ServerlessConfig {
    /// Function memory per invocation, GB (also sizes the slot's
    /// result cache).
    pub memory_gb: f64,
    /// On-demand VM price used as the cost-report reference (the
    /// paper's r3.large at $0.175/h), so serverless unit costs stay
    /// comparable to VM unit costs.
    pub on_demand_equiv: f64,
}

impl Default for ServerlessConfig {
    fn default() -> Self {
        ServerlessConfig {
            memory_gb: 4.0,
            on_demand_equiv: 0.175,
        }
    }
}

/// The serverless backend: per-invocation function slots.
///
/// Each cluster worker models one unit of function concurrency (a
/// 1-core slot). A task admitted onto a slot whose container has gone
/// cold — never used, or idle past `KEEPALIVE` — pays a seeded
/// cold-start latency drawn from the
/// `rng::stream(seed, "serverless:coldstart")` sub-stream; admission
/// order is deterministic, so the draws (and thus the whole trace)
/// replay byte-identically for any `host_threads`. Every committed
/// task is billed duration × memory × rate + request fee, accumulated
/// so that Σ `InvocationBilled` events equals [`ServerlessBackend::compute_cost`]
/// exactly. Shuffle map outputs travel through the external store.
#[derive(Debug)]
pub struct ServerlessBackend {
    cfg: ServerlessConfig,
    rng: StdRng,
    /// Per-slot warm horizon: the container answers warm to any
    /// invocation starting at or before this instant.
    warm_until: BTreeMap<WorkerId, SimTime>,
    invocations: u64,
    warm_invocations: u64,
    billed: u64,
    cost: f64,
    gb_seconds: f64,
}

impl ServerlessBackend {
    /// Creates a serverless backend; `seed` parents the cold-start
    /// randomness sub-stream.
    pub fn new(cfg: ServerlessConfig, seed: u64) -> Self {
        ServerlessBackend {
            cfg,
            rng: rng::stream(seed, "serverless:coldstart"),
            warm_until: BTreeMap::new(),
            invocations: 0,
            warm_invocations: 0,
            billed: 0,
            cost: 0.0,
            gb_seconds: 0.0,
        }
    }

    /// Registers one admitted task as an invocation, before its duration
    /// is fixed: `start` is the instant it begins on its reserved slot.
    /// Returns the startup overhead to charge (warm or cold).
    pub(crate) fn on_task_admitted(&mut self, worker: WorkerId, start: SimTime) -> InvocationStart {
        self.invocations += 1;
        let warm = self.warm_until.get(&worker).is_some_and(|&t| start <= t);
        let (overhead, cold_ms) = if warm {
            self.warm_invocations += 1;
            (WARM_START, 0)
        } else {
            // Cold start: deterministic floor plus an exponential tail
            // drawn from the seeded sub-stream (inverse-CDF transform).
            let u: f64 = self.rng.gen::<f64>();
            let extra = COLD_START_MEAN_EXTRA.mul_f64(-(1.0 - u).max(1e-12).ln());
            let overhead = COLD_START_BASE + extra;
            (overhead, overhead.as_millis())
        };
        // Provisional warm horizon from the invocation's start; commit
        // extends it from the finish instant. Back-to-back tasks queued
        // on the same slot therefore see a warm container as long as
        // each predecessor fits inside the keepalive window.
        let horizon = start + overhead + KEEPALIVE;
        let entry = self.warm_until.entry(worker).or_insert(horizon);
        *entry = (*entry).max(horizon);
        InvocationStart {
            invocation: self.invocations,
            cold_ms,
            overhead,
        }
    }

    /// Bills one committed task (commit order).
    pub(crate) fn on_task_committed(
        &mut self,
        worker: WorkerId,
        duration: SimDuration,
        now: SimTime,
    ) -> InvocationBill {
        self.billed += 1;
        let gb_seconds = duration.as_secs_f64() * self.cfg.memory_gb;
        let cost = gb_seconds * PRICE_PER_GB_SECOND + PRICE_PER_INVOCATION;
        self.gb_seconds += gb_seconds;
        self.cost += cost;
        let horizon = now + KEEPALIVE;
        let entry = self.warm_until.entry(worker).or_insert(horizon);
        *entry = (*entry).max(horizon);
        InvocationBill { gb_seconds, cost }
    }

    /// Total compute dollars billed so far.
    pub fn compute_cost(&self) -> f64 {
        self.cost
    }

    /// Invocations admitted so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Invocations billed so far: trails `invocations` by the tasks still
    /// in flight when the run's final job completed.
    pub fn invocations_billed(&self) -> u64 {
        self.billed
    }

    /// Σ GB-seconds billed so far.
    pub fn billed_gb_seconds(&self) -> f64 {
        self.gb_seconds
    }

    /// Invocations that paid a cold-start penalty.
    pub fn cold_starts(&self) -> u64 {
        self.invocations - self.warm_invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_warm_then_cold_after_keepalive() {
        let mut b = ServerlessBackend::new(ServerlessConfig::default(), 7);
        let w = WorkerId(0);
        let first = b.on_task_admitted(w, SimTime::ZERO);
        assert!(first.cold_ms >= 150, "first touch must be cold");
        // A task starting immediately after hits the warm container.
        let t1 = SimTime::ZERO + first.overhead + SimDuration::from_secs(1);
        let second = b.on_task_admitted(w, t1);
        assert_eq!(second.cold_ms, 0);
        assert_eq!(second.overhead, SimDuration::from_millis(5));
        // Past the keepalive horizon the container is cold again.
        let t2 = t1 + second.overhead + KEEPALIVE + SimDuration::from_secs(1);
        let third = b.on_task_admitted(w, t2);
        assert!(third.cold_ms >= 150);
        assert_eq!(b.invocations(), 3);
        // A different slot is always cold on first touch.
        let other = b.on_task_admitted(WorkerId(1), t1);
        assert!(other.cold_ms >= 150);
    }

    #[test]
    fn same_seed_replays_identical_draws() {
        let draws = |seed: u64| -> Vec<u64> {
            let mut b = ServerlessBackend::new(ServerlessConfig::default(), seed);
            (0..20)
                .map(|i| b.on_task_admitted(WorkerId(i), SimTime::ZERO).cold_ms)
                .collect()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43), "different seeds must diverge");
    }

    #[test]
    fn billing_accumulates_exactly() {
        let cfg = ServerlessConfig::default();
        let mut b = ServerlessBackend::new(cfg.clone(), 1);
        let mut total = 0.0;
        let mut gbs = 0.0;
        for i in 0..50u64 {
            let dur = SimDuration::from_millis(100 + i * 37);
            let bill = b.on_task_committed(WorkerId((i % 4) as u32), dur, SimTime::ZERO);
            let expect_gbs = dur.as_secs_f64() * cfg.memory_gb;
            assert!((bill.gb_seconds - expect_gbs).abs() < 1e-12);
            assert!(
                (bill.cost - (expect_gbs * PRICE_PER_GB_SECOND + PRICE_PER_INVOCATION)).abs()
                    < 1e-15
            );
            total += bill.cost;
            gbs += bill.gb_seconds;
        }
        // Exact: the backend accumulates in the same order we did.
        assert_eq!(b.compute_cost(), total);
        assert_eq!(b.billed_gb_seconds(), gbs);
    }
}
