//! The execution-backend seam: provisioning model, invocation
//! overhead, shuffle-data transport, and billing.
//!
//! The driver's scheduling loop is backend-agnostic: it plans waves,
//! admits tasks onto cluster cores, and commits effects in `TaskKey`
//! order. Everything that *differs* between running on long-lived
//! transient VMs and running on ephemeral functions is funnelled
//! through the [`Backend`] trait:
//!
//! * **Invocation overhead** — charged at task admission. VMs have
//!   none; serverless tasks pay a seeded cold-start latency when their
//!   function slot's container has gone cold.
//! * **Shuffle transport** — where shuffle map outputs live between
//!   stages. VMs keep them in worker memory (the block manager);
//!   serverless materializes them through the durable [`flint_store`]
//!   store, because invocations cannot serve remote reads after they
//!   return.
//! * **Billing** — VMs are billed per instance-hour by the market
//!   layer (`InstanceBilled` events); serverless bills every committed
//!   task per GB-second plus a per-request fee (`InvocationBilled`
//!   events), accumulated here so Σ bills == compute cost *exactly*.
//!
//! [`TransientVmBackend`] is the default and is a guaranteed no-op:
//! every hook returns `None`/zero, draws no randomness, and emits no
//! events, so installing it explicitly is byte-identical to the
//! pre-abstraction engine (the golden-trace gate pins this).

use crate::cluster::WorkerId;
use flint_simtime::{rng, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Which execution substrate a backend models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Long-lived transient VMs (spot instances) managed by a node
    /// manager — the paper's setting.
    TransientVm,
    /// Ephemeral per-invocation function slots with cold starts and
    /// per-GB-second billing.
    Serverless,
}

/// Where shuffle map outputs are materialized between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleTransport {
    /// Map outputs stay in the producing worker's block manager and are
    /// fetched peer-to-peer (the Spark/VM model).
    WorkerMemory,
    /// Map outputs are written to the durable store at commit and read
    /// back from it by reducers (the serverless model — invocations
    /// cannot serve remote reads after returning).
    ExternalStore,
}

/// Returned by [`Backend::on_task_admitted`] when the task counts as a
/// billable invocation.
#[derive(Debug, Clone, Copy)]
pub struct InvocationStart {
    /// Monotone invocation id (1-based, admission order).
    pub(crate) invocation: u64,
    /// Cold-start latency in virtual millis (0 for a warm container).
    pub(crate) cold_ms: u64,
    /// Startup overhead added to the task's duration (warm or cold).
    pub(crate) overhead: SimDuration,
}

/// Returned by [`Backend::on_task_committed`] when the task produced a
/// per-invocation bill.
#[derive(Debug, Clone, Copy)]
pub struct InvocationBill {
    /// GB-seconds consumed: task duration × function memory.
    pub(crate) gb_seconds: f64,
    /// Dollars charged: GB-seconds × rate + per-request fee.
    pub(crate) cost: f64,
}

/// The executor/cluster seam: how workers are provisioned and billed
/// and how shuffle data moves between stages.
///
/// All hooks run on the driver thread at deterministic points
/// (admission and commit order are both fixed by the wave executor's
/// `TaskKey` ordering), so a backend may consume seeded randomness and
/// still replay byte-identically at any `host_threads` setting.
pub trait Backend {
    /// Which substrate this backend models.
    fn kind(&self) -> BackendKind;

    /// Where shuffle map outputs are materialized.
    fn shuffle_transport(&self) -> ShuffleTransport {
        ShuffleTransport::WorkerMemory
    }

    /// Called once per admitted task, before its duration is fixed.
    /// `start` is the instant the task will begin executing on its
    /// reserved core. Return `Some` to charge startup overhead and
    /// register a billable invocation; the default (VM) registers
    /// nothing.
    fn on_task_admitted(&mut self, _worker: WorkerId, _start: SimTime) -> Option<InvocationStart> {
        None
    }

    /// Called once per committed task (commit order). Return `Some` to
    /// emit a per-invocation bill.
    fn on_task_committed(
        &mut self,
        _worker: WorkerId,
        _duration: SimDuration,
        _now: SimTime,
    ) -> Option<InvocationBill> {
        None
    }

    /// Total compute dollars billed so far. VM backends return 0.0 —
    /// their compute cost is owned by the market layer.
    fn compute_cost(&self) -> f64 {
        0.0
    }

    /// Invocations admitted so far.
    fn invocations(&self) -> u64 {
        0
    }

    /// Invocations billed so far. Can trail [`Backend::invocations`]:
    /// billing fires at task commit, and tasks still in flight when the
    /// run's final job completes are admitted but never committed.
    fn invocations_billed(&self) -> u64 {
        0
    }

    /// Σ GB-seconds billed so far.
    fn billed_gb_seconds(&self) -> f64 {
        0.0
    }

    /// Invocations that paid a cold-start penalty. VM backends have no
    /// invocation lifecycle, so the default is 0.
    fn cold_starts(&self) -> u64 {
        0
    }
}

/// The transient-VM backend: today's `Cluster` semantics, unchanged.
///
/// Every hook is an exact no-op — no randomness, no overhead, no
/// events — so a driver carrying this backend is byte-identical to the
/// pre-abstraction engine. Worker lifecycle stays with the
/// [`FailureInjector`](crate::FailureInjector) and billing with the
/// market layer's `InstanceBilled` stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransientVmBackend;

impl Backend for TransientVmBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::TransientVm
    }
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
/// so that Σ `InvocationBilled` events equals [`Backend::compute_cost`]
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
}

impl Backend for ServerlessBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Serverless
    }

    fn shuffle_transport(&self) -> ShuffleTransport {
        ShuffleTransport::ExternalStore
    }

    fn on_task_admitted(&mut self, worker: WorkerId, start: SimTime) -> Option<InvocationStart> {
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
        Some(InvocationStart {
            invocation: self.invocations,
            cold_ms,
            overhead,
        })
    }

    fn on_task_committed(
        &mut self,
        worker: WorkerId,
        duration: SimDuration,
        now: SimTime,
    ) -> Option<InvocationBill> {
        self.billed += 1;
        let gb_seconds = duration.as_secs_f64() * self.cfg.memory_gb;
        let cost = gb_seconds * PRICE_PER_GB_SECOND + PRICE_PER_INVOCATION;
        self.gb_seconds += gb_seconds;
        self.cost += cost;
        let horizon = now + KEEPALIVE;
        let entry = self.warm_until.entry(worker).or_insert(horizon);
        *entry = (*entry).max(horizon);
        Some(InvocationBill { gb_seconds, cost })
    }

    fn compute_cost(&self) -> f64 {
        self.cost
    }

    fn invocations(&self) -> u64 {
        self.invocations
    }

    fn invocations_billed(&self) -> u64 {
        self.billed
    }

    fn billed_gb_seconds(&self) -> f64 {
        self.gb_seconds
    }

    fn cold_starts(&self) -> u64 {
        self.invocations - self.warm_invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_backend_is_a_total_no_op() {
        let mut b = TransientVmBackend;
        assert_eq!(b.kind(), BackendKind::TransientVm);
        assert_eq!(b.shuffle_transport(), ShuffleTransport::WorkerMemory);
        assert!(b.on_task_admitted(WorkerId(1), SimTime::ZERO).is_none());
        assert!(b
            .on_task_committed(WorkerId(1), SimDuration::from_secs(1), SimTime::ZERO)
            .is_none());
        assert_eq!(b.compute_cost(), 0.0);
        assert_eq!(b.invocations(), 0);
        assert_eq!(b.billed_gb_seconds(), 0.0);
    }

    #[test]
    fn cold_then_warm_then_cold_after_keepalive() {
        let mut b = ServerlessBackend::new(ServerlessConfig::default(), 7);
        let w = WorkerId(0);
        let first = b.on_task_admitted(w, SimTime::ZERO).unwrap();
        assert!(first.cold_ms >= 150, "first touch must be cold");
        // A task starting immediately after hits the warm container.
        let t1 = SimTime::ZERO + first.overhead + SimDuration::from_secs(1);
        let second = b.on_task_admitted(w, t1).unwrap();
        assert_eq!(second.cold_ms, 0);
        assert_eq!(second.overhead, SimDuration::from_millis(5));
        // Past the keepalive horizon the container is cold again.
        let t2 = t1 + second.overhead + KEEPALIVE + SimDuration::from_secs(1);
        let third = b.on_task_admitted(w, t2).unwrap();
        assert!(third.cold_ms >= 150);
        assert_eq!(b.invocations(), 3);
        // A different slot is always cold on first touch.
        let other = b.on_task_admitted(WorkerId(1), t1).unwrap();
        assert!(other.cold_ms >= 150);
    }

    #[test]
    fn same_seed_replays_identical_draws() {
        let draws = |seed: u64| -> Vec<u64> {
            let mut b = ServerlessBackend::new(ServerlessConfig::default(), seed);
            (0..20)
                .map(|i| {
                    b.on_task_admitted(WorkerId(i), SimTime::ZERO)
                        .unwrap()
                        .cold_ms
                })
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
            let bill = b
                .on_task_committed(WorkerId((i % 4) as u32), dur, SimTime::ZERO)
                .unwrap();
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
