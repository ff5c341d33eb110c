//! The node manager: provisioning, monitoring, warning handling, and
//! replacement of transient servers (paper §4, Fig. 5).

use std::sync::{Arc, Mutex};

use flint_engine::{FailureInjector, WorkerEvent, WorkerSpec};
use flint_market::{CloudSim, HazardModel, InstanceEvent, InstanceId, Market, MarketId};
use flint_simtime::{lock, SimDuration, SimTime};
use flint_store::StorageConfig;

use crate::selection::{mttf_of_rate, mttf_rate, STATS_WINDOW};
use crate::{
    harmonic_mttf, BidPolicy, FtSharedHandle, JobProfile, MarketView, SelectionConfig,
    SelectionPolicy,
};

/// Converts a market's instance shape into an engine worker spec
/// (Spark-style 40 % of RAM reserved for the RDD cache, §5.5).
pub(crate) fn worker_spec(market: &Market) -> WorkerSpec {
    WorkerSpec {
        cores: market.spec.vcpus.max(1),
        cache_mem_bytes: (market.spec.mem_gb * 0.4 * 1e9) as u64,
        disk_bytes: (market.spec.local_ssd_gb * 1e9) as u64,
    }
}

struct NmInner {
    cloud: CloudSim,
    policy: Box<dyn SelectionPolicy>,
    bid: BidPolicy,
    cfg: SelectionConfig,
    job: JobProfile,
    storage: StorageConfig,
    n: u32,
    ft: FtSharedHandle,
    /// Per instance id, whether the instance was warned and its
    /// replacement already requested; the flag clears at its revocation,
    /// so only the instances in flight are set. Ids are dense, so the
    /// flags are indexed by id, grown on demand.
    replaced: Vec<bool>,
    /// Count of replacement rounds, for reporting.
    replacements: u64,
    /// When the age-dependent hazard was last re-fitted (unused under
    /// the memoryless default).
    last_hazard_refit: SimTime,
}

/// How often an age-dependent hazard re-fits the cluster MTTF between
/// membership changes (ages drift continuously; τ only needs periodic
/// nudges).
const HAZARD_REFIT_INTERVAL: SimDuration = SimDuration::from_mins(5);

impl NmInner {
    fn view<'a>(
        cloud: &'a CloudSim,
        cfg: &'a SelectionConfig,
        job: &'a JobProfile,
        storage: StorageConfig,
        bid: BidPolicy,
        n: u32,
        now: SimTime,
    ) -> MarketView<'a> {
        MarketView {
            catalog: cloud.catalog(),
            now,
            bid,
            cfg,
            job,
            storage,
            n,
            cooled: &[],
        }
    }

    fn request_allocation(&mut self, alloc: &[(MarketId, u32)], now: SimTime) {
        let total: u32 = alloc.iter().map(|(_, c)| *c).sum();
        let risk = self.policy.decision_risk();
        for (market, count) in alloc {
            self.cloud
                .trace()
                .emit_with(now, || flint_engine::EventKind::MarketSelected {
                    market: u64::from(market.0),
                    workers: u64::from(*count),
                });
            if let Some(risk) = risk {
                self.cloud
                    .trace()
                    .emit_with(now, || flint_engine::EventKind::PortfolioWeight {
                        market: u64::from(market.0),
                        weight: f64::from(*count) / f64::from(total.max(1)),
                        count: u64::from(*count),
                        risk,
                    });
            }
            let m = self.cloud.catalog().market(*market);
            let bid = self.bid.bid_for(m);
            for _ in 0..*count {
                self.cloud.request(*market, bid, now);
            }
        }
        self.refresh_cluster_mttf(now);
    }

    /// Recomputes the aggregate cluster MTTF and publishes it to the FT
    /// manager. Under the memoryless default this is Eq. 3 over the
    /// distinct markets of active instances, byte-for-byte the legacy
    /// pipeline; under an age-dependent hazard each active instance
    /// contributes both its market's price-implied MTTF and its
    /// age-conditioned mean residual lifetime (two independent
    /// revocation sources, so their rates add into the harmonic
    /// combination), and a `HazardRefit` event records the re-fit.
    fn refresh_cluster_mttf(&mut self, now: SimTime) {
        let agg = if self.cfg.hazard.is_memoryless() {
            // The cloud's per-market index already holds the distinct
            // active markets in sorted order — no instance scan.
            let mttfs: Vec<SimDuration> = self
                .cloud
                .active_markets()
                .map(|(mid, _)| {
                    let m = self.cloud.catalog().market(mid);
                    m.stats(now, STATS_WINDOW, self.bid.bid_for(m)).mttf
                })
                .collect();
            harmonic_mttf(&mttfs)
        } else {
            self.hazard_cluster_mttf(now)
        };
        self.cloud
            .trace()
            .emit_with(now, || flint_engine::EventKind::MttfUpdated {
                mttf_ms: agg.as_millis(),
            });
        let mut ft = lock(&self.ft);
        ft.mttf = agg;
    }

    /// Age-aware cluster MTTF under the configured hazard model.
    fn hazard_cluster_mttf(&mut self, now: SimTime) -> SimDuration {
        let hazard = self.cfg.hazard.build(SimDuration::MAX);
        // Market MTTFs are pure functions of (market, now); resolve each
        // distinct active market's rate term once instead of per
        // instance. The index yields markets in id order, so the few
        // entries are sorted for binary search.
        let market_rate: Vec<(MarketId, Option<f64>)> = self
            .cloud
            .active_markets()
            .map(|(mid, _)| {
                let m = self.cloud.catalog().market(mid);
                let mttf = m.stats(now, STATS_WINDOW, self.bid.bid_for(m)).mttf;
                (mid, mttf_rate(mttf))
            })
            .collect();
        let cloud = &self.cloud;
        // The active index iterates in id order, matching the historical
        // full-scan component order exactly.
        let active = cloud.active().map(|id| {
            let r = cloud.instance(id);
            let at = market_rate
                .binary_search_by_key(&r.market, |(m, _)| *m)
                .expect("an active instance's market is in the active-market index");
            (market_rate[at].1, r.ready_at)
        });
        let (rate, instances) = hazard_refit_rate(now, hazard.as_ref(), active);
        let agg = mttf_of_rate(rate);
        self.cloud
            .trace()
            .emit_with(now, || flint_engine::EventKind::HazardRefit {
                model: hazard.name().to_string(),
                mttf_ms: agg.as_millis(),
                instances,
            });
        agg
    }

    fn provision_initial(&mut self, now: SimTime) {
        let alloc = {
            let view = Self::view(
                &self.cloud,
                &self.cfg,
                &self.job,
                self.storage,
                self.bid,
                self.n,
                now,
            );
            self.policy.initial(&view)
        };
        self.request_allocation(&alloc, now);
    }

    /// Drains cloud events up to `to`, translating them into engine
    /// worker events and requesting replacements for warned/revoked
    /// instances (grouped per failed market, §3.2.2 restoration).
    fn collect_events(&mut self, to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        let mut out = Vec::new();
        loop {
            let evs = self.cloud.events_until(to);
            if evs.is_empty() {
                break;
            }
            // (time, failed market) -> instances needing replacement.
            let mut to_replace: Vec<(SimTime, MarketId, u32)> = Vec::new();
            for (t, ev) in evs {
                let id = ev.instance();
                let ext_id = id.0;
                let market = self.cloud.instance(id).market;
                match ev {
                    InstanceEvent::Ready { .. } => {
                        let spec = worker_spec(self.cloud.catalog().market(market));
                        out.push((t, WorkerEvent::Add { ext_id, spec }));
                    }
                    InstanceEvent::Warning { .. } => {
                        out.push((t, WorkerEvent::Warn { ext_id }));
                        let at = id.0 as usize;
                        if at >= self.replaced.len() {
                            self.replaced.resize(at + 1, false);
                        }
                        if !std::mem::replace(&mut self.replaced[at], true) {
                            merge_replace(&mut to_replace, t, market);
                        }
                    }
                    InstanceEvent::Revoked { .. } => {
                        out.push((t, WorkerEvent::Remove { ext_id }));
                        // A warned instance was replaced at its warning;
                        // an unwarned one is replaced now. Either way its
                        // id is never delivered again.
                        let warned = self
                            .replaced
                            .get_mut(id.0 as usize)
                            .is_some_and(|f| std::mem::replace(f, false));
                        if !warned {
                            merge_replace(&mut to_replace, t, market);
                        }
                    }
                }
            }
            for (t, failed, count) in to_replace {
                let alloc = {
                    let view = Self::view(
                        &self.cloud,
                        &self.cfg,
                        &self.job,
                        self.storage,
                        self.bid,
                        self.n,
                        t,
                    );
                    self.policy.replacement(&view, failed, count)
                };
                self.replacements += 1;
                let round = self.replacements;
                self.cloud
                    .trace()
                    .emit_with(t, || flint_engine::EventKind::ReplacementRound {
                        round,
                        lost: u64::from(count),
                        requested: alloc.iter().map(|(_, c)| u64::from(*c)).sum(),
                    });
                self.request_allocation(&alloc, t);
            }
            // Replacement requests may schedule Ready events ≤ `to`;
            // loop to pick them up.
        }
        // Between membership changes, instance ages still advance; an
        // age-dependent hazard periodically re-fits τ's MTTF input.
        // No-op (and no events) under the memoryless default.
        if !self.cfg.hazard.is_memoryless() && to >= self.last_hazard_refit + HAZARD_REFIT_INTERVAL
        {
            self.last_hazard_refit = to;
            self.refresh_cluster_mttf(to);
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

/// Eq. 3's rate sum under an age-dependent hazard, folded in place over
/// the active instances as `(market rate term, ready_at)` in id order.
/// Each instance adds its market's term, then the term of its
/// age-conditioned mean residual: the summation order of the
/// per-instance component list this replaced, so the sum is
/// bit-identical to it. Pending instances (ready in the future) have age
/// zero. `mean_residual` runs once per run of equal ages; a replacement
/// batch shares one `ready_at`. Returns the rate and the instance count.
fn hazard_refit_rate(
    now: SimTime,
    hazard: &dyn HazardModel,
    active: impl IntoIterator<Item = (Option<f64>, SimTime)>,
) -> (f64, u64) {
    let mut rate = 0.0;
    let mut instances = 0u64;
    let mut last: Option<(SimDuration, Option<f64>)> = None;
    for (market_term, ready_at) in active {
        let age = now.duration_since(ready_at);
        let residual_term = match last {
            Some((seen, term)) if seen == age => term,
            _ => {
                let term = mttf_rate(hazard.mean_residual(age));
                last = Some((age, term));
                term
            }
        };
        if let Some(term) = market_term {
            rate += term;
        }
        if let Some(term) = residual_term {
            rate += term;
        }
        instances += 1;
    }
    (rate, instances)
}

fn merge_replace(list: &mut Vec<(SimTime, MarketId, u32)>, t: SimTime, market: MarketId) {
    for (lt, lm, lc) in list.iter_mut() {
        if *lm == market && *lt == t {
            *lc += 1;
            return;
        }
    }
    list.push((t, market, 1));
}

/// The node manager, used as the engine's [`FailureInjector`].
///
/// Cloneable handle semantics: [`NodeManager`] (given to the driver) and
/// [`NodeManagerHandle`] (kept by the caller for cost queries) share the
/// same state.
pub struct NodeManager(Arc<Mutex<NmInner>>);

/// A cloneable query handle onto a running [`NodeManager`].
#[derive(Clone)]
pub struct NodeManagerHandle(Arc<Mutex<NmInner>>);

impl NodeManager {
    /// Creates a node manager over `cloud`, provisioning `n` servers with
    /// `policy` at `start`. Returns the injector (for the driver) and a
    /// query handle (for the caller).
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        cloud: CloudSim,
        policy: Box<dyn SelectionPolicy>,
        bid: BidPolicy,
        cfg: SelectionConfig,
        job: JobProfile,
        storage: StorageConfig,
        n: u32,
        ft: FtSharedHandle,
        start: SimTime,
    ) -> (NodeManager, NodeManagerHandle) {
        let mut inner = NmInner {
            cloud,
            policy,
            bid,
            cfg,
            job,
            storage,
            n,
            ft,
            replaced: Vec::new(),
            replacements: 0,
            last_hazard_refit: start,
        };
        inner.provision_initial(start);
        let arc = Arc::new(Mutex::new(inner));
        (NodeManager(arc.clone()), NodeManagerHandle(arc))
    }

    /// The first instant at which [`FailureInjector::events`] could
    /// return an event or re-fit the MTTF: the next cloud event, or the
    /// next age-aware hazard refit if that comes first. A call with
    /// `to` before this instant returns nothing and changes nothing.
    /// `SimTime::MAX` when neither is pending.
    pub fn quiet_until(&self) -> SimTime {
        let inner = lock(&self.0);
        let next_event = inner.cloud.next_event_time().unwrap_or(SimTime::MAX);
        if inner.cfg.hazard.is_memoryless() {
            next_event
        } else {
            next_event.min(inner.last_hazard_refit + HAZARD_REFIT_INTERVAL)
        }
    }
}

impl FailureInjector for NodeManager {
    fn events(&mut self, _from: SimTime, to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        lock(&self.0).collect_events(to)
    }

    fn next_event_after(&mut self, t: SimTime) -> Option<SimTime> {
        let inner = lock(&self.0);
        inner
            .cloud
            .next_event_time()
            .map(|et| et.max(t + SimDuration::from_millis(1)))
    }
}

impl NodeManagerHandle {
    /// Total compute (instance) cost accrued up to `until`.
    pub fn compute_cost(&self, until: SimTime) -> f64 {
        lock(&self.0).cloud.total_cost(until)
    }

    /// Number of provider revocations observed so far.
    pub fn revocations(&self) -> u64 {
        lock(&self.0).cloud.revocation_count()
    }

    /// Number of replacement rounds the restoration policy executed.
    pub fn replacements(&self) -> u64 {
        lock(&self.0).replacements
    }

    /// Always 0: the node manager has no circuit breakers. Kept
    /// because the benchmark reads it.
    pub fn breaker_trips(&self) -> u64 {
        0
    }

    /// Always 0: the node manager has no on-demand backstop. Kept
    /// because the benchmark reads it.
    pub fn backstop_workers(&self) -> u64 {
        0
    }

    /// The selection policy's name.
    pub(crate) fn policy_name(&self) -> &'static str {
        lock(&self.0).policy.name()
    }

    /// Distinct markets currently backing active instances (sorted — the
    /// cloud's per-market index maintains them, no instance scan).
    pub fn active_markets(&self) -> Vec<MarketId> {
        let inner = lock(&self.0);
        inner.cloud.active_markets().map(|(m, _)| m).collect()
    }

    /// The on-demand price of the catalog's on-demand pool.
    pub fn on_demand_price(&self) -> f64 {
        let inner = lock(&self.0);
        let cat = inner.cloud.catalog();
        cat.market(cat.on_demand_id()).on_demand_price
    }

    /// Terminates every active instance at `now` (end of job).
    pub fn shutdown(&self, now: SimTime) {
        let mut inner = lock(&self.0);
        let ids: Vec<InstanceId> = inner.cloud.active().collect();
        for id in ids {
            inner.cloud.terminate(id, now);
        }
    }

    /// Runs `f` with the underlying cloud simulator (read-only).
    pub fn with_cloud<R>(&self, f: impl FnOnce(&CloudSim) -> R) -> R {
        f(&lock(&self.0).cloud)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt_policy::new_shared;
    use crate::{BatchSelection, InteractiveSelection};
    use flint_market::{CappedLifetimeHazard, HazardSpec, MarketCatalog};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The refit before it was folded in place, transcribed: a map of
    /// market MTTFs, two components per instance, and the harmonic sum.
    /// Returns the aggregate MTTF, the rate it inverts, and the instance
    /// count.
    fn reference_refit(
        now: SimTime,
        hazard: &dyn HazardModel,
        market_mttf: &HashMap<MarketId, SimDuration>,
        active: &[(MarketId, SimTime)],
    ) -> (SimDuration, f64, u64) {
        let mut components: Vec<SimDuration> = Vec::new();
        let mut instances = 0u64;
        for (market, ready_at) in active {
            let age = if now > *ready_at {
                now.duration_since(*ready_at)
            } else {
                SimDuration::ZERO
            };
            components.push(market_mttf[market]);
            components.push(hazard.mean_residual(age));
            instances += 1;
        }
        let mut rate = 0.0;
        for m in &components {
            if *m == SimDuration::MAX {
                continue;
            }
            rate += 1.0 / m.as_hours_f64().max(1e-9);
        }
        let agg = if rate <= 0.0 {
            SimDuration::MAX
        } else {
            SimDuration::from_hours_f64(1.0 / rate)
        };
        (agg, rate, instances)
    }

    fn arb_mttf() -> impl Strategy<Value = SimDuration> {
        prop_oneof![
            Just(SimDuration::MAX),
            (1u64..200 * 3_600_000).prop_map(SimDuration::from_millis),
            (1u64..10_000).prop_map(SimDuration::from_millis),
        ]
    }

    /// Offset of a run's `ready_at` from `now`, in ms: negative is an age,
    /// positive a pending instance. The fixed arms make equal `ready_at`s
    /// recur across runs that are not adjacent.
    fn arb_ready_offset() -> impl Strategy<Value = i64> {
        const H: i64 = 3_600_000;
        prop_oneof![
            -60 * H..12 * H,
            -60 * H..12 * H,
            Just(-30 * H),
            Just(-5 * H),
            Just(0),
            Just(H),
        ]
    }

    proptest! {
        /// The in-place fold returns bit-for-bit the rate, MTTF and
        /// instance count of the transcribed map + component-list fold, over
        /// several markets (one possibly on-demand, MTTF = MAX), pending
        /// instances, ages past the cap, and runs of equal `ready_at`
        /// interleaved with unequal ones.
        #[test]
        fn hazard_refit_matches_transcribed_fold(
            mttfs in vec(arb_mttf(), 1..6),
            runs in vec((arb_ready_offset(), vec(0usize..6, 1..6)), 0..40),
            early_prob in 0.0f64..1.0,
            cap_hours in 1.0f64..48.0,
        ) {
            let now = SimTime::ZERO + SimDuration::from_days(100);
            let hazard = CappedLifetimeHazard::new(early_prob, cap_hours);
            let market_mttf: HashMap<MarketId, SimDuration> = mttfs
                .iter()
                .enumerate()
                .map(|(i, m)| (MarketId(i as u32), *m))
                .collect();
            let n_markets = mttfs.len();
            let active: Vec<(MarketId, SimTime)> = runs
                .iter()
                .flat_map(|(offset, markets)| {
                    let ready_at = SimTime::from_millis(
                        now.as_millis().checked_add_signed(*offset).expect("in range"),
                    );
                    markets
                        .iter()
                        .map(move |m| (MarketId((m % n_markets) as u32), ready_at))
                })
                .collect();
            let (want_mttf, want_rate, want_instances) =
                reference_refit(now, &hazard, &market_mttf, &active);
            let (rate, instances) = hazard_refit_rate(
                now,
                &hazard,
                active
                    .iter()
                    .map(|(m, ready_at)| (mttf_rate(market_mttf[m]), *ready_at)),
            );
            // The rate, not only the millisecond MTTF it rounds to, so a
            // change of summation order cannot hide in the rounding.
            prop_assert_eq!(rate.to_bits(), want_rate.to_bits());
            prop_assert_eq!(mttf_of_rate(rate), want_mttf);
            prop_assert_eq!(instances, want_instances);
        }
    }

    /// On a live heterogeneous cluster under a capped-lifetime hazard, the
    /// node manager's refit (market-rate lookup included) equals the
    /// transcribed fold over the same cloud state at every probe time.
    #[test]
    fn hazard_cluster_mttf_matches_transcribed_fold_on_a_live_cluster() {
        let catalog = MarketCatalog::synthetic_ec2(13, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, 13);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let cfg = SelectionConfig {
            hazard: HazardSpec::CappedLifetime {
                early_prob: 0.3,
                cap_hours: 24.0,
            },
            ..SelectionConfig::default()
        };
        let (mut nm, _handle) = NodeManager::launch(
            cloud,
            Box::new(InteractiveSelection::default()),
            BidPolicy::OnDemandPrice,
            cfg,
            JobProfile::default(),
            StorageConfig::default(),
            12,
            new_shared(SimDuration::MAX),
            start,
        );
        for day in 1..=6 {
            let t = start + SimDuration::from_days(day);
            let _ = nm.events(t - SimDuration::from_days(1), t);
            let mut inner = lock(&nm.0);
            let hazard = inner.cfg.hazard.build(SimDuration::MAX);
            let market_mttf: HashMap<MarketId, SimDuration> = inner
                .cloud
                .active_markets()
                .map(|(mid, _)| {
                    let m = inner.cloud.catalog().market(mid);
                    let bid = inner.bid.bid_for(m);
                    (mid, m.stats(t, STATS_WINDOW, bid).mttf)
                })
                .collect();
            let active: Vec<(MarketId, SimTime)> = inner
                .cloud
                .active()
                .map(|id| {
                    let r = inner.cloud.instance(id);
                    (r.market, r.ready_at)
                })
                .collect();
            let want = reference_refit(t, hazard.as_ref(), &market_mttf, &active);
            assert_eq!(inner.hazard_cluster_mttf(t), want.0, "day {day}");
            assert!(market_mttf.len() >= 2, "interactive spans markets");
        }
    }

    fn launch_nm(
        policy: Box<dyn SelectionPolicy>,
        n: u32,
    ) -> (NodeManager, NodeManagerHandle, SimTime) {
        let catalog = MarketCatalog::synthetic_ec2(13, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, 13);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let ft = new_shared(SimDuration::MAX);
        let (nm, handle) = NodeManager::launch(
            cloud,
            policy,
            BidPolicy::OnDemandPrice,
            SelectionConfig::default(),
            JobProfile::default(),
            StorageConfig::default(),
            n,
            ft,
            start,
        );
        (nm, handle, start)
    }

    #[test]
    fn initial_provisioning_yields_n_ready_workers() {
        let (mut nm, handle, start) = launch_nm(Box::new(BatchSelection), 10);
        let evs = nm.events(start, start + SimDuration::from_mins(5));
        let adds = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Add { .. }))
            .count();
        assert_eq!(adds, 10);
        assert_eq!(handle.policy_name(), "flint-batch");
        assert_eq!(handle.active_markets().len(), 1, "batch = homogeneous");
    }

    #[test]
    fn interactive_provisioning_spans_markets() {
        let (mut nm, handle, start) = launch_nm(Box::new(InteractiveSelection::default()), 12);
        let evs = nm.events(start, start + SimDuration::from_mins(5));
        let adds = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Add { .. }))
            .count();
        assert_eq!(adds, 12);
        assert!(handle.active_markets().len() >= 2);
    }

    #[test]
    fn revocations_trigger_replacements_maintaining_n() {
        let (mut nm, handle, start) = launch_nm(Box::new(BatchSelection), 8);
        // Run a long window so the chosen spot market eventually spikes.
        let horizon = start + SimDuration::from_days(20);
        let evs = nm.events(start, horizon);
        let adds = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Add { .. }))
            .count();
        let removes = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Remove { .. }))
            .count();
        // Every removal is matched by a replacement add (initial 8 extra).
        assert_eq!(adds, removes + 8, "adds {adds}, removes {removes}");
        if removes > 0 {
            assert!(handle.replacements() > 0);
            assert!(handle.revocations() > 0);
        }
        // Warnings precede removals 1:1.
        let warns = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Warn { .. }))
            .count();
        assert_eq!(warns, removes);
    }

    #[test]
    fn replaced_set_holds_only_instances_in_flight() {
        // The 20-day run above: revoked instances leave the set, so it
        // never holds more than the warned instances still in flight.
        let (mut nm, handle, start) = launch_nm(Box::new(BatchSelection), 8);
        let evs = nm.events(start, start + SimDuration::from_days(20));
        let removes = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Remove { .. }))
            .count();
        assert!(removes > 8, "the run must revoke more than the cluster");
        assert!(handle.revocations() > 0);
        let in_flight = lock(&nm.0).replaced.iter().filter(|f| **f).count();
        assert!(in_flight <= 8);
    }

    #[test]
    fn replacement_requested_on_warning_not_revocation() {
        let (mut nm, _handle, start) = launch_nm(Box::new(BatchSelection), 4);
        let horizon = start + SimDuration::from_days(20);
        let evs = nm.events(start, horizon);
        // Find a Warn and its matching Remove; the replacement Add must be
        // ready ~2 min (acquisition) after the warning, i.e. at/near the
        // removal time, not 2 min after it.
        let mut warn_time = None;
        let mut remove_time = None;
        for (t, e) in &evs {
            match e {
                WorkerEvent::Warn { .. } if warn_time.is_none() => warn_time = Some(*t),
                WorkerEvent::Remove { .. } if remove_time.is_none() => remove_time = Some(*t),
                _ => {}
            }
        }
        if let (Some(w), Some(r)) = (warn_time, remove_time) {
            // The first replacement Add after the warning:
            let add_after = evs
                .iter()
                .filter(|(t, e)| *t > w && matches!(e, WorkerEvent::Add { .. }))
                .map(|(t, _)| *t)
                .next();
            if let Some(a) = add_after {
                assert!(
                    a <= r + SimDuration::from_secs(1),
                    "replacement at {a} should be ready by revocation at {r}"
                );
            }
        }
    }

    #[test]
    fn cost_accrues_and_shutdown_stops_it() {
        let (mut nm, handle, start) = launch_nm(Box::new(BatchSelection), 4);
        let mid = start + SimDuration::from_hours(10);
        let _ = nm.events(start, mid);
        let c1 = handle.compute_cost(mid);
        assert!(c1 > 0.0);
        handle.shutdown(mid);
        let c2 = handle.compute_cost(mid + SimDuration::from_hours(10));
        // Terminated instances stop accruing (allow the final billed hour).
        assert!(c2 <= c1 + 4.0 * handle.on_demand_price());
    }

    #[test]
    fn next_event_strictly_advances() {
        let (mut nm, _h, start) = launch_nm(Box::new(BatchSelection), 2);
        let t = nm.next_event_after(start).unwrap();
        assert!(t > start);
    }

    #[test]
    fn ft_shared_mttf_published() {
        let catalog = MarketCatalog::synthetic_ec2(13, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, 13);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let ft = new_shared(SimDuration::MAX);
        let (_nm, _handle) = NodeManager::launch(
            cloud,
            Box::new(BatchSelection),
            BidPolicy::OnDemandPrice,
            SelectionConfig::default(),
            JobProfile::default(),
            StorageConfig::default(),
            6,
            ft.clone(),
            start,
        );
        let mttf = lock(&ft).mttf;
        assert!(
            mttf < SimDuration::MAX,
            "spot cluster must have finite MTTF"
        );
        assert!(mttf > SimDuration::from_hours(1));
    }

    /// `next_event_after(t) > t`, also when a cloud event sits exactly at
    /// `t` and when one is already due but not yet collected.
    #[test]
    fn next_event_is_strictly_after() {
        let (mut nm, _handle, start) = launch_nm(Box::new(BatchSelection), 4);
        let due = nm.next_event_after(start).expect("instances are starting");
        assert!(due > start);
        for t in [
            due - SimDuration::from_millis(1),
            due,
            due + SimDuration::from_secs(60),
        ] {
            let next = nm.next_event_after(t).expect("the event is still pending");
            assert!(next > t, "next_event_after({t:?}) = {next:?}");
        }
    }
}
