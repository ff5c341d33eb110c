//! The cloud front-end: requesting, revoking, and billing instances.

use std::collections::BTreeMap;

use flint_simtime::rng::stream;
use flint_simtime::{EventQueue, SimDuration, SimTime};
use flint_trace::{EventKind, TraceHandle};

use crate::{
    hourly_spot_cost, CappedLifetimeHazard, HazardModel, MarketCatalog, MarketId, MarketKind,
};

/// Identifier of a provisioned instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Requested, waiting out the acquisition delay.
    Pending,
    /// Running and usable.
    Running,
    /// Ended by a provider revocation.
    Revoked,
    /// Ended by the user.
    Terminated,
}

/// A lifecycle event delivered by [`CloudSim::events_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceEvent {
    /// The instance finished acquisition and is now usable.
    Ready {
        /// The instance that became ready.
        id: InstanceId,
    },
    /// The provider issued a revocation warning (EC2: 120 s, GCE: 30 s
    /// before the kill).
    Warning {
        /// The instance about to be revoked.
        id: InstanceId,
    },
    /// The provider revoked the instance; its local state is gone.
    Revoked {
        /// The instance that was revoked.
        id: InstanceId,
    },
}

impl InstanceEvent {
    /// Returns the instance this event concerns.
    pub fn instance(&self) -> InstanceId {
        match *self {
            InstanceEvent::Ready { id }
            | InstanceEvent::Warning { id }
            | InstanceEvent::Revoked { id } => id,
        }
    }
}

/// Accounting record of one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRecord {
    /// The instance id.
    pub(crate) id: InstanceId,
    /// The market it was provisioned from.
    pub market: MarketId,
    /// The bid placed (ignored for fixed-price kinds).
    pub(crate) bid: f64,
    /// When the request was made.
    pub(crate) requested_at: SimTime,
    /// When it became usable.
    pub ready_at: SimTime,
    /// When it ended, if it has.
    pub ended_at: Option<SimTime>,
    /// Current state.
    pub state: InstanceState,
    /// Scheduled provider revocation, if any (simulator internal).
    revocation_at: Option<SimTime>,
    /// Bill settled once when the instance ends (simulator internal);
    /// ended instances never re-walk their price trace.
    final_cost: Option<f64>,
}

impl InstanceRecord {
    /// Returns `true` if the instance is pending or running.
    pub fn is_active(&self) -> bool {
        matches!(self.state, InstanceState::Pending | InstanceState::Running)
    }
}

/// The cloud simulator: markets plus instance lifecycle and billing.
///
/// All methods take the caller's current virtual time; `CloudSim` itself
/// has no clock, which keeps it a passive library usable from any
/// scheduling loop.
///
/// # Examples
///
/// ```
/// use flint_market::{CloudSim, InstanceEvent, MarketCatalog};
/// use flint_simtime::{SimDuration, SimTime};
///
/// let mut cloud = CloudSim::new(MarketCatalog::synthetic_ec2(3, SimDuration::from_days(30)));
/// let m = cloud.catalog().spot_markets()[0].id;
/// let bid = cloud.catalog().market(m).on_demand_price;
/// let id = cloud.request(m, bid, SimTime::ZERO);
///
/// let evs = cloud.events_until(SimTime::ZERO + SimDuration::from_mins(3));
/// assert!(matches!(evs[0].1, InstanceEvent::Ready { .. }));
/// # let _ = id;
/// ```
#[derive(Debug)]
pub struct CloudSim {
    catalog: MarketCatalog,
    instances: Vec<InstanceRecord>,
    events: EventQueue<InstanceEvent>,
    acquisition_delay: SimDuration,
    seed: u64,
    trace: TraceHandle,
    /// Ids of Pending|Running instances, in id order, plus ids that
    /// ended since the last compaction. `request` issues the largest id,
    /// so an insert is a push; an ended id stays until the dead entries
    /// outnumber the live ones, and `active()` skips it. Membership
    /// sweeps are O(active), never O(all instances ever provisioned).
    active: Vec<InstanceId>,
    /// How many ids in `active` are still Pending|Running.
    live: usize,
    /// Active-instance count per market (entries removed at zero), so
    /// "which markets back the cluster" is O(markets in use).
    active_by_market: BTreeMap<MarketId, u32>,
    /// Provider revocations delivered so far.
    revoked: u64,
    /// The last spot revocation instant computed, keyed by `(market,
    /// bid bits, ready_at)`. A replacement batch requests many instances
    /// of one market at one bid at one instant; price traces are
    /// immutable, so reusing the answer is exact.
    last_spot_revocation: Option<((MarketId, u64, SimTime), Option<SimTime>)>,
    /// The last bill settled, keyed by `(market, ready_at, ended_at,
    /// revoked)`: the bill is a function of those four, and a
    /// replacement batch ends together, so its instances share one.
    last_bill: Option<((MarketId, SimTime, SimTime, bool), f64)>,
}

impl CloudSim {
    /// Default EC2 instance acquisition delay (the paper uses two
    /// minutes, §3.1.2).
    pub const DEFAULT_ACQUISITION_DELAY: SimDuration = SimDuration::from_secs(120);
    /// EC2 revocation warning lead time.
    pub const EC2_WARNING: SimDuration = SimDuration::from_secs(120);
    /// GCE revocation warning lead time.
    pub const GCE_WARNING: SimDuration = SimDuration::from_secs(30);

    /// Creates a simulator over `catalog` with default delays and seed 0.
    pub fn new(catalog: MarketCatalog) -> Self {
        Self::with_seed(catalog, 0)
    }

    /// Creates a simulator with an explicit seed for preemptible-lifetime
    /// sampling.
    pub fn with_seed(catalog: MarketCatalog, seed: u64) -> Self {
        CloudSim {
            catalog,
            instances: Vec::new(),
            events: EventQueue::new(),
            acquisition_delay: Self::DEFAULT_ACQUISITION_DELAY,
            seed,
            trace: TraceHandle::disabled(),
            active: Vec::new(),
            live: 0,
            active_by_market: BTreeMap::new(),
            revoked: 0,
            last_spot_revocation: None,
            last_bill: None,
        }
    }

    /// Drops an instance that just ended from the active-side indexes
    /// (on revocation or termination). Its id leaves `active` at the
    /// next compaction, which keeps the live ids in order.
    fn deactivate(&mut self, market: MarketId) {
        self.live -= 1;
        if self.active.len() - self.live > self.live {
            let instances = &self.instances;
            self.active
                .retain(|id| instances[id.0 as usize].is_active());
        }
        if let Some(count) = self.active_by_market.get_mut(&market) {
            *count -= 1;
            if *count == 0 {
                self.active_by_market.remove(&market);
            }
        }
    }

    /// Settles the final bill of an instance that just ended. The bill
    /// of the previous settlement is reused when its key matches: price
    /// traces are immutable, so the reuse is exact.
    fn settle(&mut self, id: InstanceId) {
        let rec = &self.instances[id.0 as usize];
        let ended_at = rec.ended_at.expect("a settled instance has ended");
        let key = (
            rec.market,
            rec.ready_at,
            ended_at,
            rec.state == InstanceState::Revoked,
        );
        let cost = match self.last_bill {
            Some((k, cost)) if k == key => cost,
            _ => {
                let cost = self.instance_cost(id, ended_at);
                self.last_bill = Some((key, cost));
                cost
            }
        };
        self.instances[id.0 as usize].final_cost = Some(cost);
    }

    /// Attaches the shared trace handle; market and instance lifecycle
    /// events (bids, price spikes, billing) are emitted on it.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The simulator's trace handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Returns the market catalog.
    pub fn catalog(&self) -> &MarketCatalog {
        &self.catalog
    }

    /// Requests one instance from `market` at `bid`, at time `now`.
    ///
    /// The instance becomes [`InstanceEvent::Ready`] after the acquisition
    /// delay. Its provider-revocation time (if any) is derived from the
    /// market's price trace (spot), a sampled lifetime (preemptible), or
    /// never (on-demand).
    pub fn request(&mut self, market: MarketId, bid: f64, now: SimTime) -> InstanceId {
        let id = InstanceId(self.instances.len() as u64);
        let ready_at = now + self.acquisition_delay;
        let m = self.catalog.market(market);

        let (revocation_at, warning_lead) = match m.kind {
            MarketKind::Spot => {
                let key = (market, bid.to_bits(), ready_at);
                let rev = match self.last_spot_revocation {
                    Some((k, rev)) if k == key => rev,
                    _ => {
                        let rev = if m.trace.price_at(ready_at) > bid {
                            // Requested into a spike: revoked as soon as
                            // it is ready (in practice EC2 would not fill
                            // the bid; the effect is the same for the
                            // caller).
                            Some(ready_at)
                        } else {
                            m.trace.next_up_crossing(ready_at, bid)
                        };
                        self.last_spot_revocation = Some((key, rev));
                        rev
                    }
                };
                (rev, Self::EC2_WARNING)
            }
            MarketKind::Preemptible {
                early_revocation_prob,
            } => {
                // Lifetimes come from the shared hazard model (same
                // stream label and draw order as the historical inline
                // sampler, so existing traces are unchanged).
                let mut rng = stream(self.seed, &format!("preempt:{}", id.0));
                let hazard = CappedLifetimeHazard::new(early_revocation_prob, 24.0);
                let lifetime = hazard.sample_lifetime(&mut rng);
                (Some(ready_at + lifetime), Self::GCE_WARNING)
            }
            MarketKind::OnDemand => (None, SimDuration::ZERO),
        };

        self.events.schedule(ready_at, InstanceEvent::Ready { id });
        if let Some(rev) = revocation_at {
            let warn_at = rev.saturating_sub(warning_lead).max(ready_at);
            self.events.schedule(warn_at, InstanceEvent::Warning { id });
            self.events.schedule(rev, InstanceEvent::Revoked { id });
        }

        self.instances.push(InstanceRecord {
            id,
            market,
            bid,
            requested_at: now,
            ready_at,
            ended_at: None,
            state: InstanceState::Pending,
            revocation_at,
            final_cost: None,
        });
        self.active.push(id);
        self.live += 1;
        *self.active_by_market.entry(market).or_insert(0) += 1;
        if self.trace.is_enabled() {
            self.trace.emit(
                now,
                EventKind::PriceTick {
                    market: u64::from(market.0),
                    price: m.trace.price_at(now),
                },
            );
            self.trace.emit(
                now,
                EventKind::BidPlaced {
                    market: u64::from(market.0),
                    bid,
                },
            );
            self.trace.emit(
                now,
                EventKind::InstanceRequested {
                    instance: id.0,
                    market: u64::from(market.0),
                },
            );
        }
        id
    }

    /// Terminates an instance at `now` (user-initiated). No-op if already
    /// ended.
    pub fn terminate(&mut self, id: InstanceId, now: SimTime) {
        let (ended, market) = {
            let rec = &mut self.instances[id.0 as usize];
            if !rec.is_active() {
                return;
            }
            rec.state = InstanceState::Terminated;
            rec.ended_at = Some(now.max(rec.requested_at));
            (rec.ended_at.unwrap(), rec.market)
        };
        self.deactivate(market);
        self.settle(id);
        if self.trace.is_enabled() {
            self.trace
                .emit(ended, EventKind::InstanceTerminated { instance: id.0 });
            self.trace.emit(
                ended,
                EventKind::InstanceBilled {
                    instance: id.0,
                    cost: self.instance_cost(id, ended),
                },
            );
        }
    }

    /// Pops all lifecycle events up to and including `t`, in order.
    ///
    /// Events for instances that were terminated in the meantime are
    /// dropped. State transitions (Pending→Running, Running→Revoked) are
    /// applied as events are delivered.
    pub fn events_until(&mut self, t: SimTime) -> Vec<(SimTime, InstanceEvent)> {
        let mut out = Vec::new();
        while let Some((at, ev)) = self.events.pop_before(t) {
            let id = ev.instance();
            let delivered = {
                let rec = &mut self.instances[id.0 as usize];
                match ev {
                    InstanceEvent::Ready { .. } => {
                        if rec.state == InstanceState::Pending {
                            rec.state = InstanceState::Running;
                            true
                        } else {
                            false
                        }
                    }
                    InstanceEvent::Warning { .. } => rec.is_active(),
                    InstanceEvent::Revoked { .. } => {
                        if rec.is_active() {
                            rec.state = InstanceState::Revoked;
                            rec.ended_at = Some(at);
                            true
                        } else {
                            false
                        }
                    }
                }
            };
            if delivered {
                if let InstanceEvent::Revoked { .. } = ev {
                    let market = self.instances[id.0 as usize].market;
                    self.deactivate(market);
                    self.settle(id);
                    self.revoked += 1;
                }
                if self.trace.is_enabled() {
                    self.emit_lifecycle(at, ev);
                }
                out.push((at, ev));
            }
        }
        out
    }

    /// Emits the trace events for one delivered lifecycle event. A
    /// delivered revocation also settles the instance's bill (its cost is
    /// final from that instant) and, on spot markets, records the price
    /// spike that caused it.
    fn emit_lifecycle(&self, at: SimTime, ev: InstanceEvent) {
        let id = ev.instance();
        match ev {
            InstanceEvent::Ready { .. } => {
                self.trace
                    .emit(at, EventKind::InstanceReady { instance: id.0 });
            }
            InstanceEvent::Warning { .. } => {
                self.trace
                    .emit(at, EventKind::InstanceWarned { instance: id.0 });
            }
            InstanceEvent::Revoked { .. } => {
                let rec = self.instance(id);
                let m = self.catalog.market(rec.market);
                if matches!(m.kind, MarketKind::Spot) {
                    let price = m.trace.price_at(at);
                    if price > rec.bid {
                        self.trace.emit(
                            at,
                            EventKind::PriceSpike {
                                market: u64::from(rec.market.0),
                                price,
                                bid: rec.bid,
                            },
                        );
                    }
                }
                self.trace
                    .emit(at, EventKind::InstanceRevoked { instance: id.0 });
                self.trace.emit(
                    at,
                    EventKind::InstanceBilled {
                        instance: id.0,
                        cost: self.instance_cost(id, at),
                    },
                );
            }
        }
    }

    /// Returns the next pending event time, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Returns the record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this simulator.
    pub fn instance(&self, id: InstanceId) -> &InstanceRecord {
        &self.instances[id.0 as usize]
    }

    /// Returns all instance records.
    pub fn instances(&self) -> &[InstanceRecord] {
        &self.instances
    }

    /// Ids of active (pending or running) instances, in id order — a
    /// maintained index, not a scan of every record; no allocation.
    pub fn active(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.active
            .iter()
            .copied()
            .filter(|id| self.instances[id.0 as usize].is_active())
    }

    /// Number of active (pending or running) instances.
    pub fn active_count(&self) -> usize {
        self.live
    }

    /// Markets currently backing at least one active instance, with
    /// their active-instance counts, in market-id order.
    pub fn active_markets(&self) -> impl Iterator<Item = (MarketId, u32)> + '_ {
        self.active_by_market.iter().map(|(m, c)| (*m, *c))
    }

    /// Number of provider revocations delivered so far.
    pub fn revocation_count(&self) -> u64 {
        self.revoked
    }

    /// Computes the bill for instance `id`, accounting up to `until` for
    /// instances still active. Ended instances return their settled
    /// bill without re-walking the market's price trace.
    pub fn instance_cost(&self, id: InstanceId, until: SimTime) -> f64 {
        let rec = self.instance(id);
        if let Some(cost) = rec.final_cost {
            return cost;
        }
        let start = rec.ready_at;
        let (end, revoked) = match rec.state {
            InstanceState::Pending => return 0.0,
            InstanceState::Running => (until, false),
            InstanceState::Revoked => (rec.ended_at.unwrap_or(until), true),
            InstanceState::Terminated => (rec.ended_at.unwrap_or(until), false),
        };
        if end <= start {
            return 0.0;
        }
        let m = self.catalog.market(rec.market);
        hourly_spot_cost(&m.trace, start, end, revoked)
    }

    /// Computes the total bill across all instances up to `until`.
    pub fn total_cost(&self, until: SimTime) -> f64 {
        self.instances
            .iter()
            .map(|r| self.instance_cost(r.id, until))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstanceSpec, Market, MarketCatalog, PriceTrace};

    fn hours(h: f64) -> SimTime {
        SimTime::from_hours_f64(h)
    }

    /// One spot market with a known spike at t = 10 h lasting 1 h, plus
    /// the mandatory on-demand pool.
    fn fixture() -> CloudSim {
        let spot = Market {
            id: MarketId(0),
            name: "spot".into(),
            zone: "z".into(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: 0.40,
            kind: MarketKind::Spot,
            trace: PriceTrace::from_points(vec![
                (hours(0.0), 0.10),
                (hours(10.0), 2.00),
                (hours(11.0), 0.10),
            ]),
        };
        let od = Market {
            id: MarketId(1),
            name: "od".into(),
            zone: "z".into(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: 0.40,
            kind: MarketKind::OnDemand,
            trace: PriceTrace::flat(0.40),
        };
        CloudSim::new(MarketCatalog::new(vec![spot, od], MarketId(1)))
    }

    #[test]
    fn lifecycle_ready_warning_revoked() {
        let mut cloud = fixture();
        let id = cloud.request(MarketId(0), 0.40, SimTime::ZERO);
        let evs = cloud.events_until(hours(24.0));
        let kinds: Vec<_> = evs.iter().map(|(_, e)| *e).collect();
        assert_eq!(
            kinds,
            vec![
                InstanceEvent::Ready { id },
                InstanceEvent::Warning { id },
                InstanceEvent::Revoked { id },
            ]
        );
        // Warning exactly 120 s before the 10 h spike.
        assert_eq!(evs[1].0, hours(10.0) - SimDuration::from_secs(120));
        assert_eq!(evs[2].0, hours(10.0));
        assert_eq!(cloud.instance(id).state, InstanceState::Revoked);
    }

    #[test]
    fn high_bid_survives_spike() {
        let mut cloud = fixture();
        let id = cloud.request(MarketId(0), 3.0, SimTime::ZERO);
        let evs = cloud.events_until(hours(24.0));
        assert_eq!(evs.len(), 1); // only Ready
        assert_eq!(cloud.instance(id).state, InstanceState::Running);
    }

    #[test]
    fn on_demand_never_revoked() {
        let mut cloud = fixture();
        let id = cloud.request(MarketId(1), 0.40, SimTime::ZERO);
        let evs = cloud.events_until(hours(1000.0));
        assert_eq!(evs.len(), 1);
        assert_eq!(cloud.instance(id).state, InstanceState::Running);
    }

    #[test]
    fn termination_suppresses_future_events() {
        let mut cloud = fixture();
        let id = cloud.request(MarketId(0), 0.40, SimTime::ZERO);
        let _ = cloud.events_until(hours(1.0)); // deliver Ready
        cloud.terminate(id, hours(2.0));
        let evs = cloud.events_until(hours(24.0));
        assert!(
            evs.is_empty(),
            "no warning/revocation after terminate: {evs:?}"
        );
        assert_eq!(cloud.instance(id).state, InstanceState::Terminated);
    }

    #[test]
    fn request_into_spike_revokes_at_ready() {
        let mut cloud = fixture();
        // Request at t=10h (price 2.0 > bid 0.4).
        let id = cloud.request(MarketId(0), 0.40, hours(10.0));
        let evs = cloud.events_until(hours(24.0));
        assert_eq!(cloud.instance(id).state, InstanceState::Revoked);
        let rev_time = evs
            .iter()
            .find(|(_, e)| matches!(e, InstanceEvent::Revoked { .. }))
            .unwrap()
            .0;
        assert_eq!(rev_time, hours(10.0) + CloudSim::DEFAULT_ACQUISITION_DELAY);
    }

    #[test]
    fn billing_waives_revoked_partial_hour() {
        let mut cloud = fixture();
        cloud.acquisition_delay = SimDuration::ZERO;
        let id = cloud.request(MarketId(0), 0.40, SimTime::ZERO);
        let _ = cloud.events_until(hours(24.0));
        // Ran [0, 10h) at $0.10 hour-start price; 10 full hours billed,
        // revocation exactly on the boundary of hour 10.
        let c = cloud.instance_cost(id, hours(24.0));
        assert!((c - 1.0).abs() < 1e-9, "cost {c}");
    }

    #[test]
    fn running_instance_billed_up_to_now() {
        let mut cloud = fixture();
        cloud.acquisition_delay = SimDuration::ZERO;
        let id = cloud.request(MarketId(1), 0.40, SimTime::ZERO);
        let _ = cloud.events_until(hours(2.0));
        let c = cloud.instance_cost(id, hours(2.0));
        assert!((c - 0.8).abs() < 1e-9);
        assert!((cloud.total_cost(hours(2.0)) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn preemptible_lifetime_capped_at_24h() {
        let cat = MarketCatalog::synthetic_gce(1, SimDuration::from_days(10));
        let mut cloud = CloudSim::with_seed(cat, 7);
        let mut lifetimes = Vec::new();
        for i in 0..40 {
            let id = cloud.request(MarketId(2), 1.0, hours(i as f64 * 30.0));
            lifetimes.push(id);
        }
        let _ = cloud.events_until(hours(3000.0));
        for id in lifetimes {
            let rec = cloud.instance(id);
            assert_eq!(rec.state, InstanceState::Revoked);
            let life = rec.ended_at.unwrap() - rec.ready_at;
            assert!(life <= SimDuration::from_hours(24));
        }
    }

    #[test]
    fn running_ids_reflect_lifecycle() {
        let mut cloud = fixture();
        let a = cloud.request(MarketId(0), 0.40, SimTime::ZERO);
        let b = cloud.request(MarketId(1), 0.40, SimTime::ZERO);
        let _ = cloud.events_until(hours(1.0));
        assert_eq!(cloud.active().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(cloud.active_count(), 2);
        let _ = cloud.events_until(hours(12.0));
        assert_eq!(cloud.active().collect::<Vec<_>>(), vec![b]);
        assert_eq!(cloud.active_count(), 1);
        assert_eq!(cloud.revocation_count(), 1);
        assert_eq!(
            cloud.active_markets().collect::<Vec<_>>(),
            vec![(MarketId(1), 1)]
        );
        // Ids issued after a compaction keep the index in id order.
        let c = cloud.request(MarketId(0), 3.0, hours(12.0));
        cloud.terminate(b, hours(13.0));
        assert_eq!(cloud.active().collect::<Vec<_>>(), vec![c]);
        assert_eq!(cloud.active_count(), 1);
    }

    /// The bill each ended instance settles equals a fresh
    /// `hourly_spot_cost` over its own record: a batch revoked together
    /// (equal keys, one bill reused), a pending instance terminated at
    /// the batch's instant (its key differs only in `revoked`), and a
    /// pending terminate between two settlements of the batch's key.
    #[test]
    fn batch_bills_equal_fresh_costs() {
        let mut cloud = fixture();
        let spot = MarketId(0);
        let mut ids: Vec<_> = (0..4)
            .map(|_| cloud.request(spot, 0.40, SimTime::ZERO))
            .collect();
        cloud.terminate(ids[3], hours(10.0));
        let _ = cloud.events_until(hours(10.0));
        let pending = cloud.request(spot, 0.40, hours(10.0));
        cloud.terminate(pending, hours(10.0));
        ids.push(pending);
        // Two more of the batch's key: revoked at the same 10 h spike.
        ids.extend((0..2).map(|_| cloud.request(spot, 0.40, SimTime::ZERO)));
        let _ = cloud.events_until(hours(24.0));
        for &id in &ids {
            let rec = cloud.instance(id);
            let end = rec.ended_at.expect("every instance here has ended");
            let fresh = if end <= rec.ready_at {
                0.0
            } else {
                let trace = &cloud.catalog().market(rec.market).trace;
                hourly_spot_cost(
                    trace,
                    rec.ready_at,
                    end,
                    rec.state == InstanceState::Revoked,
                )
            };
            assert_eq!(
                cloud.instance_cost(id, hours(48.0)).to_bits(),
                fresh.to_bits(),
                "{id:?} {:?}",
                rec.state
            );
        }
        let states: Vec<_> = ids.iter().map(|id| cloud.instance(*id).state).collect();
        use InstanceState::{Revoked, Terminated};
        assert_eq!(
            states,
            [Revoked, Revoked, Revoked, Terminated, Terminated, Revoked, Revoked]
        );
        // The terminated twin pays the partial hour the revoked ones are
        // waived, so a bill keyed without `revoked` would be wrong.
        assert!(
            cloud.instance_cost(ids[3], hours(48.0)) > cloud.instance_cost(ids[0], hours(48.0))
        );
    }
}
