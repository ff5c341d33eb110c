//! Equivalence suites for the event-driven simulation core: every
//! indexed fast path (price-trace prefix sums, segment-tree up-crossing
//! search, maintained CloudSim active/running sets) must agree with a
//! transcribed linear/full-scan reference on arbitrary inputs.

use std::collections::{BTreeMap, BTreeSet};

use flint::core::{
    new_shared, BatchSelection, BidPolicy, JobProfile, NodeManager, SelectionConfig,
};
use flint::engine::FailureInjector;
use flint::market::{
    CloudSim, HazardSpec, InstanceEvent, InstanceId, InstanceSpec, InstanceState, Market,
    MarketCatalog, MarketId, MarketKind, PriceTrace, TraceGenerator, TraceProfile,
};
use flint::simtime::rng::stream;
use flint::simtime::{EventQueue, SimDuration, SimTime};
use flint::store::StorageConfig;
use proptest::prelude::*;
use rand::Rng;

fn arb_trace() -> impl Strategy<Value = PriceTrace> {
    (0u64..100, 0.05f64..0.5).prop_map(|(seed, od)| {
        let gen = TraceGenerator::new(seed, SimTime::ZERO + SimDuration::from_days(60));
        gen.generate("prop", &TraceProfile::volatile(od))
    })
}

/// The pre-index `mean_price`: walk the segment and accumulate
/// price-weighted durations linearly.
fn mean_price_linear(trace: &PriceTrace, from: SimTime, to: SimTime) -> f64 {
    if to <= from {
        return trace.price_at(from);
    }
    let seg = trace.segment(from, to);
    let mut acc = 0.0;
    for (i, &(t, p)) in seg.iter().enumerate() {
        let end = if i + 1 < seg.len() { seg[i + 1].0 } else { to };
        acc += p * (end - t).as_millis() as f64;
    }
    acc / (to - from).as_millis() as f64
}

/// The pre-index `next_up_crossing`: scan every change point after `t`,
/// tracking the above/below state.
fn next_up_crossing_linear(trace: &PriceTrace, t: SimTime, threshold: f64) -> Option<SimTime> {
    let mut above = trace.price_at(t) > threshold;
    for &(pt, p) in trace.points() {
        if pt <= t {
            continue;
        }
        let now_above = p > threshold;
        if now_above && !above {
            return Some(pt);
        }
        above = now_above;
    }
    None
}

fn up_crossings_linear(
    trace: &PriceTrace,
    from: SimTime,
    to: SimTime,
    threshold: f64,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut cur = from;
    while let Some(t) = next_up_crossing_linear(trace, cur, threshold) {
        if t >= to {
            break;
        }
        out.push(t);
        cur = t;
    }
    out
}

/// The pre-change `mttf_at`: the window over the length of the
/// collected crossing list, `window * 10` when it is empty.
fn mttf_at_collected(crossings: &[SimTime], from: SimTime, to: SimTime) -> SimDuration {
    let window = to - from;
    if window.is_zero() {
        return SimDuration::MAX;
    }
    let n = crossings.len() as u64;
    if n == 0 {
        window * 10
    } else {
        window / n
    }
}

/// Two spot markets with hand-placed spikes plus the on-demand pool.
/// Market 0 spikes to 2.0 over [10 h, 11 h) and [30 h, 31 h); market 1
/// to 1.0 over [20 h, 21 h) and to 2.0 over [40 h, 41 h). A 0.4 bid is
/// revoked by every spike, a 1.5 bid only by the 2.0 ones.
fn spiky_catalog() -> MarketCatalog {
    let h = SimTime::from_hours_f64;
    let spot = |id: u32, spikes: [(f64, f64, f64); 2]| Market {
        id: MarketId(id),
        name: format!("spot-{id}"),
        zone: "z".into(),
        spec: InstanceSpec::R3_LARGE,
        on_demand_price: 0.4,
        kind: MarketKind::Spot,
        trace: PriceTrace::from_points(
            std::iter::once((SimTime::ZERO, 0.1))
                .chain(
                    spikes
                        .iter()
                        .flat_map(|&(on, off, peak)| [(h(on), peak), (h(off), 0.1)]),
                )
                .collect(),
        ),
    };
    let od = Market {
        id: MarketId(2),
        name: "od".into(),
        zone: "z".into(),
        spec: InstanceSpec::R3_LARGE,
        on_demand_price: 0.4,
        kind: MarketKind::OnDemand,
        trace: PriceTrace::flat(0.4),
    };
    MarketCatalog::new(
        vec![
            spot(0, [(10.0, 11.0, 2.0), (30.0, 31.0, 2.0)]),
            spot(1, [(20.0, 21.0, 1.0), (40.0, 41.0, 2.0)]),
            od,
        ],
        MarketId(2),
    )
}

const SPIKY_BIDS: [f64; 2] = [0.4, 1.5];
/// Request instants in hours; 10 h lands the instance in market 0's
/// first spike (ready 2 min later, still inside it).
const SPIKY_HOURS: [f64; 4] = [0.0, 10.0, 19.5, 25.0];

/// Requests `(market, bid, now)` in order on a fresh simulator and
/// returns every lifecycle event up to the horizon.
fn delivered(requests: &[(MarketId, f64, SimTime)]) -> Vec<(SimTime, InstanceEvent)> {
    let mut cloud = CloudSim::new(spiky_catalog());
    for &(m, bid, now) in requests {
        cloud.request(m, bid, now);
    }
    cloud.events_until(SimTime::from_hours_f64(100.0))
}

/// The lifecycle stream with every revocation instant computed afresh
/// per request: `request`'s scheduling, transcribed, with no memo.
fn delivered_fresh(requests: &[(MarketId, f64, SimTime)]) -> Vec<(SimTime, InstanceEvent)> {
    let catalog = spiky_catalog();
    let mut queue = EventQueue::new();
    for (i, &(m, bid, now)) in requests.iter().enumerate() {
        let id = InstanceId(i as u64);
        let ready_at = now + CloudSim::DEFAULT_ACQUISITION_DELAY;
        let trace = &catalog.market(m).trace;
        let rev = if trace.price_at(ready_at) > bid {
            Some(ready_at)
        } else {
            trace.next_up_crossing(ready_at, bid)
        };
        queue.schedule(ready_at, InstanceEvent::Ready { id });
        if let Some(rev) = rev {
            let warn_at = rev.saturating_sub(CloudSim::EC2_WARNING).max(ready_at);
            queue.schedule(warn_at, InstanceEvent::Warning { id });
            queue.schedule(rev, InstanceEvent::Revoked { id });
        }
    }
    let mut out = Vec::new();
    while let Some(ev) = queue.pop_before(SimTime::from_hours_f64(100.0)) {
        out.push(ev);
    }
    out
}

/// `CloudSim::request` reuses the last spot revocation instant when the
/// next request has the same market, bid and instant. Each pair below
/// shares two of the three and differs in the third, and the two answers
/// differ: this test fails if the memo key drops any one of market, bid
/// or instant.
#[test]
fn request_memo_key_needs_market_bid_and_instant() {
    let h = SimTime::from_hours_f64;
    let pairs = [
        // Market only: 0.4 at 0 h is revoked at 10 h on market 0, at
        // 20 h on market 1.
        [(MarketId(0), 0.4, h(0.0)), (MarketId(1), 0.4, h(0.0))],
        // Bid only: 1.5 clears market 1's 1.0 spike at 20 h, 0.4 does
        // not.
        [(MarketId(1), 0.4, h(0.0)), (MarketId(1), 1.5, h(0.0))],
        // Instant only: at 25 h the next market-1 spike is at 40 h.
        [(MarketId(1), 0.4, h(0.0)), (MarketId(1), 0.4, h(25.0))],
    ];
    for pair in pairs {
        let got = delivered(&pair);
        assert_eq!(got, delivered_fresh(&pair), "requests {pair:?}");
        let revoked: Vec<SimTime> = got
            .iter()
            .filter(|(_, e)| matches!(e, InstanceEvent::Revoked { .. }))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(revoked.len(), 2, "both revoked: {pair:?}");
        assert_ne!(revoked[0], revoked[1], "the pair must tell the keys apart");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prefix-sum `mean_price` is bitwise-close to the linear segment
    /// walk over arbitrary traces and windows (the summation order
    /// differs, so we allow float-associativity slack only).
    #[test]
    fn mean_price_matches_linear_reference(
        trace in arb_trace(),
        from_h in 0.0f64..1500.0,
        dur_h in 0.0f64..400.0,
    ) {
        let from = SimTime::from_hours_f64(from_h);
        let to = from + SimDuration::from_hours_f64(dur_h);
        let fast = trace.mean_price(from, to);
        let slow = mean_price_linear(&trace, from, to);
        prop_assert!(
            (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
            "fast {fast} != linear {slow} over [{from_h}h, +{dur_h}h)"
        );
    }

    /// Segment-tree up-crossing search returns the *same instants* as
    /// the linear scan — exact equality, since both are comparison-only.
    #[test]
    fn up_crossings_match_linear_reference(
        trace in arb_trace(),
        from_h in 0.0f64..1500.0,
        dur_h in 0.0f64..500.0,
        thr_mult in 0.2f64..4.0,
    ) {
        let from = SimTime::from_hours_f64(from_h);
        let to = from + SimDuration::from_hours_f64(dur_h);
        let threshold = thr_mult * trace.price_at(from);
        prop_assert_eq!(
            trace.next_up_crossing(from, threshold),
            next_up_crossing_linear(&trace, from, threshold)
        );
        prop_assert_eq!(
            trace.up_crossings(from, to, threshold),
            up_crossings_linear(&trace, from, to, threshold)
        );
    }

    /// The maintained active index (id order) and per-market counts
    /// equal a full scan over every instance record, at every event
    /// boundary of a randomized request/terminate schedule.
    #[test]
    fn cloud_index_matches_full_scan(
        seed in 0u64..40,
        n_inst in 1usize..24,
        bid_mult in 0.3f64..3.0,
        kill_mod in 2u64..5,
    ) {
        let cat = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(30));
        let mut cloud = CloudSim::with_seed(cat, seed);
        let markets: Vec<MarketId> =
            cloud.catalog().spot_markets().iter().map(|m| m.id).collect();

        let mut ids: Vec<InstanceId> = Vec::new();
        for i in 0..n_inst {
            let m = markets[i % markets.len()];
            let bid = cloud.catalog().market(m).on_demand_price * bid_mult;
            let t = SimTime::from_hours_f64(i as f64 * 1.5);
            ids.push(cloud.request(m, bid, t));
        }

        // Interleave event delivery with user terminations, checking the
        // indexes against a full scan at every step.
        let horizon = SimTime::ZERO + SimDuration::from_days(20);
        let step = SimDuration::from_hours(12);
        let mut now = SimTime::ZERO;
        let mut expect_revoked = 0u64;
        while now < horizon {
            now += step;
            for (_, ev) in cloud.events_until(now) {
                if matches!(ev, flint::market::InstanceEvent::Revoked { .. }) {
                    expect_revoked += 1;
                }
            }
            // Periodically terminate one known-alive instance.
            if (now.as_hours_f64() as u64).is_multiple_of(kill_mod) {
                let victim = cloud.active().next();
                if let Some(id) = victim {
                    cloud.terminate(id, now);
                }
            }
            // Now and then a fresh request, so ids issued after a
            // compaction of the active index are checked too.
            if (now.as_hours_f64() as u64 / 12).is_multiple_of(3) {
                let m = markets[ids.len() % markets.len()];
                let bid = cloud.catalog().market(m).on_demand_price * bid_mult;
                ids.push(cloud.request(m, bid, now));
            }

            // Full-scan reference over every record ever created.
            let mut scan_active = Vec::new();
            let mut scan_by_market: BTreeMap<MarketId, u32> = BTreeMap::new();
            for &id in &ids {
                let r = cloud.instance(id);
                if r.is_active() {
                    scan_active.push(id);
                    *scan_by_market.entry(r.market).or_insert(0) += 1;
                }
            }

            prop_assert_eq!(cloud.active().collect::<Vec<_>>(), scan_active);
            prop_assert_eq!(
                cloud.active_markets().collect::<BTreeMap<_, _>>(),
                scan_by_market
            );
            prop_assert_eq!(cloud.active_count(), cloud.active().count());
            prop_assert_eq!(cloud.revocation_count(), expect_revoked);
        }

        // Settled billing: a terminated instance's cached cost equals a
        // fresh recomputation from its trace at any later query time.
        for &id in &ids {
            let r = cloud.instance(id);
            if let Some(end) = r.ended_at {
                let frozen_early = cloud.instance_cost(id, end);
                let frozen_late = cloud.instance_cost(id, end + SimDuration::from_days(400));
                prop_assert_eq!(frozen_early.to_bits(), frozen_late.to_bits());
            }
        }
    }

    /// A live NodeManager run, ticked event-by-event: the handle's
    /// index-backed views (active markets, revocation count) equal a
    /// per-tick full scan of every instance record — the transcribed
    /// reference the pre-index code computed on every query.
    #[test]
    fn node_manager_views_match_per_tick_scan(
        seed in 0u64..30,
        n in 4u32..24,
        age_aware in proptest::bool::ANY,
    ) {
        let catalog = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, seed);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let cfg = SelectionConfig {
            hazard: if age_aware {
                HazardSpec::CappedLifetime { early_prob: 0.1, cap_hours: 24.0 }
            } else {
                HazardSpec::Exponential
            },
            ..SelectionConfig::default()
        };
        let (mut nm, handle) = NodeManager::launch(
            cloud,
            Box::new(BatchSelection),
            BidPolicy::OnDemandPrice,
            cfg,
            JobProfile::default(),
            StorageConfig::default(),
            n,
            new_shared(SimDuration::MAX),
            start,
        );

        let mut now = start;
        for _ in 0..40 {
            now += SimDuration::from_hours(6);
            nm.events(start, now);

            let (scan_markets, scan_revoked) = handle.with_cloud(|c| {
                let mut markets = BTreeSet::new();
                let mut revoked = 0u64;
                for r in c.instances() {
                    if r.is_active() {
                        markets.insert(r.market);
                    }
                    if r.state == InstanceState::Revoked {
                        revoked += 1;
                    }
                }
                (markets.into_iter().collect::<Vec<_>>(), revoked)
            });
            prop_assert_eq!(handle.active_markets(), scan_markets);
            prop_assert_eq!(handle.revocations(), scan_revoked);
        }
    }

    /// `mttf_at` counts crossings without collecting them; it must equal
    /// the window over the collected list. Trace lengths sit at 2^k − 1,
    /// 2^k and 2^k + 1 (1-point traces included) so the segment-tree
    /// descent runs at every stack depth up to 11; prices come from a
    /// five-value palette and every palette price is tried as the
    /// threshold, so thresholds equal to a point's price and `from`
    /// already above the threshold both occur; window ends fall on
    /// change points half the time.
    #[test]
    fn mttf_at_matches_collected_crossings(
        seed in 0u64..u64::MAX,
        k in 0u32..11,
        delta in 0usize..3,
    ) {
        const PALETTE: [f64; 5] = [0.1, 0.2, 0.3, 0.5, 0.8];
        const STEP_MS: u64 = 100;
        let mut rng = stream(seed, "mttf-trace");
        let len = ((1usize << k) + delta).saturating_sub(1).max(1);
        let trace = PriceTrace::from_points(
            (0..len as u64)
                .map(|i| (SimTime::from_millis(i * STEP_MS), PALETTE[rng.gen_range(0..5usize)]))
                .collect(),
        );
        prop_assert_eq!(trace.points().len(), len);
        let horizon_ms = len as u64 * STEP_MS;
        let instant = |rng: &mut rand::StdRng| {
            SimTime::from_millis(if rng.gen::<bool>() {
                rng.gen_range(0..=len as u64) * STEP_MS
            } else {
                rng.gen_range(0..horizon_ms + 2 * STEP_MS)
            })
        };
        for _ in 0..4 {
            let (a, b) = (instant(&mut rng), instant(&mut rng));
            let (from, to) = (a.min(b), a.max(b));
            for threshold in PALETTE.into_iter().chain([0.0, 0.25, 1.0]) {
                let collected = up_crossings_linear(&trace, from, to, threshold);
                prop_assert_eq!(&trace.up_crossings(from, to, threshold), &collected);
                prop_assert_eq!(
                    trace.mttf_at(from, to, threshold),
                    mttf_at_collected(&collected, from, to),
                    "len {} window [{:?}, {:?}) threshold {}", len, from, to, threshold
                );
            }
        }
    }

    /// Random interleavings of requests over markets, bids and instants
    /// — runs of identical requests, as a replacement batch makes, and
    /// neighbours that differ in one key, requests into a spike among
    /// them — deliver the same lifecycle stream (so the same revocation
    /// instants) as a fresh `next_up_crossing` per request.
    #[test]
    fn request_memo_matches_fresh_crossings(seed in 0u64..u64::MAX, batches in 1usize..24) {
        let mut rng = stream(seed, "memo-requests");
        let mut requests = Vec::new();
        for _ in 0..batches {
            let m = MarketId(rng.gen_range(0..2u32));
            let bid = SPIKY_BIDS[rng.gen_range(0..SPIKY_BIDS.len())];
            let now = SimTime::from_hours_f64(SPIKY_HOURS[rng.gen_range(0..SPIKY_HOURS.len())]);
            for _ in 0..rng.gen_range(1..4) {
                requests.push((m, bid, now));
            }
        }
        prop_assert_eq!(delivered(&requests), delivered_fresh(&requests));
    }
}
