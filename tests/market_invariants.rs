//! Property-based tests of the market simulator: billing, revocation
//! ordering, and trace consistency.

use flint::market::{
    hourly_spot_cost, CloudSim, InstanceEvent, MarketCatalog, PriceTrace, TraceGenerator,
    TraceProfile,
};
use flint::simtime::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = PriceTrace> {
    (0u64..100, 0.05f64..0.5).prop_map(|(seed, od)| {
        let gen = TraceGenerator::new(seed, SimTime::ZERO + SimDuration::from_days(60));
        gen.generate("prop", &TraceProfile::volatile(od))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Billing is non-negative, monotone in interval length, and bounded
    /// by peak-price × ceil(hours).
    #[test]
    fn billing_bounds(trace in arb_trace(), start_h in 0.0f64..500.0, dur_h in 0.0f64..72.0) {
        let start = SimTime::from_hours_f64(start_h);
        let end = start + SimDuration::from_hours_f64(dur_h);
        let c = hourly_spot_cost(&trace, start, end, false);
        prop_assert!(c >= 0.0);
        let longer = hourly_spot_cost(&trace, start, end + SimDuration::from_hours(2), false);
        prop_assert!(longer >= c - 1e-12);
        let hours = dur_h.ceil() + 1.0;
        prop_assert!(c <= trace.max_price() * hours + 1e-9);
        // Provider revocation never costs more than user termination.
        let revoked = hourly_spot_cost(&trace, start, end, true);
        prop_assert!(revoked <= c + 1e-12);
    }

    /// Instance lifecycles are well-ordered: Ready ≤ Warning ≤ Revoked,
    /// and the warning leads by at most the platform's lead time.
    #[test]
    fn lifecycle_ordering(seed in 0u64..20, bid_mult in 0.3f64..3.0, req_h in 0.0f64..200.0) {
        let cat = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(30));
        let mut cloud = CloudSim::with_seed(cat, seed);
        let m = cloud.catalog().spot_markets()[0].id;
        let bid = cloud.catalog().market(m).on_demand_price * bid_mult;
        let t0 = SimTime::from_hours_f64(req_h);
        let id = cloud.request(m, bid, t0);
        let evs = cloud.events_until(SimTime::ZERO + SimDuration::from_days(40));

        let mut ready = None;
        let mut warn = None;
        let mut revoked = None;
        for (t, ev) in evs {
            if ev.instance() != id { continue; }
            match ev {
                InstanceEvent::Ready { .. } => ready = Some(t),
                InstanceEvent::Warning { .. } => warn = Some(t),
                InstanceEvent::Revoked { .. } => revoked = Some(t),
            }
        }
        let ready = ready.expect("instance must become ready");
        prop_assert!(ready == t0 + CloudSim::DEFAULT_ACQUISITION_DELAY);
        if let Some(r) = revoked {
            let w = warn.expect("revocation must be preceded by a warning");
            prop_assert!(w <= r);
            prop_assert!(r - w <= SimDuration::from_secs(120));
            prop_assert!(w >= ready);
            // The price at the instant of revocation exceeds the bid.
            let price = cloud.catalog().market(m).price_at(r);
            prop_assert!(price > bid, "revoked at price {price} <= bid {bid}");
        }
    }

    /// Trace invariants: sampled prices equal point lookups; the mean over
    /// a window lies within [min, max] of the samples.
    #[test]
    fn trace_consistency(trace in arb_trace(), from_h in 0.0f64..500.0) {
        let from = SimTime::from_hours_f64(from_h);
        let to = from + SimDuration::from_hours(24);
        let step = SimDuration::from_mins(30);
        let samples = trace.sample(from, to, step);
        for (i, s) in samples.iter().enumerate() {
            let t = from + step * i as u64;
            prop_assert_eq!(*s, trace.price_at(t));
        }
        let mean = trace.mean_price(from, to);
        let lo = trace.sample(from, to, SimDuration::from_mins(1)).into_iter().fold(f64::INFINITY, f64::min);
        let hi = trace.max_price();
        prop_assert!(mean >= lo - 1e-12 && mean <= hi + 1e-12);
    }

    /// MTTF estimates shrink (weakly) as the bid drops.
    #[test]
    fn mttf_monotone_in_bid(trace in arb_trace()) {
        let from = SimTime::ZERO;
        let to = SimTime::ZERO + SimDuration::from_days(60);
        let od = 0.5;
        let low = trace.mttf_at(from, to, 0.3 * od);
        let mid = trace.mttf_at(from, to, 1.0 * od);
        let high = trace.mttf_at(from, to, 5.0 * od);
        prop_assert!(low <= mid || low == to - from);
        prop_assert!(mid <= high || mid == to - from);
    }
}

/// FNV-1a over a byte string — the same pinning scheme the golden
/// workload suite uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Pins the generator: every market's `to_csv()` of two catalogs hashes
/// to the value the per-boundary spike scan produced, so the sweep in
/// `TraceGenerator::build` (and any later rewrite) emits the same bytes.
#[test]
fn generated_catalog_csvs_are_golden() {
    let catalogs = [
        (
            MarketCatalog::synthetic_ec2(42, SimDuration::from_days(365)),
            &[
                ("us-east-1a/r3.large", 0x9549db8dd1a35b40),
                ("us-east-1a/m3.2xlarge", 0x34f2f6694b183354),
                ("us-east-1a/m2.2xlarge", 0x8ba1b0f130e00a29),
                ("us-east-1b/r3.large", 0x145dcda19db4cd78),
                ("us-east-1b/m3.2xlarge", 0x87048ca74696ccfe),
                ("us-east-1b/m2.2xlarge", 0x030c0c85d474cc04),
                ("us-east-1c/r3.large", 0x43fda52d43396f5c),
                ("us-east-1c/m3.2xlarge", 0x4471b6beaf276c40),
                ("us-east-1c/m2.2xlarge", 0x22f679d9eb0e8069),
                ("us-east-1a2/r3.large", 0x76be0cc28cb984af),
                ("on-demand/r3.large", 0x0f042c3f5594121c),
            ][..],
        ),
        (
            flint::model::catalog_with_mttf(12, SimDuration::from_days(120), 2.0),
            &[
                ("synthetic-0/mttf-2h", 0x39f00a82d15b7b18),
                ("synthetic-1/mttf-2h", 0x5fe26c6a472f4ff6),
                ("synthetic-2/mttf-2h", 0x401531da4f21c656),
                ("on-demand", 0x0f042c3f5594121c),
            ][..],
        ),
    ];
    for (catalog, golden) in catalogs {
        let got: Vec<(&str, u64)> = catalog
            .markets()
            .iter()
            .map(|m| (m.name.as_str(), fnv1a(m.trace.to_csv().as_bytes())))
            .collect();
        assert_eq!(got, golden);
    }
}
