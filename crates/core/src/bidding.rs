//! Bidding policies for spot markets.

use flint_market::{HazardModel, Market};
use flint_simtime::SimDuration;

/// How Flint bids for spot instances.
///
/// The paper's finding (Fig. 11b) is that in peaky markets the expected
/// cost is flat over a wide range of bids, so Flint simply bids the
/// on-demand price (§3.2.2, "Bidding Policy"). Alternative multiples are
/// provided for the bid-sweep experiment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BidPolicy {
    /// Bid exactly the on-demand price (Flint's default).
    #[default]
    OnDemandPrice,
    /// Bid a fixed multiple of the on-demand price (EC2 caps bids at 10x).
    OnDemandMultiple(f64),
}

impl BidPolicy {
    /// Returns the bid to place in `market`.
    pub(crate) fn bid_for(&self, market: &Market) -> f64 {
        match self {
            BidPolicy::OnDemandPrice => market.on_demand_price,
            BidPolicy::OnDemandMultiple(m) => market.on_demand_price * m.clamp(0.0, 10.0),
        }
    }

    /// Returns the bid to place in `market` under a lifetime hazard.
    ///
    /// Bidding above the on-demand anchor is price-spike insurance: it
    /// only pays off over the lifetime the instance can still reach.
    /// Under a capped hazard the expected lifetime is a fraction of the
    /// cap, so the headroom above the anchor is scaled by that fraction
    /// (an instance that on average lives 80 % of the cap keeps 80 % of
    /// its extra headroom). Unbounded hazards (exponential) leave the
    /// bid untouched, as does the default [`BidPolicy::OnDemandPrice`]
    /// which carries no headroom.
    pub(crate) fn bid_for_hazard(&self, market: &Market, hazard: &dyn HazardModel) -> f64 {
        let base = self.bid_for(market);
        let Some(cap) = hazard.lifetime_cap() else {
            return base;
        };
        if cap == SimDuration::ZERO || cap == SimDuration::MAX {
            return base;
        }
        let frac = (hazard.mean_lifetime().as_secs_f64() / cap.as_secs_f64()).clamp(0.0, 1.0);
        let anchor = market.on_demand_price;
        anchor + (base - anchor) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_market::{InstanceSpec, MarketId, MarketKind, PriceTrace};

    fn market(od: f64) -> Market {
        Market {
            id: MarketId(0),
            name: "m".into(),
            zone: "z".into(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: od,
            kind: MarketKind::Spot,
            trace: PriceTrace::flat(od * 0.1),
        }
    }

    #[test]
    fn default_bids_on_demand() {
        let m = market(0.35);
        assert_eq!(BidPolicy::default().bid_for(&m), 0.35);
    }

    #[test]
    fn multiple_is_capped_at_ten() {
        let m = market(0.35);
        assert!((BidPolicy::OnDemandMultiple(2.0).bid_for(&m) - 0.70).abs() < 1e-12);
        assert!((BidPolicy::OnDemandMultiple(50.0).bid_for(&m) - 3.5).abs() < 1e-12);
        assert_eq!(BidPolicy::OnDemandMultiple(-1.0).bid_for(&m), 0.0);
    }

    #[test]
    fn hazard_bid_discounts_headroom_under_cap() {
        use flint_market::{CappedLifetimeHazard, ExponentialHazard};
        use flint_simtime::SimDuration;
        let m = market(0.35);
        // Exponential (no cap): bid unchanged for every policy.
        let exp = ExponentialHazard::new(SimDuration::from_hours(10));
        assert_eq!(
            BidPolicy::OnDemandMultiple(2.0).bid_for_hazard(&m, &exp),
            BidPolicy::OnDemandMultiple(2.0).bid_for(&m)
        );
        // Capped with p = 0.5 → mean 18 h / 24 h = 0.75 of the cap:
        // 25 % of the headroom above on-demand is forfeit.
        let capped = CappedLifetimeHazard::new(0.5, 24.0);
        let bid = BidPolicy::OnDemandMultiple(2.0).bid_for_hazard(&m, &capped);
        assert!((bid - (0.35 + 0.35 * 0.75)).abs() < 1e-12);
        // The anchor policy carries no headroom: exact no-op.
        assert_eq!(
            BidPolicy::OnDemandPrice.bid_for_hazard(&m, &capped),
            BidPolicy::OnDemandPrice.bid_for(&m)
        );
    }
}
