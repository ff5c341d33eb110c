//! Bidding policies for spot markets.

use flint_market::Market;

/// How Flint bids for spot instances.
///
/// The paper's finding (Fig. 11b) is that in peaky markets the expected
/// cost is flat over a wide range of bids, so Flint simply bids the
/// on-demand price (§3.2.2, "Bidding Policy"). The bid-sweep experiment
/// computes its own bids and does not go through this type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BidPolicy {
    /// Bid exactly the on-demand price (Flint's default).
    #[default]
    OnDemandPrice,
}

impl BidPolicy {
    /// Returns the bid to place in `market`.
    pub(crate) fn bid_for(&self, market: &Market) -> f64 {
        match self {
            BidPolicy::OnDemandPrice => market.on_demand_price,
        }
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
}
