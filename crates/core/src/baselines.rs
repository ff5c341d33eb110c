//! Baseline policies the paper compares against (§5.5, Fig. 11a):
//! SpotFleet-style application-agnostic selection and Spark-EMR pricing.

use flint_market::MarketId;
use flint_simtime::SimDuration;

use crate::selection::split_evenly;
use crate::{MarketView, SelectionPolicy};

/// EC2 SpotFleet-style selection with the "lowestPrice" strategy:
/// application-agnostic — it ranks markets by current spot price, never
/// by the application's checkpoint/recompute trade-off. The paper
/// configures fleets over two instance types, so the initial allocation
/// spreads over the two cheapest markets.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpotFleetSelection;

/// Number of instance types in the fleet (the paper uses 2).
const FLEET_WIDTH: usize = 2;

impl SpotFleetSelection {
    fn ranked(&self, view: &MarketView<'_>, exclude: Option<MarketId>) -> Vec<MarketId> {
        let mut ids: Vec<MarketId> = view
            .catalog
            .spot_markets()
            .iter()
            .map(|m| m.id)
            .filter(|id| Some(*id) != exclude)
            .collect();
        ids.sort_by(|a, b| {
            let pa = view.stats(*a).current_price;
            let pb = view.stats(*b).current_price;
            pa.partial_cmp(&pb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        ids
    }
}

impl SelectionPolicy for SpotFleetSelection {
    fn name(&self) -> &'static str {
        "spot-fleet-cheapest"
    }

    fn initial(&mut self, view: &MarketView<'_>) -> Vec<(MarketId, u32)> {
        let ranked = self.ranked(view, None);
        let chosen = &ranked[..FLEET_WIDTH.min(ranked.len())];
        if chosen.is_empty() {
            return vec![(view.catalog.on_demand_id(), view.n)];
        }
        split_evenly(chosen, view.n)
    }

    fn replacement(
        &mut self,
        view: &MarketView<'_>,
        failed: MarketId,
        count: u32,
    ) -> Vec<(MarketId, u32)> {
        let ranked = self.ranked(view, Some(failed));
        match ranked.first() {
            Some(id) => vec![(*id, count)],
            None => vec![(view.catalog.on_demand_id(), count)],
        }
    }
}

/// Spark-EMR pricing: unmodified Spark as a managed service on spot
/// instances, with EMR's flat fee of 25 % of the on-demand price per
/// instance-hour on top of the spot bill (§5.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmrPricing {
    /// Fee as a fraction of the on-demand price per instance-hour.
    pub(crate) fee_fraction: f64,
}

impl Default for EmrPricing {
    fn default() -> Self {
        EmrPricing { fee_fraction: 0.25 }
    }
}

impl EmrPricing {
    /// The EMR fee for `n` instances with the given on-demand price over
    /// `dur`.
    ///
    /// # Examples
    ///
    /// ```
    /// use flint_core::EmrPricing;
    /// use flint_simtime::SimDuration;
    ///
    /// let fee = EmrPricing::default().fee(10, 0.175, SimDuration::from_hours(4));
    /// assert!((fee - 10.0 * 0.25 * 0.175 * 4.0).abs() < 1e-9);
    /// ```
    pub fn fee(&self, n: u32, on_demand_price: f64, dur: SimDuration) -> f64 {
        self.fee_fraction * on_demand_price * f64::from(n) * dur.as_hours_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BidPolicy, JobProfile, SelectionConfig};
    use flint_market::MarketCatalog;
    use flint_simtime::SimTime;
    use flint_store::StorageConfig;

    fn with_view<R>(f: impl FnOnce(&MarketView<'_>) -> R) -> R {
        let cat = MarketCatalog::synthetic_ec2(17, SimDuration::from_days(40));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = MarketView {
            catalog: &cat,
            now: SimTime::ZERO + SimDuration::from_days(14),
            bid: BidPolicy::OnDemandPrice,
            cfg: &cfg,
            job: &job,
            storage: StorageConfig::default(),
            n: 10,
            cooled: &[],
        };
        f(&view)
    }

    #[test]
    fn fleet_spreads_over_two_markets() {
        with_view(|view| {
            let mut p = SpotFleetSelection;
            let alloc = p.initial(view);
            assert_eq!(alloc.len(), 2);
            assert_eq!(alloc.iter().map(|(_, c)| c).sum::<u32>(), 10);
        });
    }

    #[test]
    fn cheapest_criterion_minimizes_current_price() {
        with_view(|view| {
            let mut p = SpotFleetSelection;
            let alloc = p.initial(view);
            let chosen_price = view.stats(alloc[0].0).current_price;
            for m in view.catalog.spot_markets() {
                assert!(view.stats(m.id).current_price >= chosen_price - 1e-12);
            }
        });
    }

    #[test]
    fn replacement_avoids_failed_market() {
        with_view(|view| {
            let mut p = SpotFleetSelection;
            let failed = p.initial(view)[0].0;
            let repl = p.replacement(view, failed, 5);
            assert_ne!(repl[0].0, failed);
            assert_eq!(repl[0].1, 5);
        });
    }

    #[test]
    fn emr_fee_scales_linearly() {
        let emr = EmrPricing::default();
        let one = emr.fee(1, 0.2, SimDuration::from_hours(1));
        assert!((one - 0.05).abs() < 1e-12);
        assert!((emr.fee(10, 0.2, SimDuration::from_hours(2)) - 1.0).abs() < 1e-12);
    }
}
