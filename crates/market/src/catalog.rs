//! Catalogs of markets available to a Flint deployment.

use flint_simtime::{SimDuration, SimTime};

use crate::{InstanceSpec, Market, MarketId, MarketKind, PriceTrace, TraceGenerator, TraceProfile};

/// A collection of transient-server markets plus one on-demand pool.
///
/// The catalog is the simulator's ground truth; Flint's node manager sees
/// it only through backward-looking [`crate::MarketStats`].
///
/// # Examples
///
/// ```
/// use flint_market::MarketCatalog;
/// use flint_simtime::SimDuration;
///
/// let cat = MarketCatalog::synthetic_ec2(1, SimDuration::from_days(60));
/// assert!(cat.spot_markets().len() >= 9);
/// assert!(!cat.market(cat.on_demand_id()).is_revocable());
/// ```
#[derive(Debug, Clone)]
pub struct MarketCatalog {
    markets: Vec<Market>,
    on_demand: MarketId,
}

impl MarketCatalog {
    /// Builds a catalog from explicit markets and the id of the on-demand
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if ids are not dense `0..n`, or `on_demand` does not name an
    /// [`MarketKind::OnDemand`] market.
    pub fn new(markets: Vec<Market>, on_demand: MarketId) -> Self {
        for (i, m) in markets.iter().enumerate() {
            assert_eq!(m.id.0 as usize, i, "market ids must be dense and ordered");
        }
        assert!(
            matches!(markets[on_demand.0 as usize].kind, MarketKind::OnDemand),
            "on_demand must reference an on-demand market"
        );
        MarketCatalog { markets, on_demand }
    }

    /// A synthetic EC2-like region: three availability zones × three
    /// instance types of varying volatility (nine spot markets), plus an
    /// on-demand pool of the paper's `r3.large` evaluation instances.
    ///
    /// Markets within the same zone share a mild spike correlation
    /// (ρ = 0.3); one pair is strongly correlated (ρ = 0.9) so selection
    /// policies have something to avoid, mirroring Fig. 4's mostly-dark
    /// heatmap with a few bright squares.
    pub fn synthetic_ec2(seed: u64, horizon: SimDuration) -> Self {
        let gen = TraceGenerator::new(seed, SimTime::ZERO + horizon);
        let mut markets = Vec::new();

        // (type name, spec, on-demand $/hr)
        let types: [(&str, InstanceSpec, f64); 3] = [
            ("r3.large", InstanceSpec::R3_LARGE, 0.175),
            ("m3.2xlarge", InstanceSpec::M3_2XLARGE, 0.532),
            ("m2.2xlarge", InstanceSpec::M2_2XLARGE, 0.490),
        ];
        // (zone, volatility profile factory)
        #[allow(clippy::type_complexity)]
        let zones: [(&str, fn(f64) -> TraceProfile); 3] = [
            ("us-east-1a", TraceProfile::volatile),
            ("us-east-1b", TraceProfile::moderate),
            ("us-east-1c", TraceProfile::quiet),
        ];

        let mut next_id = 0u32;
        for (zone, profile_fn) in zones {
            // Same-zone markets share mild correlation.
            let labels: Vec<String> = types
                .iter()
                .map(|(ty, _, _)| format!("{zone}/{ty}"))
                .collect();
            let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            // Use the first type's profile scaled per-type below: generate
            // per-type correlated traces one by one with the zone group.
            for (i, (ty, spec, od)) in types.iter().enumerate() {
                let profile = profile_fn(*od);
                let traces =
                    gen.generate_correlated(&format!("zone:{zone}"), &label_refs, &profile, 0.3);
                markets.push(Market {
                    id: MarketId(next_id),
                    name: format!("{zone}/{ty}"),
                    zone: zone.to_string(),
                    spec: *spec,
                    on_demand_price: *od,
                    kind: MarketKind::Spot,
                    trace: traces[i].clone(),
                });
                next_id += 1;
            }
        }

        // A strongly-correlated twin of market 0 (same zone, same type in a
        // "neighbouring" pool), exercising the uncorrelated-subset filter.
        {
            let (ty, spec, od) = types[0];
            let profile = TraceProfile::volatile(od);
            let twin = gen.generate_correlated(
                "twin-pair",
                &["us-east-1a/r3.large", "us-east-1a2/r3.large"],
                &profile,
                0.9,
            );
            markets.push(Market {
                id: MarketId(next_id),
                name: format!("us-east-1a2/{ty}"),
                zone: "us-east-1a".to_string(),
                spec,
                on_demand_price: od,
                kind: MarketKind::Spot,
                trace: twin[1].clone(),
            });
            next_id += 1;
            // Also overwrite market 0's trace with its twin half so the
            // pair is genuinely correlated.
            markets[0].trace = twin[0].clone();
        }

        // On-demand pool (r3.large, flat price, never revoked).
        let od_id = MarketId(next_id);
        markets.push(Market {
            id: od_id,
            name: "on-demand/r3.large".to_string(),
            zone: "region".to_string(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: 0.175,
            kind: MarketKind::OnDemand,
            trace: PriceTrace::flat(0.175),
        });

        MarketCatalog::new(markets, od_id)
    }

    /// A synthetic GCE-like catalog: three preemptible types at a fixed
    /// ~70 % discount plus an on-demand pool (Fig. 2b's setting).
    pub fn synthetic_gce(_seed: u64, _horizon: SimDuration) -> Self {
        let types: [(&str, InstanceSpec, f64); 3] = [
            (
                "f1-micro",
                InstanceSpec {
                    vcpus: 1,
                    mem_gb: 0.6,
                    local_ssd_gb: 10.0,
                },
                0.0076,
            ),
            (
                "n1-standard-1",
                InstanceSpec {
                    vcpus: 1,
                    mem_gb: 3.75,
                    local_ssd_gb: 10.0,
                },
                0.05,
            ),
            (
                "n1-highmem-2",
                InstanceSpec {
                    vcpus: 2,
                    mem_gb: 13.0,
                    local_ssd_gb: 10.0,
                },
                0.126,
            ),
        ];
        let mut markets = Vec::new();
        // Early-revocation probabilities chosen so MTTFs land near the
        // paper's empirical 20.3-22.9 h (Fig. 2b).
        let early = [0.19, 0.31, 0.09];
        for (i, (ty, spec, od)) in types.iter().enumerate() {
            markets.push(Market {
                id: MarketId(i as u32),
                name: format!("gce/{ty}"),
                zone: "gce".to_string(),
                spec: *spec,
                on_demand_price: *od,
                kind: MarketKind::Preemptible {
                    early_revocation_prob: early[i],
                },
                trace: PriceTrace::flat(od * 0.3),
            });
        }
        let od_id = MarketId(types.len() as u32);
        markets.push(Market {
            id: od_id,
            name: "gce/on-demand".to_string(),
            zone: "gce".to_string(),
            spec: InstanceSpec {
                vcpus: 2,
                mem_gb: 13.0,
                local_ssd_gb: 10.0,
            },
            on_demand_price: 0.126,
            kind: MarketKind::OnDemand,
            trace: PriceTrace::flat(0.126),
        });
        MarketCatalog::new(markets, od_id)
    }

    /// Returns all markets, including the on-demand pool.
    pub fn markets(&self) -> &[Market] {
        &self.markets
    }

    /// Returns only the revocable (spot/preemptible) markets.
    pub fn spot_markets(&self) -> Vec<&Market> {
        self.markets.iter().filter(|m| m.is_revocable()).collect()
    }

    /// Returns the market with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn market(&self, id: MarketId) -> &Market {
        &self.markets[id.0 as usize]
    }

    /// Returns the id of the on-demand pool.
    pub fn on_demand_id(&self) -> MarketId {
        self.on_demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise_correlation;

    #[test]
    fn ec2_catalog_shape() {
        let cat = MarketCatalog::synthetic_ec2(5, SimDuration::from_days(60));
        assert_eq!(cat.markets().len(), 11); // 9 zone markets + twin + on-demand
        assert_eq!(cat.spot_markets().len(), 10);
        assert!(!cat.market(cat.on_demand_id()).is_revocable());
    }

    #[test]
    fn catalog_is_deterministic() {
        let a = MarketCatalog::synthetic_ec2(5, SimDuration::from_days(30));
        let b = MarketCatalog::synthetic_ec2(5, SimDuration::from_days(30));
        for (ma, mb) in a.markets().iter().zip(b.markets()) {
            assert_eq!(ma.trace, mb.trace);
        }
    }

    #[test]
    fn twin_markets_are_correlated() {
        let cat = MarketCatalog::synthetic_ec2(5, SimDuration::from_days(60));
        let horizon = SimTime::ZERO + SimDuration::from_days(60);
        let step = SimDuration::from_mins(10);
        let twin_id = MarketId(9);
        assert!(cat.market(twin_id).name.starts_with("us-east-1a2"));
        let r = pairwise_correlation(
            &cat.market(MarketId(0)).trace,
            &cat.market(twin_id).trace,
            SimTime::ZERO,
            horizon,
            step,
            2.0,
        );
        assert!(r > 0.5, "twin pair correlation too low: {r}");
    }

    #[test]
    fn cross_zone_markets_are_weakly_correlated() {
        let cat = MarketCatalog::synthetic_ec2(5, SimDuration::from_days(60));
        let horizon = SimTime::ZERO + SimDuration::from_days(60);
        let step = SimDuration::from_mins(10);
        // Market 0 (us-east-1a volatile) vs market 6 (us-east-1c quiet).
        let r = pairwise_correlation(
            &cat.market(MarketId(0)).trace,
            &cat.market(MarketId(6)).trace,
            SimTime::ZERO,
            horizon,
            step,
            2.0,
        );
        assert!(r.abs() < 0.3, "cross-zone correlation too high: {r}");
    }

    #[test]
    fn gce_catalog_mttfs_match_paper() {
        let cat = MarketCatalog::synthetic_gce(1, SimDuration::from_days(30));
        let now = SimTime::from_hours_f64(200.0);
        let window = SimDuration::from_days(7);
        let mttfs: Vec<f64> = cat
            .spot_markets()
            .iter()
            .map(|m| m.stats(now, window, m.on_demand_price).mttf.as_hours_f64())
            .collect();
        // Paper Fig. 2b: 21.68, 20.26, 22.92 hours.
        for (got, want) in mttfs.iter().zip([21.68, 20.28, 22.92]) {
            assert!(
                (got - want).abs() < 1.0,
                "GCE MTTF {got:.2} vs paper {want}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn sparse_ids_rejected() {
        let m = Market {
            id: MarketId(3),
            name: "x".into(),
            zone: "z".into(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: 0.1,
            kind: MarketKind::OnDemand,
            trace: PriceTrace::flat(0.1),
        };
        let _ = MarketCatalog::new(vec![m], MarketId(3));
    }
}
