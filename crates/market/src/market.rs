//! Markets, instance specifications, and per-market statistics.

use flint_simtime::{SimDuration, SimTime};

use crate::PriceTrace;

/// Identifier of a market within a [`crate::MarketCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MarketId(pub u32);

/// Hardware shape of the instances sold by a market.
///
/// Mirrors the paper's testbed: `r3.large` has 2 vCPUs, 15 GB memory and
/// 32 GB of local SSD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceSpec {
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Memory in GiB.
    pub mem_gb: f64,
    /// Local (volatile) SSD in GiB, lost on revocation.
    pub local_ssd_gb: f64,
}

impl InstanceSpec {
    /// The paper's evaluation instance: `r3.large`.
    pub const R3_LARGE: InstanceSpec = InstanceSpec {
        vcpus: 2,
        mem_gb: 15.0,
        local_ssd_gb: 32.0,
    };

    /// A larger memory-optimized instance (`m2.2xlarge`-like).
    pub const M2_2XLARGE: InstanceSpec = InstanceSpec {
        vcpus: 4,
        mem_gb: 34.2,
        local_ssd_gb: 850.0,
    };

    /// A general-purpose instance (`m3.2xlarge`-like).
    pub const M3_2XLARGE: InstanceSpec = InstanceSpec {
        vcpus: 8,
        mem_gb: 30.0,
        local_ssd_gb: 160.0,
    };

    /// A first-generation instance (`m1.xlarge`-like).
    pub const M1_XLARGE: InstanceSpec = InstanceSpec {
        vcpus: 4,
        mem_gb: 15.0,
        local_ssd_gb: 840.0,
    };
}

/// The pricing/revocation regime of a market.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketKind {
    /// EC2-style spot market: dynamic price, revoked on up-crossing of the
    /// bid, two-minute warning.
    Spot,
    /// GCE-style preemptible: fixed price, ≤24 h lifetime, 30 s warning.
    Preemptible {
        /// Probability that an instance is revoked before the 24 h cap.
        early_revocation_prob: f64,
    },
    /// Non-revocable on-demand capacity (modeled as an infinite-MTTF pool).
    OnDemand,
}

/// One transient-server market (an instance type in an availability zone).
#[derive(Debug, Clone)]
pub struct Market {
    /// Identifier within the catalog.
    pub id: MarketId,
    /// Human-readable name, e.g. `"us-east-1a/m3.2xlarge"`.
    pub name: String,
    /// Availability zone, used for correlation grouping.
    pub zone: String,
    /// Hardware sold by this market.
    pub spec: InstanceSpec,
    /// On-demand price of the equivalent instance, $/hour.
    pub on_demand_price: f64,
    /// Pricing regime.
    pub kind: MarketKind,
    /// Price history and future (the simulator's ground truth; policies
    /// may only look backwards from "now").
    pub trace: PriceTrace,
}

impl Market {
    /// Returns the spot price at instant `t` (the fixed price for
    /// non-spot kinds).
    pub fn price_at(&self, t: SimTime) -> f64 {
        match self.kind {
            MarketKind::Spot => self.trace.price_at(t),
            MarketKind::Preemptible { .. } | MarketKind::OnDemand => self.trace.price_at(t),
        }
    }

    /// Computes backward-looking statistics over `[now - window, now)`.
    ///
    /// This is the *only* view of a market that Flint's policies are
    /// allowed to consume: everything is derived from history, never from
    /// the future of the trace.
    pub fn stats(&self, now: SimTime, window: SimDuration, bid: f64) -> MarketStats {
        let from = now.saturating_sub(window);
        let mean = self.trace.mean_price(from, now);
        let current = self.trace.price_at(now);
        let mttf = match self.kind {
            MarketKind::Spot => self.trace.mttf_at(from, now, bid),
            MarketKind::Preemptible {
                early_revocation_prob,
            } => {
                // Lifetime = 24 h cap, except an `early_revocation_prob`
                // chance of a uniform early kill: E[L] = p*12h + (1-p)*24h.
                let hours = early_revocation_prob * 12.0 + (1.0 - early_revocation_prob) * 24.0;
                SimDuration::from_hours_f64(hours)
            }
            MarketKind::OnDemand => SimDuration::MAX,
        };
        MarketStats {
            market: self.id,
            current_price: current,
            mean_price: mean,
            mttf,
        }
    }

    /// Returns `true` if this market can revoke instances.
    pub fn is_revocable(&self) -> bool {
        !matches!(self.kind, MarketKind::OnDemand)
    }
}

/// Backward-looking statistics of a market, as consumed by Flint policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketStats {
    /// The market these statistics describe.
    pub(crate) market: MarketId,
    /// Instantaneous price at the observation time.
    pub current_price: f64,
    /// Time-weighted mean price over the observation window.
    pub mean_price: f64,
    /// Estimated mean time to failure at the observed bid.
    pub mttf: SimDuration,
}

impl MarketStats {
    /// Returns `true` if the instantaneous price is within `threshold`
    /// (relative) of the mean price — the paper's "do not buy into a
    /// spiking market" filter (§3.1.2).
    pub fn price_is_stable(&self, threshold: f64) -> bool {
        if self.mean_price <= 0.0 {
            return false;
        }
        self.current_price <= self.mean_price * (1.0 + threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, TraceProfile};

    fn spot_market(mttf_hours: f64) -> Market {
        let horizon = SimTime::ZERO + SimDuration::from_days(90);
        let g = TraceGenerator::new(3, horizon);
        let profile = TraceProfile::with_mttf_hours(0.35, mttf_hours);
        Market {
            id: MarketId(0),
            name: "test/m1.xlarge".into(),
            zone: "test".into(),
            spec: InstanceSpec::M1_XLARGE,
            on_demand_price: 0.35,
            kind: MarketKind::Spot,
            trace: g.generate("test", &profile),
        }
    }

    #[test]
    fn stats_window_is_backward_looking() {
        let m = spot_market(20.0);
        let now = SimTime::ZERO + SimDuration::from_days(60);
        let s = m.stats(now, SimDuration::from_days(30), m.on_demand_price);
        assert!(s.mean_price > 0.0);
        assert!(s.mttf > SimDuration::ZERO);
        let h = s.mttf.as_hours_f64();
        assert!(
            h > 8.0 && h < 60.0,
            "MTTF estimate {h:.1}h far from 20h target"
        );
    }

    #[test]
    fn on_demand_market_never_fails() {
        let m = Market {
            id: MarketId(1),
            name: "od".into(),
            zone: "z".into(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: 0.175,
            kind: MarketKind::OnDemand,
            trace: PriceTrace::flat(0.175),
        };
        let s = m.stats(
            SimTime::from_hours_f64(100.0),
            SimDuration::from_days(7),
            0.175,
        );
        assert_eq!(s.mttf, SimDuration::MAX);
        assert!(!m.is_revocable());
        assert_eq!(s.current_price, 0.175);
    }

    #[test]
    fn preemptible_mttf_matches_lifetime_model() {
        let m = Market {
            id: MarketId(2),
            name: "gce".into(),
            zone: "gce-z".into(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: 0.20,
            kind: MarketKind::Preemptible {
                early_revocation_prob: 0.3,
            },
            trace: PriceTrace::flat(0.06),
        };
        let s = m.stats(
            SimTime::from_hours_f64(100.0),
            SimDuration::from_days(7),
            0.06,
        );
        // 0.3 * 12 + 0.7 * 24 = 20.4 hours.
        assert!((s.mttf.as_hours_f64() - 20.4).abs() < 0.01);
    }

    #[test]
    fn stability_filter() {
        let s = MarketStats {
            market: MarketId(0),
            current_price: 0.12,
            mean_price: 0.10,
            mttf: SimDuration::from_hours(10),
        };
        assert!(!s.price_is_stable(0.10)); // 20% above mean
        assert!(s.price_is_stable(0.25));
    }
}
