//! A deterministic simulator of transient-server markets.
//!
//! Flint (EuroSys 2016) selects transient cloud servers by consuming four
//! signals per *spot market* (one market per instance type per availability
//! zone): the current price, the recent average price, the mean time to
//! failure (MTTF) implied by the price history at a given bid, and the
//! pairwise correlation between markets' price spikes. This crate
//! reproduces all four on top of synthetic price traces whose shape matches
//! the "peaky" behaviour the paper reports for 2015-era EC2: a low steady
//! state punctuated by short, tall spikes.
//!
//! The crate models three kinds of transient server:
//!
//! * **EC2-style spot instances** ([`MarketKind::Spot`]) — revoked with a
//!   two-minute warning whenever the market price rises above the bid;
//!   billed per hour at the hour-start price, with the final partial hour
//!   free when the *provider* revokes.
//! * **GCE-style preemptible instances** ([`MarketKind::Preemptible`]) —
//!   fixed price, 30-second warning, lifetime capped at 24 hours.
//! * **On-demand instances** ([`MarketKind::OnDemand`]) — fixed price,
//!   never revoked (the paper models these as a spot pool with infinite
//!   MTTF).
//!
//! # Examples
//!
//! ```
//! use flint_market::{CloudSim, MarketCatalog, TraceProfile};
//! use flint_simtime::{SimDuration, SimTime};
//!
//! // A catalog of markets with varying volatility, from a fixed seed.
//! let catalog = MarketCatalog::synthetic_ec2(42, SimDuration::from_days(30));
//! let mut cloud = CloudSim::new(catalog);
//!
//! let market = cloud.catalog().spot_markets()[0].id;
//! let bid = cloud.catalog().market(market).on_demand_price;
//! let inst = cloud.request(market, bid, SimTime::ZERO);
//!
//! // The instance becomes ready after the acquisition delay.
//! let events = cloud.events_until(SimTime::ZERO + SimDuration::from_mins(5));
//! assert!(!events.is_empty());
//! # let _ = inst;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod billing;
mod catalog;
mod cloud;
mod correlation;
mod generator;
mod hazard;
mod market;
mod stats;
mod trace;

pub use billing::{hourly_spot_cost, EbsCostModel};
pub use catalog::MarketCatalog;
pub use cloud::{CloudSim, InstanceEvent, InstanceId, InstanceRecord, InstanceState};
pub use correlation::{
    correlated_groups, correlation_matrix, greedy_uncorrelated_subset, pairwise_correlation,
};
pub use generator::{TraceGenerator, TraceProfile};
pub use hazard::{CappedLifetimeHazard, ExponentialHazard, HazardModel, HazardSpec};
pub use market::{InstanceSpec, Market, MarketId, MarketKind, MarketStats};
pub use stats::TtfStats;
pub use trace::PriceTrace;
