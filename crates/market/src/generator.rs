//! Synthetic "peaky" spot-price trace generation.
//!
//! The paper (§5.5) observes that 2015-era EC2 spot prices are *peaky*:
//! long stretches at a low steady state, punctuated by short spikes that
//! jump far above the on-demand price and then return. That shape is what
//! makes (a) bidding the on-demand price optimal over a wide range
//! (Fig. 11b) and (b) revocations effectively all-or-nothing per market.
//! The generator reproduces it with a marked Poisson process of spikes on
//! top of a slowly jittering base price.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use flint_simtime::rng::stream;
use flint_simtime::{SimDuration, SimTime};
use rand::Rng;

use crate::hazard::sample_exp;
use crate::PriceTrace;

/// Statistical profile of a spot market's price process.
///
/// All prices are in dollars per hour. The defaults in the named
/// constructors are calibrated so a bid at the on-demand price observes
/// the MTTFs the paper reports (≈19 h for a volatile market up to ≈700 h
/// for a quiet one, Fig. 2a).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Steady-state spot price between spikes.
    pub(crate) base_price: f64,
    /// On-demand price of the equivalent instance.
    pub(crate) on_demand_price: f64,
    /// Poisson rate of price spikes, per hour.
    pub(crate) spike_rate_per_hour: f64,
    /// Spike height as a multiple of the on-demand price, sampled
    /// uniformly from this `(low, high)` range. EC2 caps bids at 10x
    /// on-demand, so heights above 10 guarantee revocation at any bid.
    pub(crate) spike_height_mult: (f64, f64),
    /// Mean spike duration in minutes (exponentially distributed).
    pub(crate) mean_spike_mins: f64,
    /// Relative jitter applied to the base price at each re-jitter epoch.
    pub(crate) base_jitter: f64,
    /// Mean interval between base-price re-jitters, in hours.
    pub(crate) jitter_interval_hours: f64,
}

impl TraceProfile {
    /// A volatile market: MTTF ≈ 19 h at an on-demand bid (the paper's
    /// `sa-east-1a` example). Volatile markets have the *lowest* steady
    /// state — risk is what the discount pays for — which is what makes
    /// "cheapest current price" selection (SpotFleet) a trap.
    pub fn volatile(on_demand_price: f64) -> Self {
        TraceProfile {
            base_price: on_demand_price * 0.11,
            on_demand_price,
            spike_rate_per_hour: 1.0 / 19.0,
            spike_height_mult: (2.0, 12.0),
            mean_spike_mins: 25.0,
            base_jitter: 0.25,
            jitter_interval_hours: 1.0,
        }
    }

    /// A moderately volatile market: MTTF ≈ 100 h at an on-demand bid
    /// (the paper's `eu-west-1c` example).
    pub fn moderate(on_demand_price: f64) -> Self {
        TraceProfile {
            base_price: on_demand_price * 0.10,
            on_demand_price,
            spike_rate_per_hour: 1.0 / 100.0,
            spike_height_mult: (2.0, 12.0),
            mean_spike_mins: 20.0,
            base_jitter: 0.2,
            jitter_interval_hours: 1.5,
        }
    }

    /// A quiet market: MTTF ≈ 700 h at an on-demand bid (the paper's
    /// `us-west-2c` example).
    pub fn quiet(on_demand_price: f64) -> Self {
        TraceProfile {
            base_price: on_demand_price * 0.12,
            on_demand_price,
            spike_rate_per_hour: 1.0 / 700.0,
            spike_height_mult: (2.0, 12.0),
            mean_spike_mins: 15.0,
            base_jitter: 0.15,
            jitter_interval_hours: 2.0,
        }
    }

    /// A market with an arbitrary target MTTF (hours) at an on-demand bid.
    ///
    /// Spike durations are scaled down for very volatile targets so the
    /// market keeps a low spike duty cycle (≲5 %) and the mean price
    /// stays below on-demand — otherwise a low-MTTF market would be
    /// uneconomical by construction and every policy would just fall
    /// back to on-demand.
    pub fn with_mttf_hours(on_demand_price: f64, mttf_hours: f64) -> Self {
        let mut p = TraceProfile::volatile(on_demand_price);
        p.spike_rate_per_hour = 1.0 / mttf_hours.max(1e-3);
        p.mean_spike_mins = (mttf_hours * 60.0 * 0.05).clamp(1.0, 25.0);
        p
    }
}

/// A realized marked Poisson process of price spikes.
///
/// Each spike is `(start, duration, price)`. Spike processes can be
/// generated independently per market, or shared between markets to induce
/// the correlated revocations Flint's interactive policy must avoid
/// (Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpikeProcess {
    /// Realized spikes, sorted by start time.
    pub(crate) spikes: Vec<(SimTime, SimDuration, f64)>,
}

impl SpikeProcess {
    /// Samples a spike process with the profile's rate scaled by
    /// `rate_scale`, over `[0, horizon)`.
    pub(crate) fn sample(
        profile: &TraceProfile,
        rate_scale: f64,
        horizon: SimTime,
        seed: u64,
        label: &str,
    ) -> Self {
        let mut rng = stream(seed, label);
        let rate = profile.spike_rate_per_hour * rate_scale;
        let mut spikes = Vec::new();
        if rate <= 0.0 {
            return SpikeProcess { spikes };
        }
        let mean_gap_hours = 1.0 / rate;
        let mut t = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_hours_f64(sample_exp(&mut rng, mean_gap_hours));
            t += gap;
            if t >= horizon {
                break;
            }
            let dur =
                SimDuration::from_secs_f64(sample_exp(&mut rng, profile.mean_spike_mins * 60.0))
                    .max(SimDuration::from_secs(30));
            let (lo, hi) = profile.spike_height_mult;
            let height = profile.on_demand_price * rng.gen_range(lo..hi);
            spikes.push((t, dur, height));
        }
        SpikeProcess { spikes }
    }

    /// Merges two spike processes, keeping chronological order.
    pub(crate) fn merge(mut self, other: &SpikeProcess) -> Self {
        self.spikes.extend(other.spikes.iter().cloned());
        self.spikes.sort_by_key(|(t, _, _)| *t);
        self
    }
}

/// A spike height ordered by [`f64::total_cmp`], so spikes can key a heap.
#[derive(Debug, Clone, Copy)]
struct Height(f64);

impl PartialEq for Height {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Height {}

impl PartialOrd for Height {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Height {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Deterministic generator of price traces from a master seed.
///
/// # Examples
///
/// ```
/// use flint_market::{TraceGenerator, TraceProfile};
/// use flint_simtime::{SimDuration, SimTime};
///
/// let g = TraceGenerator::new(7, SimTime::ZERO + SimDuration::from_days(60));
/// let profile = TraceProfile::volatile(0.35);
/// let a = g.generate("m1", &profile);
/// let b = g.generate("m1", &profile);
/// assert_eq!(a, b); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    seed: u64,
    horizon: SimTime,
}

impl TraceGenerator {
    /// Creates a generator producing traces over `[0, horizon)` from
    /// `seed`.
    pub fn new(seed: u64, horizon: SimTime) -> Self {
        TraceGenerator { seed, horizon }
    }

    /// Generates an independent trace for the market labelled `label`.
    pub fn generate(&self, label: &str, profile: &TraceProfile) -> PriceTrace {
        let spikes = SpikeProcess::sample(profile, 1.0, self.horizon, self.seed, label);
        self.build(label, profile, &spikes)
    }

    /// Generates a family of traces whose spikes are correlated with
    /// coefficient `rho` in `[0, 1]`.
    ///
    /// Each market adopts a *shared* spike process with rate `rho * rate`
    /// plus an independent process with rate `(1 - rho) * rate`, so every
    /// market keeps the profile's marginal spike rate while any pair
    /// shares a `rho` fraction of its spikes — the construction behind the
    /// correlated squares in Fig. 4.
    pub(crate) fn generate_correlated(
        &self,
        group_label: &str,
        labels: &[&str],
        profile: &TraceProfile,
        rho: f64,
    ) -> Vec<PriceTrace> {
        let rho = rho.clamp(0.0, 1.0);
        let shared = SpikeProcess::sample(profile, rho, self.horizon, self.seed, group_label);
        labels
            .iter()
            .map(|label| {
                let own = SpikeProcess::sample(profile, 1.0 - rho, self.horizon, self.seed, label);
                let all = own.merge(&shared);
                self.build(label, profile, &all)
            })
            .collect()
    }

    /// Builds the piecewise-constant trace: jittered base price overlaid
    /// with the spike process (maximum of active spikes wins).
    fn build(&self, label: &str, profile: &TraceProfile, spikes: &SpikeProcess) -> PriceTrace {
        let mut rng = stream(self.seed, &format!("base:{label}"));

        // Base-price change points.
        let mut base_points: Vec<(SimTime, f64)> = vec![(SimTime::ZERO, profile.base_price)];
        let mut t = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_hours_f64(sample_exp(
                &mut rng,
                profile.jitter_interval_hours.max(1e-3),
            ));
            t += gap;
            if t >= self.horizon {
                break;
            }
            let jitter: f64 = rng.gen_range(-profile.base_jitter..=profile.base_jitter);
            base_points.push((t, (profile.base_price * (1.0 + jitter)).max(0.001)));
        }

        // Sweep over all boundaries; at each boundary the price is the max
        // active spike height, or the base price if no spike is active.
        let mut boundaries: Vec<SimTime> = base_points.iter().map(|(t, _)| *t).collect();
        for &(s, d, _) in &spikes.spikes {
            boundaries.push(s);
            boundaries.push((s + d).min(self.horizon));
        }
        boundaries.sort();
        boundaries.dedup();

        let base_at = |t: SimTime| -> f64 {
            match base_points.binary_search_by_key(&t, |(pt, _)| *pt) {
                Ok(i) => base_points[i].1,
                Err(0) => base_points[0].1,
                Err(i) => base_points[i - 1].1,
            }
        };

        // One pass in boundary order: spikes enter a max-heap by height as
        // they start, and a top whose unclamped end `s + d` is at or before
        // the boundary has finished and is popped, so the top is the
        // tallest spike with `s <= b < s + d`. A finished spike under the
        // top stays until it surfaces; the boundaries only grow.
        let mut by_start: Vec<usize> = (0..spikes.spikes.len()).collect();
        by_start.sort_by_key(|&i| spikes.spikes[i].0);
        let mut pending = by_start.into_iter().map(|i| spikes.spikes[i]).peekable();
        let mut active: BinaryHeap<(Height, SimTime)> = BinaryHeap::new();
        let mut points = Vec::with_capacity(boundaries.len());
        for b in boundaries {
            while let Some((s, d, h)) = pending.next_if(|&(s, _, _)| s <= b) {
                active.push((Height(h), s + d));
            }
            while active.peek().is_some_and(|&(_, end)| end <= b) {
                active.pop();
            }
            let spike_price = active.peek().map_or(f64::NEG_INFINITY, |(h, _)| h.0);
            let price = if spike_price.is_finite() {
                spike_price.max(base_at(b))
            } else {
                base_at(b)
            };
            points.push((b, price));
        }
        PriceTrace::from_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn horizon_days(d: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_days(d)
    }

    #[test]
    fn generation_is_deterministic() {
        let g = TraceGenerator::new(99, horizon_days(30));
        let p = TraceProfile::volatile(0.35);
        assert_eq!(g.generate("x", &p), g.generate("x", &p));
    }

    #[test]
    fn different_labels_differ() {
        let g = TraceGenerator::new(99, horizon_days(30));
        let p = TraceProfile::volatile(0.35);
        assert_ne!(g.generate("x", &p), g.generate("y", &p));
    }

    #[test]
    fn realized_mttf_tracks_profile() {
        // A 19 h-MTTF profile over 90 days should yield an empirical MTTF
        // within a factor of ~1.6 of the target.
        let g = TraceGenerator::new(4, horizon_days(90));
        let p = TraceProfile::volatile(0.35);
        let tr = g.generate("m", &p);
        let mttf = tr.mttf_at(SimTime::ZERO, horizon_days(90), p.on_demand_price);
        let h = mttf.as_hours_f64();
        assert!(h > 12.0 && h < 32.0, "empirical MTTF {h:.1}h out of range");
    }

    #[test]
    fn quiet_market_rarely_spikes() {
        let g = TraceGenerator::new(4, horizon_days(90));
        let p = TraceProfile::quiet(0.35);
        let tr = g.generate("m", &p);
        let crossings = tr.up_crossings(SimTime::ZERO, horizon_days(90), p.on_demand_price);
        // Expected ~3 spikes in 90 days at 1/700h.
        assert!(
            crossings.len() <= 12,
            "too many spikes: {}",
            crossings.len()
        );
    }

    #[test]
    fn base_price_stays_below_on_demand() {
        let g = TraceGenerator::new(11, horizon_days(30));
        let p = TraceProfile::moderate(0.50);
        let tr = g.generate("m", &p);
        let mean = tr.mean_price(SimTime::ZERO, horizon_days(30));
        assert!(
            mean < 0.35 * p.on_demand_price,
            "mean spot price {mean} should sit well below on-demand"
        );
    }

    #[test]
    fn spikes_exceed_bid_cap_range() {
        let g = TraceGenerator::new(5, horizon_days(90));
        let p = TraceProfile::volatile(0.35);
        let tr = g.generate("m", &p);
        assert!(tr.max_price() > 2.0 * p.on_demand_price);
    }

    #[test]
    fn fully_correlated_traces_share_revocations() {
        let g = TraceGenerator::new(21, horizon_days(60));
        let p = TraceProfile::volatile(0.35);
        let traces = g.generate_correlated("grp", &["a", "b"], &p, 1.0);
        let e = horizon_days(60);
        let xa = traces[0].up_crossings(SimTime::ZERO, e, p.on_demand_price);
        let xb = traces[1].up_crossings(SimTime::ZERO, e, p.on_demand_price);
        assert_eq!(xa, xb);
        assert!(!xa.is_empty());
    }

    #[test]
    fn uncorrelated_traces_rarely_align() {
        let g = TraceGenerator::new(21, horizon_days(90));
        let p = TraceProfile::volatile(0.35);
        let traces = g.generate_correlated("grp", &["a", "b"], &p, 0.0);
        let e = horizon_days(90);
        let xa = traces[0].up_crossings(SimTime::ZERO, e, p.on_demand_price);
        let xb = traces[1].up_crossings(SimTime::ZERO, e, p.on_demand_price);
        let shared = xa.iter().filter(|t| xb.contains(t)).count();
        assert_eq!(
            shared, 0,
            "independent processes should not share spike starts"
        );
    }

    #[test]
    fn zero_rate_process_is_empty() {
        let p = TraceProfile {
            spike_rate_per_hour: 0.0,
            ..TraceProfile::volatile(0.35)
        };
        let sp = SpikeProcess::sample(&p, 1.0, horizon_days(30), 1, "z");
        assert!(sp.spikes.is_empty());
    }

    /// The pre-sweep `build`, transcribed: the price at each boundary is a
    /// scan of every spike for the tallest with `s <= b < s + d`.
    fn reference_build(
        g: &TraceGenerator,
        label: &str,
        profile: &TraceProfile,
        spikes: &SpikeProcess,
    ) -> PriceTrace {
        let mut rng = stream(g.seed, &format!("base:{label}"));
        let mut base_points: Vec<(SimTime, f64)> = vec![(SimTime::ZERO, profile.base_price)];
        let mut t = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_hours_f64(sample_exp(
                &mut rng,
                profile.jitter_interval_hours.max(1e-3),
            ));
            t += gap;
            if t >= g.horizon {
                break;
            }
            let jitter: f64 = rng.gen_range(-profile.base_jitter..=profile.base_jitter);
            base_points.push((t, (profile.base_price * (1.0 + jitter)).max(0.001)));
        }
        let mut boundaries: Vec<SimTime> = base_points.iter().map(|(t, _)| *t).collect();
        for &(s, d, _) in &spikes.spikes {
            boundaries.push(s);
            boundaries.push((s + d).min(g.horizon));
        }
        boundaries.sort();
        boundaries.dedup();
        let base_at = |t: SimTime| -> f64 {
            match base_points.binary_search_by_key(&t, |(pt, _)| *pt) {
                Ok(i) => base_points[i].1,
                Err(0) => base_points[0].1,
                Err(i) => base_points[i - 1].1,
            }
        };
        let mut points = Vec::with_capacity(boundaries.len());
        for b in boundaries {
            let spike_price = spikes
                .spikes
                .iter()
                .filter(|(s, d, _)| *s <= b && b < *s + *d)
                .map(|(_, _, h)| *h)
                .fold(f64::NEG_INFINITY, f64::max);
            let price = if spike_price.is_finite() {
                spike_price.max(base_at(b))
            } else {
                base_at(b)
            };
            points.push((b, price));
        }
        PriceTrace::from_points(points)
    }

    fn bits(trace: &PriceTrace) -> Vec<(SimTime, u64)> {
        trace
            .points()
            .iter()
            .map(|&(t, p)| (t, p.to_bits()))
            .collect()
    }

    fn profile(which: usize) -> TraceProfile {
        match which {
            0 => TraceProfile::volatile(0.35),
            1 => TraceProfile::quiet(0.35),
            2 => TraceProfile::with_mttf_hours(0.35, 0.5),
            _ => TraceProfile::with_mttf_hours(0.35, 2.0),
        }
    }

    proptest! {
        /// The heap sweep prices every boundary exactly as the scan did.
        /// Sampled families use the group label as one member's label, so
        /// with `rho = 0.5` `merge` joins two copies of one process (equal
        /// starts and heights); minutes-long horizons leave spikes running
        /// past the clamped horizon boundary; the hand-placed spikes sit
        /// on a 15-minute grid with three heights, so starts, ends,
        /// heights and the horizon coincide.
        #[test]
        fn build_sweep_matches_transcribed_scan(
            seed in any::<u64>(),
            which in 0usize..4,
            horizon_mins in prop_oneof![5u64..240, 240u64..20_000],
            rho in prop_oneof![Just(0.0), Just(0.5), Just(1.0), 0.0f64..1.0],
            grid in vec((0u64..48, 1u64..12, 0usize..3), 0..24),
            grid_horizon in 1u64..48,
        ) {
            let p = profile(which);
            let g = TraceGenerator::new(seed, SimTime::ZERO + SimDuration::from_mins(horizon_mins));
            let shared = SpikeProcess::sample(&p, rho, g.horizon, g.seed, "grp");
            for label in ["grp", "a", "b"] {
                let own = SpikeProcess::sample(&p, 1.0 - rho, g.horizon, g.seed, label);
                let all = own.merge(&shared);
                prop_assert_eq!(
                    bits(&g.build(label, &p, &all)),
                    bits(&reference_build(&g, label, &p, &all))
                );
            }

            let quarter = SimDuration::from_mins(15);
            let g = TraceGenerator::new(seed, SimTime::ZERO + quarter * grid_horizon);
            let heights = [2.0 * p.on_demand_price, 3.0 * p.on_demand_price, 3.0 * p.on_demand_price];
            let mut spikes: Vec<(SimTime, SimDuration, f64)> = grid
                .iter()
                .map(|&(s, d, h)| (SimTime::ZERO + quarter * (s % grid_horizon), quarter * d, heights[h]))
                .collect();
            spikes.sort_by_key(|(t, _, _)| *t);
            let hand = SpikeProcess { spikes };
            prop_assert_eq!(
                bits(&g.build("hand", &p, &hand)),
                bits(&reference_build(&g, "hand", &p, &hand))
            );
        }
    }
}
