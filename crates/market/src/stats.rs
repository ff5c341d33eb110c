//! Trace statistics: the availability and time-to-failure analysis
//! behind Figure 2, packaged for reuse.

use flint_simtime::{SimDuration, SimTime};

use crate::PriceTrace;

/// Summary statistics of the time-to-failure distribution of a trace at
/// a given bid.
#[derive(Debug, Clone, PartialEq)]
pub struct TtfStats {
    /// Number of samples taken.
    pub(crate) samples: usize,
    /// Mean time to failure.
    pub mean: SimDuration,
    /// 25th percentile.
    pub p25: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 75th percentile.
    pub p75: SimDuration,
    /// Fraction of time the price clears the bid (availability).
    pub availability: f64,
}

impl TtfStats {
    /// Samples the TTF distribution of `trace` at `bid`: from start
    /// instants spaced `stride` apart over `[from, to)`, how long until
    /// the next up-crossing of the bid. Instants with no further
    /// crossing are right-censored and excluded from the TTF quantiles
    /// (but counted into availability).
    ///
    /// # Examples
    ///
    /// ```
    /// use flint_market::{TraceGenerator, TraceProfile, TtfStats};
    /// use flint_simtime::{SimDuration, SimTime};
    ///
    /// let g = TraceGenerator::new(3, SimTime::ZERO + SimDuration::from_days(90));
    /// let trace = g.generate("m", &TraceProfile::volatile(0.35));
    /// let s = TtfStats::sample(
    ///     &trace, 0.35,
    ///     SimTime::ZERO, SimTime::ZERO + SimDuration::from_days(90),
    ///     SimDuration::from_hours(12),
    /// );
    /// // Volatile profile targets ~19h MTTF.
    /// assert!(s.mean.as_hours_f64() > 8.0 && s.mean.as_hours_f64() < 40.0);
    /// assert!(s.availability > 0.9);
    /// ```
    pub fn sample(
        trace: &PriceTrace,
        bid: f64,
        from: SimTime,
        to: SimTime,
        stride: SimDuration,
    ) -> TtfStats {
        let mut ttfs: Vec<SimDuration> = Vec::new();
        let mut t = from;
        while t < to {
            if let Some(rev) = trace.next_up_crossing(t, bid) {
                ttfs.push(rev - t);
            }
            t += stride;
        }
        ttfs.sort();
        let samples = ttfs.len();
        let mean = if samples == 0 {
            SimDuration::MAX
        } else {
            SimDuration::from_millis(
                (ttfs.iter().map(|d| d.as_millis() as u128).sum::<u128>() / samples as u128) as u64,
            )
        };
        let pct = |p: f64| -> SimDuration {
            if ttfs.is_empty() {
                return SimDuration::MAX;
            }
            let idx = ((ttfs.len() - 1) as f64 * p).round() as usize;
            ttfs[idx]
        };
        // Availability: fraction of sampled instants where price ≤ bid.
        let prices = trace.sample(from, to, stride);
        let clear = prices.iter().filter(|p| **p <= bid).count();
        let availability = clear as f64 / prices.len().max(1) as f64;
        TtfStats {
            samples,
            mean,
            p25: pct(0.25),
            p50: pct(0.50),
            p75: pct(0.75),
            availability,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, TraceProfile};

    fn sample_stats(mttf_target: f64) -> TtfStats {
        let horizon = SimTime::ZERO + SimDuration::from_days(180);
        let g = TraceGenerator::new(11, horizon);
        let profile = TraceProfile::with_mttf_hours(0.35, mttf_target);
        let trace = g.generate("s", &profile);
        TtfStats::sample(
            &trace,
            0.35,
            SimTime::ZERO,
            horizon,
            SimDuration::from_hours(6),
        )
    }

    #[test]
    fn quantiles_are_ordered() {
        let s = sample_stats(20.0);
        assert!(s.p25 <= s.p50);
        assert!(s.p50 <= s.p75);
        assert!(s.samples > 100);
    }

    #[test]
    fn mean_tracks_profile_target() {
        let fast = sample_stats(5.0);
        let slow = sample_stats(100.0);
        assert!(slow.mean > fast.mean * 4);
    }

    #[test]
    fn availability_rises_with_bid() {
        let horizon = SimTime::ZERO + SimDuration::from_days(90);
        let g = TraceGenerator::new(5, horizon);
        let trace = g.generate("a", &TraceProfile::volatile(0.35));
        let low = TtfStats::sample(
            &trace,
            0.02,
            SimTime::ZERO,
            horizon,
            SimDuration::from_hours(2),
        );
        let high = TtfStats::sample(
            &trace,
            0.35,
            SimTime::ZERO,
            horizon,
            SimDuration::from_hours(2),
        );
        assert!(high.availability > low.availability);
        assert!(high.availability > 0.9);
    }

    #[test]
    fn flat_trace_never_fails() {
        let trace = PriceTrace::flat(0.1);
        let s = TtfStats::sample(
            &trace,
            0.2,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(10),
            SimDuration::from_hours(12),
        );
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean, SimDuration::MAX);
        assert_eq!(s.availability, 1.0);
    }
}
