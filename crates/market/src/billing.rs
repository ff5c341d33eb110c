//! Cost accounting for transient and on-demand servers.
//!
//! Reproduces the 2015-era EC2 billing rules the paper relies on:
//! instances are billed *per hour of use at the spot price in effect at
//! the start of each hour*. A partial final hour is free when the
//! *provider* revokes the instance, but charged in full when the user
//! terminates it. EBS checkpoint volumes are billed per GB-month.

use flint_simtime::{SimDuration, SimTime};

use crate::PriceTrace;

/// Computes the spot bill for an instance used over `[start, end)`.
///
/// `revoked_by_provider` selects the partial-final-hour rule described in
/// the module docs.
///
/// # Examples
///
/// ```
/// use flint_market::{hourly_spot_cost, PriceTrace};
/// use flint_simtime::{SimDuration, SimTime};
///
/// let trace = PriceTrace::flat(0.10);
/// let start = SimTime::ZERO;
/// // 90 minutes, user-terminated: 2 full hours billed.
/// let end = start + SimDuration::from_mins(90);
/// assert!((hourly_spot_cost(&trace, start, end, false) - 0.20).abs() < 1e-12);
/// // 90 minutes, provider-revoked: final partial hour free.
/// assert!((hourly_spot_cost(&trace, start, end, true) - 0.10).abs() < 1e-12);
/// ```
pub fn hourly_spot_cost(
    trace: &PriceTrace,
    start: SimTime,
    end: SimTime,
    revoked_by_provider: bool,
) -> f64 {
    if end <= start {
        return 0.0;
    }
    let hour = SimDuration::from_hours(1);
    let mut cost = 0.0;
    let mut t = start;
    while t < end {
        let hour_end = t + hour;
        let full_hour = hour_end <= end;
        let charge = if full_hour {
            true
        } else {
            // Partial final hour.
            !revoked_by_provider
        };
        if charge {
            cost += trace.price_at(t);
        }
        t = hour_end;
    }
    cost
}

/// Pricing for durable EBS-style checkpoint volumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbsCostModel {
    /// Dollars per GB-month (the paper cites $0.10 for SSD EBS).
    pub price_per_gb_month: f64,
}

impl Default for EbsCostModel {
    fn default() -> Self {
        EbsCostModel {
            price_per_gb_month: 0.10,
        }
    }
}

impl EbsCostModel {
    /// Pro-rated cost of holding `gb` gigabytes for `dur`.
    ///
    /// # Examples
    ///
    /// ```
    /// use flint_market::EbsCostModel;
    /// use flint_simtime::SimDuration;
    ///
    /// let ebs = EbsCostModel::default();
    /// let c = ebs.cost(30.0, SimDuration::from_days(30));
    /// assert!((c - 3.0).abs() < 1e-9); // 30 GB for a month at $0.10/GB-mo
    /// ```
    pub fn cost(&self, gb: f64, dur: SimDuration) -> f64 {
        let months = dur.as_hours_f64() / (24.0 * 30.0);
        self.price_per_gb_month * gb * months
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hours(h: f64) -> SimTime {
        SimTime::from_hours_f64(h)
    }

    #[test]
    fn bills_at_hour_start_price() {
        // Price rises mid-hour; the whole hour is billed at the start price.
        let trace = PriceTrace::from_points(vec![
            (hours(0.0), 0.10),
            (hours(0.5), 1.00),
            (hours(1.0), 0.10),
        ]);
        let c = hourly_spot_cost(&trace, hours(0.0), hours(1.0), false);
        assert!((c - 0.10).abs() < 1e-12);
    }

    #[test]
    fn multi_hour_bill_sums_hour_starts() {
        let trace = PriceTrace::from_points(vec![(hours(0.0), 0.10), (hours(1.0), 0.30)]);
        let c = hourly_spot_cost(&trace, hours(0.0), hours(2.0), false);
        assert!((c - 0.40).abs() < 1e-12);
    }

    #[test]
    fn zero_length_interval_is_free() {
        let trace = PriceTrace::flat(1.0);
        assert_eq!(hourly_spot_cost(&trace, hours(5.0), hours(5.0), false), 0.0);
        assert_eq!(hourly_spot_cost(&trace, hours(5.0), hours(4.0), true), 0.0);
    }

    #[test]
    fn provider_revocation_waives_partial_hour() {
        let trace = PriceTrace::flat(0.2);
        // 2.5 hours of use.
        let user = hourly_spot_cost(&trace, hours(0.0), hours(2.5), false);
        let revoked = hourly_spot_cost(&trace, hours(0.0), hours(2.5), true);
        assert!((user - 0.6).abs() < 1e-12);
        assert!((revoked - 0.4).abs() < 1e-12);
    }

    #[test]
    fn exact_hour_boundary_charges_fully_either_way() {
        let trace = PriceTrace::flat(0.2);
        let a = hourly_spot_cost(&trace, hours(0.0), hours(2.0), false);
        let b = hourly_spot_cost(&trace, hours(0.0), hours(2.0), true);
        assert!((a - b).abs() < 1e-12);
        assert!((a - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ebs_cost_is_linear() {
        let ebs = EbsCostModel {
            price_per_gb_month: 0.10,
        };
        let one = ebs.cost(10.0, SimDuration::from_days(15));
        let two = ebs.cost(20.0, SimDuration::from_days(15));
        assert!((two - 2.0 * one).abs() < 1e-12);
        assert!((ebs.cost(720.0, SimDuration::from_hours(1)) - 0.1).abs() < 1e-9);
    }
}
