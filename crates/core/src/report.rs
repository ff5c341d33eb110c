//! Cost and performance reporting.

use flint_simtime::{SimDuration, SimTime};

/// The bill and fault-tolerance summary of a cluster session.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Selection policy that produced this bill.
    pub policy: String,
    /// Instance (compute) cost in dollars.
    pub compute_cost: f64,
    /// Durable checkpoint storage (EBS) cost in dollars.
    pub storage_cost: f64,
    /// Session start.
    pub(crate) start: SimTime,
    /// Accounting end.
    pub(crate) end: SimTime,
    /// Cluster size.
    pub(crate) n_workers: u32,
    /// On-demand price of the reference instance type.
    pub(crate) on_demand_price: f64,
    /// Provider revocations during the session.
    pub revocations: u64,
    /// Execution backend that produced this bill (`"vm"` or
    /// `"serverless"`).
    pub backend: String,
    /// Billable invocations (serverless only; 0 under the VM backend,
    /// where compute is billed per instance-hour).
    pub invocations: u64,
    /// Σ GB-seconds across all invocations (serverless only).
    pub invocation_gb_seconds: f64,
}

impl CostReport {
    /// Total dollars spent.
    pub fn total(&self) -> f64 {
        self.compute_cost + self.storage_cost
    }

    /// Session duration.
    pub(crate) fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// What the same cluster would have cost on on-demand servers.
    pub fn on_demand_equivalent(&self) -> f64 {
        self.on_demand_price * f64::from(self.n_workers) * self.duration().as_hours_f64()
    }

    /// Cost normalized to the on-demand equivalent (the paper's "unit
    /// cost", Fig. 11a — on-demand = 1.0, Flint ≈ 0.1).
    pub fn unit_cost(&self) -> f64 {
        let od = self.on_demand_equivalent();
        if od <= 0.0 {
            return 0.0;
        }
        self.total() / od
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CostReport {
        CostReport {
            policy: "flint-batch".into(),
            compute_cost: 1.0,
            storage_cost: 0.1,
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_hours(10),
            n_workers: 10,
            on_demand_price: 0.175,
            revocations: 2,
            backend: "vm".into(),
            invocations: 0,
            invocation_gb_seconds: 0.0,
        }
    }

    #[test]
    fn totals_and_unit_cost() {
        let r = report();
        assert!((r.total() - 1.1).abs() < 1e-12);
        let od = 0.175 * 10.0 * 10.0;
        assert!((r.on_demand_equivalent() - od).abs() < 1e-9);
        assert!((r.unit_cost() - 1.1 / od).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_unit_cost_is_zero() {
        let mut r = report();
        r.end = r.start;
        assert_eq!(r.unit_cost(), 0.0);
    }
}
