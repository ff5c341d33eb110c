//! Trace-driven cost/performance experiments (§5.5, Figures 10 and 11)
//! plus the storage-cost breakdown.

use flint_core::EmrPricing;
use flint_market::MarketCatalog;
use flint_model::{catalog_with_mttf, run_mc, CkptMode, McConfig, PolicyKind};
use flint_simtime::{SimDuration, SimTime};

use crate::Table;

/// Averages `runs` MC executions at staggered trace offsets.
fn averaged<F: Fn(u64, SimTime) -> flint_model::McResult>(
    runs: u64,
    f: F,
) -> Vec<flint_model::McResult> {
    (0..runs)
        .map(|i| {
            let start = SimTime::ZERO + SimDuration::from_days(14 + i * 9);
            f(i, start)
        })
        .collect()
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Figure 10a: runtime increase versus transient-server MTTF for the
/// canonical 4 GB-checkpoint program. The paper reports the increase
/// falling below 10 % once the MTTF exceeds ~20 h.
pub(crate) fn fig10a_mttf_sweep() -> Table {
    let mut table = Table::new(
        "Figure 10a: runtime increase vs MTTF (canonical program, Flint checkpointing)",
        &["MTTF (h)", "runtime increase", "revocation events (avg)"],
    )
    .with_note("Paper: <10% beyond 20h MTTF; steep below 5h. 24h job, avg of 6 offsets.");
    let horizon = SimDuration::from_days(150);
    let job = SimDuration::from_hours(24);
    for mttf in [1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0] {
        let cat = catalog_with_mttf(40, horizon, mttf);
        let results = averaged(6, |seed, start| {
            run_mc(
                &cat,
                &McConfig {
                    job_length: job,
                    seed,
                    start,
                    ..McConfig::default()
                },
            )
        });
        let inc = mean(results.iter().map(|r| r.runtime_increase_frac(job) * 100.0));
        let revs = mean(results.iter().map(|r| f64::from(r.revocation_events)));
        table.push_row(vec![
            format!("{mttf:.0}"),
            format!("{inc:.1}%"),
            format!("{revs:.1}"),
        ]);
    }
    table
}

/// Figure 10b: Flint versus unmodified Spark (no checkpointing) on spot
/// instances, in the calm current spot market and in a high-volatility
/// (GCE-like, ~20 h MTTF) regime.
pub(crate) fn fig10b_flint_vs_spark() -> Table {
    let mut table = Table::new(
        "Figure 10b: runtime increase, Flint vs unmodified Spark on spot servers",
        &["market regime", "system", "runtime increase"],
    )
    .with_note("Paper: current spot <1% (Flint) vs >5% (Spark); high volatility <5% vs ~12%.");
    let job = SimDuration::from_hours(24);

    // "High volatility" is the paper's GCE-preemptible regime: ~20h MTTF
    // with *individual*, uncorrelated revocations (not market-wide
    // spikes).
    let regimes: Vec<(&str, MarketCatalog)> = vec![
        (
            "current spot",
            MarketCatalog::synthetic_ec2(40, SimDuration::from_days(150)),
        ),
        (
            "high volatility (GCE ~20h)",
            MarketCatalog::synthetic_gce(41, SimDuration::from_days(150)),
        ),
    ];
    for (regime, cat) in regimes {
        for (system, ckpt) in [
            ("Flint", CkptMode::Adaptive),
            ("Unmodified Spark", CkptMode::None),
        ] {
            let results = averaged(10, |seed, start| {
                run_mc(
                    &cat,
                    &McConfig {
                        job_length: job,
                        ckpt,
                        seed,
                        start,
                        ..McConfig::default()
                    },
                )
            });
            let inc = mean(results.iter().map(|r| r.runtime_increase_frac(job) * 100.0));
            table.push_row(vec![
                regime.to_string(),
                system.to_string(),
                format!("{inc:.2}%"),
            ]);
        }
    }
    table
}

/// Figure 11a: unit cost (on-demand = 1.0) of Flint's policies versus
/// SpotFleet, Spark-EMR on spot, and on-demand servers.
pub(crate) fn fig11a_unit_cost() -> Table {
    let mut table = Table::new(
        "Figure 11a: unit cost relative to on-demand servers",
        &[
            "system",
            "unit cost",
            "revocations (avg)",
            "runtime increase",
        ],
    )
    .with_note(
        "Paper: Flint-Batch/Interactive ~0.1, SpotFleet ~0.2, EMR-Spot ~0.3, on-demand 1.0. \
         Twelve 8h jobs at staggered offsets over 6-month traces.",
    );
    let cat = MarketCatalog::synthetic_ec2(40, SimDuration::from_days(190));
    // Twelve 8-hour batch jobs at staggered trace offsets: long enough
    // for revocations to matter, short enough that an uncheckpointed
    // catastrophe is bounded per job (the paper's workloads are jobs,
    // not one monolithic 100h computation).
    let job = SimDuration::from_hours(8);
    let emr = EmrPricing::default();

    // (label, policy, checkpointing, emr fee?)
    let systems: [(&str, PolicyKind, CkptMode, bool); 5] = [
        (
            "Flint-Batch",
            PolicyKind::FlintBatch,
            CkptMode::Adaptive,
            false,
        ),
        (
            "Flint-Interactive",
            PolicyKind::FlintInteractive,
            CkptMode::Adaptive,
            false,
        ),
        (
            "Spot-Fleet",
            PolicyKind::SpotFleetCheapest,
            CkptMode::None,
            false,
        ),
        (
            "EMR-Spot",
            PolicyKind::SpotFleetCheapest,
            CkptMode::None,
            true,
        ),
        ("On-demand", PolicyKind::OnDemand, CkptMode::None, false),
    ];
    for (label, policy, ckpt, add_fee) in systems {
        let results = averaged(12, |seed, start| {
            let mut r = run_mc(
                &cat,
                &McConfig {
                    job_length: job,
                    policy,
                    ckpt,
                    seed,
                    start,
                    ..McConfig::default()
                },
            );
            if add_fee {
                r.service_fee = emr.fee(r.n_workers, r.on_demand_price, r.runtime);
            }
            r
        });
        let unit = mean(results.iter().map(flint_model::McResult::unit_cost));
        let revs = mean(results.iter().map(|r| f64::from(r.servers_revoked)));
        let inc = mean(results.iter().map(|r| r.runtime_increase_frac(job) * 100.0));
        table.push_row(vec![
            label.to_string(),
            format!("{unit:.3}"),
            format!("{revs:.1}"),
            format!("{inc:.1}%"),
        ]);
    }
    table
}

/// Figure 11b: normalized expected cost as a function of the bid, for
/// three instance-type market profiles, using the paper's own
/// methodology (§5.5): from the price trace, derive the empirical
/// `MTTF(bid)` and the mean price paid while running (price ≤ bid), and
/// plug both into the expected-cost model (Eq. 2). The paper finds a
/// wide flat optimum around the on-demand price.
pub(crate) fn fig11b_bid_sweep() -> Table {
    use flint_core::{expected_runtime_factor, optimal_tau};
    use flint_store::StorageConfig;

    let bids = [0.1, 0.15, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0];
    let mut headers: Vec<String> = vec!["market profile".to_string()];
    for b in bids {
        headers.push(format!("{b}x"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 11b: expected cost vs bid (Eq. 2, normalized to the per-market minimum)",
        &header_refs,
    )
    .with_note(
        "Paper: a wide flat region around the on-demand bid yields the minimum cost; \
         bids below the steady-state price are penalized by constant revocations, very \
         high bids by paying spike prices. '-' = the market never clears at that bid.",
    );

    // Three volatility profiles standing in for m1.xlarge / m3.2xlarge /
    // m2.2xlarge market behaviour.
    let profiles = [
        ("volatile (m1.xlarge-like)", 19.0),
        ("moderate (m3.2xlarge-like)", 60.0),
        ("quiet (m2.2xlarge-like)", 250.0),
    ];
    let horizon = SimDuration::from_days(120);
    let from = SimTime::ZERO + SimDuration::from_days(7);
    let to = SimTime::ZERO + horizon;
    let od = 0.175;
    let storage = StorageConfig::default();
    let delta = storage.write_time(4_000_000_000, 10);
    let rd = SimDuration::from_secs(120);

    for (name, mttf) in profiles {
        let cat = catalog_with_mttf(42, horizon, mttf);
        let trace = &cat.market(flint_market::MarketId(0)).trace;
        let samples = trace.sample(from, to, SimDuration::from_mins(5));
        let mut costs: Vec<Option<(f64, f64)>> = Vec::new();
        for bid_ratio in bids {
            let bid = bid_ratio * od;
            // Mean price actually paid: the price while it clears the bid.
            let paying: Vec<f64> = samples.iter().copied().filter(|p| *p <= bid).collect();
            let avail = paying.len() as f64 / samples.len().max(1) as f64;
            if paying.is_empty() {
                costs.push(None); // never clears: no allocation at this bid
                continue;
            }
            let price = paying.iter().sum::<f64>() / paying.len() as f64;
            let mttf_at_bid = trace.mttf_at(from, to, bid);
            let tau = optimal_tau(delta, mttf_at_bid);
            let factor = expected_runtime_factor(delta, tau, mttf_at_bid, rd, 1.0);
            costs.push(Some((factor * price, avail)));
        }
        // Normalize against bids at which the market actually clears most
        // of the time (a bid that only clears 15% of the time is not a
        // practical operating point, however cheap its clearing windows).
        let min = costs
            .iter()
            .flatten()
            .filter(|(_, avail)| *avail >= 0.5)
            .map(|(c, _)| *c)
            .fold(f64::INFINITY, f64::min)
            .max(1e-12);
        let mut row = vec![name.to_string()];
        for c in &costs {
            row.push(match c {
                Some((c, avail)) if *avail < 0.5 => {
                    format!("{:.0}% ({:.0}%av)", c / min * 100.0, avail * 100.0)
                }
                Some((c, _)) => format!("{:.0}%", c / min * 100.0),
                None => "-".to_string(),
            });
        }
        table.push_row(row);
    }
    table
}

/// §4/§5.5: EBS checkpoint-storage cost relative to compute. The paper
/// provisions 2× each node\'s RAM as SSD EBS (30 GB on `r3.large`) at
/// $0.10/GB-month and reports the volumes costing ~2 % of the on-demand
/// bill and ~10–20 % of the spot bill.
pub(crate) fn tab_storage_cost() -> Table {
    use flint_market::EbsCostModel;

    let mut table = Table::new(
        "Checkpoint storage (EBS) cost breakdown (§4, §5.5)",
        &["metric", "value"],
    )
    .with_note("Paper: EBS adds ~2% of on-demand cost, ~10-20% of the spot bill.");
    let cat = MarketCatalog::synthetic_ec2(40, SimDuration::from_days(190));
    let job = SimDuration::from_hours(100);
    let results = averaged(6, |seed, start| {
        run_mc(
            &cat,
            &McConfig {
                job_length: job,
                seed,
                start,
                ..McConfig::default()
            },
        )
    });
    let compute = mean(results.iter().map(|r| r.compute_cost));
    let used = mean(results.iter().map(|r| r.storage_cost));
    let hours = mean(results.iter().map(|r| r.runtime.as_hours_f64()));
    let od_equiv = mean(
        results
            .iter()
            .map(|r| r.on_demand_price * f64::from(r.n_workers) * r.runtime.as_hours_f64()),
    );
    // The paper\'s provisioning rule: 2 × 15 GB RAM per r3.large node.
    let provisioned_gb = 2.0 * 15.0 * 10.0;
    let provisioned =
        EbsCostModel::default().cost(provisioned_gb, SimDuration::from_hours_f64(hours));
    table.push_row(vec![
        "spot compute cost ($)".into(),
        format!("{compute:.2}"),
    ]);
    table.push_row(vec![
        "EBS cost, bytes actually held ($)".into(),
        format!("{used:.2}"),
    ]);
    table.push_row(vec![
        "EBS cost, provisioned 30GB/node ($)".into(),
        format!("{provisioned:.2}"),
    ]);
    table.push_row(vec![
        "provisioned EBS / spot compute".into(),
        format!("{:.1}%", provisioned / compute * 100.0),
    ]);
    table.push_row(vec![
        "provisioned EBS / on-demand equivalent".into(),
        format!("{:.1}%", provisioned / od_equiv * 100.0),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10a_monotone_and_under_10pct_past_20h() {
        let t = fig10a_mttf_sweep();
        let at_1h = t.cell_f64(0, 1);
        let at_20h = t.cell_f64(5, 1);
        let at_25h = t.cell_f64(6, 1);
        assert!(
            at_1h > at_20h,
            "increase must fall with MTTF: {at_1h} vs {at_20h}"
        );
        assert!(at_20h < 10.0, "20h MTTF increase {at_20h}% (paper: <10%)");
        assert!(at_25h < 10.0);
    }

    #[test]
    fn fig11a_ordering_matches_paper() {
        let t = fig11a_unit_cost();
        let flint_b = t.cell_f64(0, 1);
        let flint_i = t.cell_f64(1, 1);
        let fleet = t.cell_f64(2, 1);
        let emr = t.cell_f64(3, 1);
        let od = t.cell_f64(4, 1);
        assert!((od - 1.0).abs() < 0.1, "on-demand unit cost {od}");
        // The paper's headline: ~90% savings vs on-demand.
        assert!(flint_b < 0.2, "Flint-Batch unit cost {flint_b}");
        assert!(flint_i < 0.2, "Flint-Interactive unit cost {flint_i}");
        // Flint at least matches the application-agnostic fleet (the
        // paper reports a 2x gap; our hour-start billing shields the
        // fleet from spike prices, see EXPERIMENTS.md).
        assert!(
            flint_b <= fleet + 0.02,
            "Flint {flint_b} must not lose to SpotFleet {fleet}"
        );
        assert!(fleet < emr, "SpotFleet {fleet} must beat EMR {emr}");
        assert!(emr < od, "EMR {emr} must beat on-demand {od}");
        // Unmodified Spark (fleet/EMR) pays a visible recompute penalty.
        let fleet_inc = t.cell_f64(2, 3);
        let flint_inc = t.cell_f64(0, 3);
        assert!(
            fleet_inc > flint_inc + 2.0,
            "fleet runtime increase {fleet_inc}% should exceed Flint's {flint_inc}%"
        );
    }
}
