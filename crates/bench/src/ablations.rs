//! Ablations of Flint's design choices, beyond the paper's headline
//! figures (DESIGN.md §6).

use flint_market::{TraceGenerator, TraceProfile};
use flint_model::{catalog_with_mttf, run_mc, CkptMode, McConfig, PolicyKind};
use flint_simtime::{SimDuration, SimTime};
use flint_workloads::PageRank;

use crate::setups::{
    baseline_runtime, fmt_pct, fmt_secs, on_host_cores, pct_increase, run_workload, HookSpec,
    RunOpts,
};
use crate::Table;

/// Validates the Daly interval: fixed intervals of τ*/4, τ*, and 4·τ*
/// versus the adaptive policy, on a volatile market. τ* should (roughly)
/// minimize the runtime; the adaptive policy should match it.
pub(crate) fn ablation_fixed_tau() -> Table {
    let mut table = Table::new(
        "Ablation: checkpoint interval choice (canonical program, MTTF = 5h)",
        &["interval", "runtime", "increase over failure-free"],
    )
    .with_note("τ* = √(2δ·MTTF); both shorter and longer intervals should lose to τ*.");
    let mttf_h = 5.0;
    let cat = catalog_with_mttf(50, SimDuration::from_days(150), mttf_h);
    let job = SimDuration::from_hours(24);
    let base_cfg = McConfig {
        job_length: job,
        ..McConfig::default()
    };
    let delta = base_cfg
        .storage
        .write_time(base_cfg.checkpoint_bytes, base_cfg.n_workers);
    let tau_star = flint_core::optimal_tau(delta, SimDuration::from_hours_f64(mttf_h));

    let run_avg = |ckpt: CkptMode| -> f64 {
        let mut sum = 0.0;
        for i in 0..6u64 {
            let r = run_mc(
                &cat,
                &McConfig {
                    ckpt,
                    seed: i,
                    start: SimTime::ZERO + SimDuration::from_days(14 + i * 9),
                    ..base_cfg.clone()
                },
            );
            sum += r.runtime.as_secs_f64();
        }
        sum / 6.0
    };

    let rows: Vec<(String, CkptMode)> = vec![
        ("τ*/4 (too eager)".into(), CkptMode::Fixed(tau_star / 4)),
        ("τ* (Daly optimum)".into(), CkptMode::Fixed(tau_star)),
        ("4·τ* (too lazy)".into(), CkptMode::Fixed(tau_star * 4)),
        ("adaptive (Flint)".into(), CkptMode::Adaptive),
        ("none".into(), CkptMode::None),
    ];
    for (name, ckpt) in rows {
        let secs = run_avg(ckpt);
        let inc = (secs - job.as_secs_f64()) / job.as_secs_f64() * 100.0;
        table.push_row(vec![
            name,
            format!("{:.2}h", secs / 3600.0),
            format!("{inc:.1}%"),
        ]);
    }
    table
}

/// Adaptive (Flint) versus Spark-Streaming-style fixed-interval RDD
/// checkpointing, for ALS hit by one full-cluster revocation at 60 % of
/// the run. The fixed intervals are deliberately mis-tuned the way a
/// volatility-unaware operator would tune them: too eager pays write
/// overhead, too lazy pays recomputation.
pub(crate) fn ablation_adaptive_vs_periodic() -> Table {
    use flint_workloads::Als;
    let mut table = Table::new(
        "Ablation: adaptive (Flint) vs fixed-interval RDD checkpointing (ALS, 1 full revocation)",
        &["policy", "mean runtime", "overhead", "ckpts (avg)"],
    )
    .with_note(
        "Spark Streaming checkpoints periodically with no volatility awareness (§6);          Flint adapts τ to MTTF and δ.",
    );
    let wl = Als::paper_scale();
    let base = crate::setups::baseline_runtime(&wl, 10);
    let policies: Vec<(String, HookSpec)> = vec![
        (
            "adaptive (Flint)".into(),
            HookSpec::Flint {
                mttf_hours: 5.0,
                shuffle_fastpath: true,
            },
        ),
        (
            "fixed 1 min".into(),
            HookSpec::Periodic {
                interval: flint_simtime::SimDuration::from_mins(1),
            },
        ),
        (
            "fixed 30 min".into(),
            HookSpec::Periodic {
                interval: flint_simtime::SimDuration::from_mins(30),
            },
        ),
        ("none".into(), HookSpec::None),
    ];
    let strike = SimTime::ZERO + base.mul_f64(0.6);
    for (name, hooks) in policies {
        let run = run_workload(
            &wl,
            &RunOpts {
                hooks,
                kill_batches: vec![(strike, 10)],
                ..RunOpts::default()
            },
        );
        let secs = run.runtime.as_secs_f64();
        table.push_row(vec![
            name,
            format!("{secs:.0}s"),
            fmt_pct((secs - base.as_secs_f64()) / base.as_secs_f64() * 100.0),
            run.stats.checkpoints_written.to_string(),
        ]);
    }
    table
}

/// Isolates the two parts of Policy 1 that protect a short job: the
/// shuffle fast-path (τ / #map-partitions) and adaptive δ
/// re-estimation. PageRank with five mid-run revocations, under Flint,
/// without the fast-path, and with δ frozen at the conservative initial
/// guess (2 minutes), so that τ and the fast-path interval overshoot the
/// job. PageRank's real frontier writes in seconds, which adaptation
/// discovers.
pub(crate) fn ablation_shuffle_fastpath() -> Table {
    let mut table = Table::new(
        "Ablation: shuffle fast-path and adaptive δ (PageRank, 5 revocations, MTTF = 20h)",
        &[
            "configuration",
            "runtime",
            "increase over baseline",
            "checkpoints",
        ],
    )
    .with_note(
        "Without the fast-path, τ exceeds the job length and shuffles go unprotected; \
         frozen δ keeps τ at the conservative initial guess, and its few checkpoints \
         protect nothing.",
    );
    let wl = PageRank::paper_scale();
    let base = baseline_runtime(&wl, 10);
    let mid = SimTime::ZERO + base / 2;
    for (name, hooks) in [
        (
            "Flint",
            HookSpec::Flint {
                mttf_hours: 20.0,
                shuffle_fastpath: true,
            },
        ),
        (
            "no fast-path",
            HookSpec::Flint {
                mttf_hours: 20.0,
                shuffle_fastpath: false,
            },
        ),
        ("frozen δ", HookSpec::FlintFrozenDelta { mttf_hours: 20.0 }),
    ] {
        let run = run_workload(
            &wl,
            &RunOpts {
                hooks,
                kill_batches: vec![(mid, 5)],
                ..RunOpts::default()
            },
        );
        table.push_row(vec![
            name.to_string(),
            fmt_secs(run.runtime),
            fmt_pct(pct_increase(run.runtime, base)),
            run.stats.checkpoints_written.to_string(),
        ]);
    }
    table
}

/// Market diversification depth: caps the interactive policy's market
/// count and reports cost and runtime variability across trace offsets
/// (the paper's variance argument, §3.2.2).
pub(crate) fn ablation_market_count() -> Table {
    let mut table = Table::new(
        "Ablation: interactive diversification depth",
        &[
            "max markets",
            "mean cost ($)",
            "mean runtime (h)",
            "runtime stddev (min)",
        ],
    )
    .with_note("More uncorrelated markets => lower response-time variance at similar cost.");
    let cat = flint_market::MarketCatalog::synthetic_ec2(40, SimDuration::from_days(190));
    let job = SimDuration::from_hours(48);
    for max_markets in [1usize, 2, 4, 6] {
        let mut costs = Vec::new();
        let mut runtimes = Vec::new();
        for i in 0..8u64 {
            let mut cfg = McConfig {
                job_length: job,
                policy: PolicyKind::FlintInteractive,
                seed: i,
                start: SimTime::ZERO + SimDuration::from_days(14 + i * 9),
                ..McConfig::default()
            };
            cfg.selection.max_markets = max_markets;
            let r = run_mc(&cat, &cfg);
            costs.push(r.total_cost());
            runtimes.push(r.runtime.as_secs_f64());
        }
        let mean_cost = costs.iter().sum::<f64>() / costs.len() as f64;
        let mean_rt = runtimes.iter().sum::<f64>() / runtimes.len() as f64;
        let var =
            runtimes.iter().map(|x| (x - mean_rt).powi(2)).sum::<f64>() / runtimes.len() as f64;
        table.push_row(vec![
            max_markets.to_string(),
            format!("{mean_cost:.2}"),
            format!("{:.2}", mean_rt / 3600.0),
            format!("{:.1}", var.sqrt() / 60.0),
        ]);
    }
    table
}

/// Bid stratification (§3.2.2 "Bidding Policy"): the paper argues that
/// spreading bids within a market is ineffective because spikes dwarf any
/// reasonable bid spread. Measures the fraction of revocation spikes
/// that would kill *both* a low (0.8x) and a high (1.5x) bid.
pub(crate) fn ablation_bid_stratification() -> Table {
    let mut table = Table::new(
        "Ablation: bid stratification within a market",
        &[
            "market profile",
            "spikes at 0.8x",
            "also kill 1.5x",
            "both killed",
        ],
    )
    .with_note("Paper: price spikes are large, so servers across a wide bid range fail together.");
    let horizon = SimTime::ZERO + SimDuration::from_days(365);
    let gen = TraceGenerator::new(77, horizon);
    let od = 0.5;
    for (name, profile) in [
        ("volatile", TraceProfile::volatile(od)),
        ("moderate", TraceProfile::moderate(od)),
    ] {
        let trace = gen.generate(name, &profile);
        let low = trace.up_crossings(SimTime::ZERO, horizon, 0.8 * od);
        let both = low
            .iter()
            .filter(|t| trace.price_at(**t) > 1.5 * od)
            .count();
        let frac = both as f64 / low.len().max(1) as f64 * 100.0;
        table.push_row(vec![
            name.to_string(),
            low.len().to_string(),
            both.to_string(),
            format!("{frac:.0}%"),
        ]);
    }
    table
}

/// Extension (the paper's §6 future work): per-batch latency of a
/// Spark-Streaming-style job on transient servers, with and without
/// Flint's checkpointing, when a revocation lands mid-stream. The state
/// RDD accumulates the whole stream history, so an unprotected loss
/// replays everything processed so far.
pub(crate) fn ext_streaming_latency() -> Table {
    use flint_workloads::Streaming;

    let mut table = Table::new(
        "Extension: streaming micro-batch latency under a mid-stream revocation",
        &[
            "policy",
            "median batch",
            "worst batch",
            "final-state checksum",
        ],
    )
    .with_note(
        "A 5-worker revocation lands between batches 9 and 10 of 20; Flint's \
         checkpoints bound the state-RDD replay.",
    );
    let wl = Streaming::paper_scale();

    // Batches arrive every 30 s; strike while batch 10 is pending.
    let strike = SimTime::ZERO + flint_simtime::SimDuration::from_secs(30 * 10 + 5);
    let mut golden = None;
    for (name, hooks) in [
        (
            "Flint (adaptive)",
            HookSpec::Flint {
                mttf_hours: 1.0,
                shuffle_fastpath: true,
            },
        ),
        ("no checkpointing", HookSpec::None),
    ] {
        let opts = RunOpts {
            hooks,
            kill_batches: vec![(strike, 5)],
            ..RunOpts::default()
        };
        let mut d = crate::setups::build_driver(&wl, &opts);
        let (records, totals) = wl.run_stream(&mut d).expect("stream");
        let mut latencies: Vec<f64> = records.iter().map(|r| r.latency.as_secs_f64()).collect();
        latencies.sort_by(f64::total_cmp);
        let median = latencies[latencies.len() / 2];
        let worst = latencies.last().copied().unwrap_or(0.0);
        let checksum = totals.iter().fold(0u64, |acc, (k, t)| {
            acc.rotate_left(7) ^ (*k as u64) ^ (t.to_bits())
        });
        match golden {
            None => golden = Some(checksum),
            Some(g) => assert_eq!(g, checksum, "recovery must preserve stream state"),
        }
        table.push_row(vec![
            name.to_string(),
            format!("{median:.1}s"),
            format!("{worst:.1}s"),
            format!("{checksum:#018x}"),
        ]);
    }
    table
}

/// Fig. 4 / Fig. 11-style ablation: mean-variance portfolio selection
/// versus the greedy batch policy across calm → volatile regimes. The
/// batch policy concentrates the whole cluster in the cheapest market, so
/// one price spike revokes everything at once; the portfolio spreads
/// servers across markets in proportion to the risk-aversion λ, trading
/// pennies of cost for bounded simultaneous losses.
pub(crate) fn ablation_portfolio() -> Table {
    let mut table = Table::new(
        "Ablation: portfolio selection vs greedy batch, calm -> volatile regimes",
        &[
            "regime",
            "policy",
            "mean cost ($)",
            "mean makespan (h)",
            "cost x makespan",
        ],
    )
    .with_note(
        "Canonical 24h program, 6 trace offsets per cell; cost x makespan is the \
         scalar the portfolio objective trades off. Diversification should win \
         where revocations are frequent.",
    );
    let job = SimDuration::from_hours(24);
    for (regime, mttf_h) in [
        ("calm 24h", 24.0),
        ("moderate 8h", 8.0),
        ("volatile 2h", 2.0),
    ] {
        let cat = catalog_with_mttf(50, SimDuration::from_days(150), mttf_h);
        for policy in [PolicyKind::FlintBatch, PolicyKind::Portfolio(2000)] {
            let mut cost_sum = 0.0;
            let mut rt_sum = 0.0;
            const RUNS: u64 = 6;
            for i in 0..RUNS {
                let r = run_mc(
                    &cat,
                    &McConfig {
                        job_length: job,
                        policy,
                        seed: i,
                        start: SimTime::ZERO + SimDuration::from_days(14 + i * 9),
                        ..McConfig::default()
                    },
                );
                cost_sum += r.total_cost();
                rt_sum += r.runtime.as_hours_f64();
            }
            let mean_cost = cost_sum / RUNS as f64;
            let mean_rt = rt_sum / RUNS as f64;
            table.push_row(vec![
                regime.to_string(),
                policy.name().to_string(),
                format!("{mean_cost:.2}"),
                format!("{mean_rt:.2}"),
                format!("{:.1}", mean_cost * mean_rt),
            ]);
        }
    }
    table
}

/// Crossover: the same burst-parallel TPC-H-shaped stage on
/// transient VMs versus serverless functions, across stage scales.
///
/// VMs bill by the instance-hour, so a short burst pays for far more
/// capacity-time than it uses; functions bill per GB-second of actual
/// invocation time, at a much higher unit rate (a 4 GB slot costs
/// ~$0.24/h-equivalent versus ~$0.02/h for a spot r3.large). The
/// crossover the 2018 serverless-Flint paper measured on AWS falls out
/// directly: serverless wins small bursts, VMs win sustained work.
pub(crate) fn ablation_backend() -> Table {
    use flint_core::{BackendSpec, FlintCluster, FlintConfig};
    use flint_engine::ServerlessConfig;
    use flint_market::MarketCatalog;
    use flint_workloads::{Tpch, Workload, WorkloadConfig};

    let mut table = Table::new(
        "Ablation: vm vs serverless on a burst-parallel TPC-H-shaped stage",
        &[
            "stage scale",
            "backend",
            "cost ($)",
            "makespan (s)",
            "cost x makespan",
        ],
    )
    .with_note(
        "One TPC-H query burst (32-way parallel) per cell; VM = 8 spot r3.large \
         billed hourly, serverless = 16 function slots billed per GB-second. \
         The cheaper backend flips as the stage grows: functions win short \
         bursts, VMs win sustained work.",
    );

    let run = |gb: f64, backend: BackendSpec| -> (f64, f64) {
        let wl = Tpch::new(WorkloadConfig {
            dataset_gb: gb,
            partitions: 32,
            iterations: 1,
            seed: 11,
        });
        let catalog = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let workers = match backend {
            BackendSpec::TransientVm => 8,
            BackendSpec::Serverless(_) => 16,
        };
        let config = FlintConfig::builder()
            .n_workers(workers)
            .seed(11)
            .backend(backend)
            .build();
        let mut cluster = FlintCluster::launch(catalog, config);
        let mut cost_model = *cluster.driver().cost_model();
        cost_model.size_scale = wl.recommended_size_scale();
        cluster.driver_mut().set_cost_model(cost_model);
        let started = cluster.driver().now();
        wl.run(cluster.driver_mut())
            .unwrap_or_else(|e| panic!("tpch burst failed on {}: {e}", wl.name()));
        let makespan = (cluster.driver().now() - started).as_secs_f64();
        let report = cluster.shutdown();
        (report.total(), makespan)
    };

    for (label, gb) in [
        ("short burst 0.1 GB", 0.1),
        ("medium 0.5 GB", 0.5),
        ("sustained 2 GB", 2.0),
    ] {
        for (name, backend) in [
            ("vm", BackendSpec::TransientVm),
            (
                "serverless",
                BackendSpec::Serverless(ServerlessConfig::default()),
            ),
        ] {
            let (cost, makespan) = run(gb, backend);
            table.push_row(vec![
                label.to_string(),
                name.to_string(),
                format!("{cost:.4}"),
                format!("{makespan:.1}"),
                format!("{:.4}", cost * makespan / 3600.0),
            ]);
        }
    }
    table
}

/// Graceful-degradation ablation: per-market circuit breakers plus the
/// on-demand backstop, off versus on, as spot volatility climbs from a
/// calm regime to full collapse.
///
/// The guarded cluster trips breakers on repeated revocations, routes
/// replacements away from open markets, and tops the cluster back up
/// with fixed-price on-demand servers whenever capacity falls below the
/// floor. The claim under test is the degradation contract: guards may
/// only trade cost for stability — completion stays at 100% on both
/// sides (correctness is never degraded), while the guarded side shifts
/// revocation churn into on-demand spend as the regime worsens.
pub(crate) fn ablation_backstop() -> Table {
    use flint_core::{FlintCluster, FlintConfig, SelectionConfig};
    use flint_workloads::{Workload, WorkloadConfig};

    let mut table = Table::new(
        "Ablation: circuit breakers + on-demand backstop, calm -> collapse regimes",
        &[
            "regime",
            "guard",
            "completed",
            "mean cost ($)",
            "mean makespan (s)",
            "revocations",
            "breaker trips",
            "runs on od backstop",
        ],
    )
    .with_note(
        "PageRank (4 GB, 32 iterations) on 8 workers, 4 seeded trace draws per \
         cell; regimes set the spot markets' MTTF. guard=on arms per-market \
         circuit breakers (1 strike / 1 h window, 2 h cooldown, price-above-od \
         trips) and the on-demand backstop at a 75% capacity floor. The \
         degradation contract: guards trade cost for stability, never \
         correctness — completion stays full on both sides while the guarded \
         cluster routes replacements away from open markets and ends runs \
         holding fixed-price on-demand capacity instead of churning.",
    );

    const RUNS: u64 = 4;
    let regimes = [
        ("calm 24h", 24.0),
        ("volatile 0.5h", 0.5),
        ("collapse 0.25h", 0.25),
    ];
    // One run per (regime, guard, draw); a cell is RUNS consecutive runs.
    let runs: Vec<(f64, bool, u64)> = regimes
        .iter()
        .flat_map(|&(_, mttf_h)| {
            [false, true]
                .into_iter()
                .flat_map(move |guard| (0..RUNS).map(move |i| (mttf_h, guard, i)))
        })
        .collect();
    // Per run: (cost, makespan) if it completed, revocations, breaker
    // trips, and whether it ended on the backstop.
    let results = on_host_cores(&runs, |&(mttf_h, guard, i)| {
        let wl = PageRank::new(WorkloadConfig {
            dataset_gb: 4.0,
            partitions: 16,
            iterations: 32,
            seed: 7 + i,
        });
        let cat = catalog_with_mttf(90 + i, SimDuration::from_days(30), mttf_h);
        let od_id = cat.on_demand_id();
        let mut selection = SelectionConfig::default();
        if guard {
            selection.breaker_revocation_threshold = 1;
            selection.breaker_window = SimDuration::from_hours(1);
            selection.breaker_cooldown = SimDuration::from_hours(2);
            selection.breaker_price_factor = 1.0;
            selection.capacity_floor = 0.75;
            selection.backstop = true;
        }
        let config = FlintConfig::builder()
            .n_workers(8)
            .seed(90 + i)
            .start(SimTime::ZERO + SimDuration::from_days(7 + i * 5))
            .selection(selection)
            .build();
        let mut cluster = FlintCluster::launch(cat, config);
        let mut cost_model = *cluster.driver().cost_model();
        cost_model.size_scale = wl.recommended_size_scale();
        cluster.driver_mut().set_cost_model(cost_model);
        let started = cluster.driver().now();
        let res = wl.run(cluster.driver_mut());
        let makespan = (cluster.driver().now() - started).as_secs_f64();
        let nm = cluster.node_manager();
        let (revocations, trips) = (nm.revocations(), nm.breaker_trips());
        // A run "ends on the backstop" when fixed-price on-demand
        // capacity is still in the active set at completion — either
        // the strict backstop tier or breaker-routed od replacement.
        let on_backstop = nm.backstop_workers() > 0 || nm.active_markets().contains(&od_id);
        let report = cluster.shutdown();
        let done = res.is_ok().then(|| (report.total(), makespan));
        (done, revocations, trips, on_backstop)
    });

    // Folded in run order, so the float sums are the serial loop's.
    let mut cells = results.chunks(RUNS as usize);
    for (regime, _) in regimes {
        for guard in [false, true] {
            let cell = cells.next().expect("one cell per regime and guard");
            let (mut completed, mut cost_sum, mut rt_sum) = (0u64, 0.0f64, 0.0f64);
            let (mut revocations, mut trips, mut od_runs) = (0u64, 0u64, 0u64);
            for (done, revs, run_trips, on_backstop) in cell {
                revocations += revs;
                trips += run_trips;
                od_runs += u64::from(*on_backstop);
                if let Some((cost, makespan)) = done {
                    completed += 1;
                    cost_sum += cost;
                    rt_sum += makespan;
                }
            }
            let denom = completed.max(1) as f64;
            table.push_row(vec![
                regime.to_string(),
                if guard { "on" } else { "off" }.to_string(),
                format!("{completed}/{RUNS}"),
                format!("{:.4}", cost_sum / denom),
                format!("{:.1}", rt_sum / denom),
                revocations.to_string(),
                trips.to_string(),
                format!("{od_runs}/{RUNS}"),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "24 long simulated runs; minutes in debug — run with --release"
    )]
    fn backstop_guards_trade_cost_for_stability_never_correctness() {
        let t = ablation_backstop();
        println!("{t}");
        // Rows alternate off/on per regime. Completion must be full
        // everywhere — the degradation contract.
        for row in &t.rows {
            assert_eq!(row[2], "4/4", "completion degraded: {row:?}");
        }
        // Guards are free in the calm regime (identical rows)…
        assert_eq!(t.rows[0][3], t.rows[1][3], "calm cost must not change");
        // …and in the collapse regime they trip breakers and pay for
        // stability in dollars, not in correctness.
        let off = t.cell_f64(4, 3);
        let on = t.cell_f64(5, 3);
        assert!(on >= off, "guards may only degrade in cost: {on} vs {off}");
        let trips: u64 = t.rows[5][6].parse().unwrap();
        assert!(trips > 0, "collapse regime must trip breakers:\n{t}");
    }

    #[test]
    fn stratification_is_mostly_ineffective() {
        let t = ablation_bid_stratification();
        for row in 0..2 {
            let spikes: f64 = t.rows[row][1].parse().unwrap();
            let both: f64 = t.rows[row][2].parse().unwrap();
            assert!(spikes > 0.0);
            assert!(
                both / spikes > 0.7,
                "most spikes should kill the whole bid range ({both}/{spikes})"
            );
        }
    }

    #[test]
    fn portfolio_beats_greedy_in_a_volatile_regime() {
        let t = ablation_portfolio();
        println!("{t}");
        // Rows alternate batch/portfolio per regime; compare the
        // cost x makespan column (index 4) and require the portfolio to
        // win (or tie) in at least one non-calm regime.
        let mut wins = 0;
        for pair in (0..t.rows.len()).step_by(2).skip(1) {
            let batch = t.cell_f64(pair, 4);
            let portfolio = t.cell_f64(pair + 1, 4);
            if portfolio <= batch {
                wins += 1;
            }
        }
        assert!(
            wins >= 1,
            "portfolio should beat greedy on cost x makespan in >=1 volatile regime:\n{t}"
        );
    }

    #[test]
    fn backend_crossover_favors_serverless_for_short_bursts() {
        let t = ablation_backend();
        println!("{t}");
        // Rows alternate vm/serverless per scale; compare cost (col 2).
        let vm_small = t.cell_f64(0, 2);
        let sls_small = t.cell_f64(1, 2);
        assert!(
            sls_small < vm_small,
            "a short burst should be cheaper on functions: {sls_small} vs {vm_small}"
        );
        // The serverless/vm cost ratio must grow with stage scale — the
        // crossover direction, even if the flip point sits outside the
        // swept range.
        let ratio = |row: usize| t.cell_f64(row + 1, 2) / t.cell_f64(row, 2).max(1e-12);
        assert!(
            ratio(4) > ratio(0),
            "serverless should lose ground as the stage grows:\n{t}"
        );
    }

    #[test]
    fn shuffle_fastpath_reduces_failure_cost() {
        let t = ablation_shuffle_fastpath();
        let with = t.cell_f64(0, 1);
        let without = t.cell_f64(1, 1);
        assert!(
            with <= without + 1.0,
            "fast-path should not hurt: {with}s vs {without}s"
        );
        let frozen = t.cell_f64(2, 1);
        assert!(
            with <= frozen + 1.0,
            "adaptive δ should not hurt: {with}s vs {frozen}s"
        );
        // The fast-path actually checkpoints something in a short job.
        assert!(t.cell_f64(0, 3) > 0.0);
    }
}
