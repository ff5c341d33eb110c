//! Engine-level experiments: the prototype measurements of §5.2–§5.4
//! (Figures 3, 6, 7, 8, 9 and the multi-availability-zone note).

use flint_engine::WorkerSpec;
use flint_simtime::{SimDuration, SimTime};
use flint_store::StorageConfig;
use flint_workloads::{Als, KMeans, PageRank, Tpch, TpchQuery, Workload, WorkloadConfig};

use crate::setups::{
    baseline_runtime, build_driver, fmt_pct, fmt_secs, on_host_cores, pct_increase, run_workload,
    HookSpec, RunOpts, ACQ,
};
use crate::Table;

fn batch_workloads() -> Vec<(&'static str, Box<dyn Workload>)> {
    vec![
        ("PageRank", Box::new(PageRank::paper_scale())),
        ("KMeans", Box::new(KMeans::paper_scale())),
        ("ALS", Box::new(Als::paper_scale())),
    ]
}

/// Figure 3: simultaneous revocations under memory pressure. PageRank at
/// 2/4/6 GB on ten `r3.large` workers with limited local disk; five
/// servers are revoked at mid-run. The paper reports the increase
/// exploding (to out-of-memory behaviour) at 6 GB.
pub(crate) fn fig03_memory_pressure() -> Table {
    let mut table = Table::new(
        "Figure 3: simultaneous revocations under memory pressure (PageRank)",
        &[
            "dataset",
            "baseline",
            "5 revoked",
            "increase",
            "recompute (min)",
        ],
    )
    .with_note("Paper: ~30% at 2GB, ~250% at 4GB, out-of-memory (~700%) at 6GB.");

    // The paper notes local instance storage is limited (~10 GB on most
    // nodes); constrain spill space accordingly.
    let worker = WorkerSpec {
        disk_bytes: 10_000_000_000,
        ..WorkerSpec::r3_large()
    };

    for gb in [2.0, 4.0, 6.0] {
        let wl = PageRank::new(WorkloadConfig {
            dataset_gb: gb,
            partitions: 20,
            iterations: 10,
            seed: 42,
        });
        let base = run_workload(
            &wl,
            &RunOpts {
                worker,
                ..RunOpts::default()
            },
        );
        let mid = SimTime::ZERO + base.runtime / 2;
        // No replacements: the motivation figure (§3.2) stresses the
        // window where the surviving half of the cluster must absorb the
        // working set and the recomputation load.
        let failed = run_workload(
            &wl,
            &RunOpts {
                worker,
                kill_batches: vec![(mid, 5)],
                replace: false,
                ..RunOpts::default()
            },
        );
        assert_eq!(failed.summary.checksum, base.summary.checksum);
        table.push_row(vec![
            format!("{gb:.0}GB"),
            fmt_secs(base.runtime),
            fmt_secs(failed.runtime),
            fmt_pct(pct_increase(failed.runtime, base.runtime)),
            format!("{:.1}", failed.stats.recompute_time.as_secs_f64() / 60.0),
        ]);
    }
    table
}

/// Measures the checkpointing tax of `hooks` for one workload: the
/// percentage increase in failure-free running time versus no
/// checkpointing.
fn ckpt_tax(workload: &dyn Workload, hooks: HookSpec) -> (f64, u64) {
    let base = baseline_runtime(workload, 10);
    let run = run_workload(
        workload,
        &RunOpts {
            hooks,
            ..RunOpts::default()
        },
    );
    (
        pct_increase(run.runtime, base),
        run.stats.checkpoints_written,
    )
}

/// Figure 6a: Flint's RDD checkpointing tax at MTTF = 50 h. The paper
/// reports 2–10 %, highest for ALS.
pub(crate) fn fig06a_ckpt_tax() -> Table {
    let mut table = Table::new(
        "Figure 6a: Flint checkpointing tax (MTTF = 50h, no failures)",
        &["workload", "tax", "checkpoints written"],
    )
    .with_note("Paper: 2-10% across ALS/KMeans/PageRank; ALS highest.");
    for (name, wl) in batch_workloads() {
        let (tax, written) = ckpt_tax(
            wl.as_ref(),
            HookSpec::Flint {
                mttf_hours: 50.0,
                shuffle_fastpath: true,
            },
        );
        table.push_row(vec![name.to_string(), fmt_pct(tax), written.to_string()]);
    }
    table
}

/// Figure 6b: application-level (Flint-RDD) versus systems-level
/// whole-memory checkpointing for ALS at the same cadence. The paper
/// reports ~10 % versus ~50 %.
pub(crate) fn fig06b_system_ckpt() -> Table {
    let mut table = Table::new(
        "Figure 6b: checkpointing tax, Flint-RDD vs systems-level (ALS, MTTF = 50h)",
        &["approach", "tax", "checkpoint bytes (GB)"],
    )
    .with_note("Paper: ~10% for Flint-RDD vs ~50% for systems-level distributed snapshots.");
    let wl = Als::paper_scale();
    let base = baseline_runtime(&wl, 10);

    let flint = run_workload(
        &wl,
        &RunOpts {
            hooks: HookSpec::Flint {
                mttf_hours: 50.0,
                shuffle_fastpath: true,
            },
            ..RunOpts::default()
        },
    );
    // The systems-level baseline snapshots at Flint's *narrow-timer*
    // cadence — the full-state protection frequency — rather than the
    // per-shuffle fast-path (whole-memory snapshots at the fast-path
    // rate would be absurd for any system).
    let interval = (flint.runtime / 4).max(SimDuration::from_secs(60));
    let system = run_workload(
        &wl,
        &RunOpts {
            hooks: HookSpec::System { interval },
            ..RunOpts::default()
        },
    );

    for (name, run) in [("Flint-RDD", &flint), ("System-level", &system)] {
        table.push_row(vec![
            name.to_string(),
            fmt_pct(pct_increase(run.runtime, base)),
            format!("{:.1}", run.stats.checkpoint_bytes as f64 / 1e9),
        ]);
    }
    table
}

/// Figure 6c: ALS checkpointing overhead versus cluster MTTF
/// (50/20/5/1 h). The paper reports overhead climbing from ~10 % to
/// ~50 % at 1 h. On real spot servers the measurement cannot separate
/// checkpoint tax from revocation recovery, so we match it: each run
/// experiences full-cluster revocations drawn as a Poisson process at
/// the stated MTTF (averaged over five seeds), with Flint's adaptive
/// checkpointing active.
pub(crate) fn fig06c_volatility() -> Table {
    let mut table = Table::new(
        "Figure 6c: ALS overhead (ckpt tax + recovery) vs cluster MTTF",
        &[
            "cluster MTTF",
            "overhead",
            "revocation events (avg)",
            "ckpts (avg)",
        ],
    )
    .with_note("Paper: ~10% at 50h rising to ~50% at 1h. 24 seeds per point.");
    let wl = Als::paper_scale();
    let base = baseline_runtime(&wl, 10);
    const SEEDS: u64 = 24;
    let mttfs = [50.0, 20.0, 5.0, 1.0];
    let runs: Vec<(f64, u64)> = mttfs
        .iter()
        .flat_map(|&mttf| (0..SEEDS).map(move |seed| (mttf, seed)))
        .collect();
    // Poisson full-cluster revocations at rate 1/MTTF over a window
    // comfortably covering the (inflated) run.
    let horizon = SimTime::ZERO + base.mul_f64(1.5);
    let results = on_host_cores(&runs, |&(mttf, seed)| {
        let kill_batches = crate::setups::poisson_kills(mttf, horizon, 10, seed, "fig06c");
        let run = run_workload(
            &wl,
            &RunOpts {
                hooks: HookSpec::Flint {
                    mttf_hours: mttf,
                    shuffle_fastpath: true,
                },
                kill_batches,
                ..RunOpts::default()
            },
        );
        (
            run.runtime.as_secs_f64(),
            run.stats.revocations as f64 / 10.0,
            run.stats.checkpoints_written as f64,
        )
    });
    // Folded in seed order, so the float sums are the serial loop's.
    for (mttf, per_seed) in mttfs.iter().zip(results.chunks(SEEDS as usize)) {
        let mut runtimes = 0.0;
        let mut revs = 0.0;
        let mut ckpts = 0.0;
        for (runtime, rev, ckpt) in per_seed {
            runtimes += runtime;
            revs += rev;
            ckpts += ckpt;
        }
        let mean_rt = runtimes / SEEDS as f64;
        let overhead = (mean_rt - base.as_secs_f64()) / base.as_secs_f64() * 100.0;
        table.push_row(vec![
            format!("{mttf:.0}h"),
            fmt_pct(overhead),
            format!("{:.1}", revs / SEEDS as f64),
            format!("{:.0}", ckpts / SEEDS as f64),
        ]);
    }
    table
}

/// Figure 7: cost of a single revocation without checkpointing: the
/// paper reports a 50–90 % running-time increase, dominated by
/// recomputation (node acquisition is ~5 % of the increase for PageRank,
/// negligible for the longer workloads).
pub(crate) fn fig07_single_revocation() -> Table {
    let mut table = Table::new(
        "Figure 7: running-time increase from one revocation (no checkpointing)",
        &[
            "workload",
            "baseline",
            "with 1 revocation",
            "increase",
            "recompute share",
            "acquisition share",
        ],
    )
    .with_note(
        "Paper: +50-90%; recomputation dominates, acquisition ~5% of the increase (PageRank).",
    );
    for (name, wl) in batch_workloads() {
        let base = run_workload(wl.as_ref(), &RunOpts::default());
        let mid = SimTime::ZERO + base.runtime / 2;
        let failed = run_workload(
            wl.as_ref(),
            &RunOpts {
                kill_batches: vec![(mid, 1)],
                ..RunOpts::default()
            },
        );
        assert_eq!(failed.summary.checksum, base.summary.checksum);
        let extra = (failed.runtime - base.runtime).as_secs_f64().max(1e-9);
        // Acquisition component: one lost slot (1/N capacity) for the
        // acquisition delay, plus any full stall.
        let acquisition = ACQ.as_secs_f64() / 10.0 + failed.stats.stall_time.as_secs_f64();
        let recompute = (extra - acquisition).max(0.0);
        table.push_row(vec![
            name.to_string(),
            fmt_secs(base.runtime),
            fmt_secs(failed.runtime),
            fmt_pct(pct_increase(failed.runtime, base.runtime)),
            fmt_pct(recompute / extra * 100.0),
            fmt_pct((acquisition / extra * 100.0).min(100.0)),
        ]);
    }
    table
}

/// Figure 8 (a–c): running time versus concurrent revocations
/// {0, 1, 5, 10}, with Flint's checkpointing versus recomputation only.
pub(crate) fn fig08_concurrent_failures() -> Table {
    let mut table = Table::new(
        "Figure 8: running time vs concurrent revocations, checkpointing vs recomputation",
        &[
            "workload",
            "failures",
            "recompute",
            "with checkpointing",
            "ckpt advantage",
        ],
    )
    .with_note(
        "Paper: recompute grows sublinearly with failures; checkpointing bounds the \
         increase (15-100% better).",
    );
    for (name, wl) in batch_workloads() {
        let base = baseline_runtime(wl.as_ref(), 10);
        for failures in [0u32, 1, 5, 10] {
            let kill = if failures == 0 {
                Vec::new()
            } else {
                vec![(SimTime::ZERO + base / 2, failures)]
            };
            let rec = run_workload(
                wl.as_ref(),
                &RunOpts {
                    kill_batches: kill.clone(),
                    hooks: HookSpec::None,
                    ..RunOpts::default()
                },
            );
            let ck = run_workload(
                wl.as_ref(),
                &RunOpts {
                    kill_batches: kill,
                    hooks: HookSpec::Flint {
                        mttf_hours: 20.0,
                        shuffle_fastpath: true,
                    },
                    ..RunOpts::default()
                },
            );
            let advantage = (rec.runtime.as_secs_f64() - ck.runtime.as_secs_f64())
                / rec.runtime.as_secs_f64()
                * 100.0;
            table.push_row(vec![
                name.to_string(),
                failures.to_string(),
                fmt_secs(rec.runtime),
                fmt_secs(ck.runtime),
                fmt_pct(advantage),
            ]);
        }
    }
    table
}

/// Figure 9: TPC-H response times with and without revocations, for the
/// three configurations the paper compares: recomputation only, Flint's
/// batch policy (one market: all ten servers revoked together), and
/// Flint's interactive policy (diversified markets: ten staggered
/// single-server revocations).
pub(crate) fn fig09_interactive() -> Table {
    let mut table = Table::new(
        "Figure 9: TPC-H query response times under revocations",
        &[
            "configuration",
            "query",
            "no-failure",
            "after failure",
            "slowdown",
        ],
    )
    .with_note(
        "Paper: recompute 400-500s; Flint-Batch 100-150s (4x better); \
         Flint-Interactive 28-55s (further 3x). Q3 = short, Q1 = medium.",
    );
    let wl = Tpch::paper_scale();

    // Tables are resident by t ≈ 2 min; failures strike at t = 30 min.
    let t_fail = SimTime::from_hours_f64(0.5);
    let queries = [
        (TpchQuery::Q3, "Q3 (short)"),
        (TpchQuery::Q1, "Q1 (medium)"),
    ];

    // (name, checkpointed?, staggered?)
    let configs = [
        ("Recomputation", false, false),
        ("Flint-Batch", true, false),
        ("Flint-Interactive", true, true),
    ];

    for (cfg_name, checkpointed, staggered) in configs {
        for (q, qname) in &queries {
            // Each (configuration, query) probe gets a fresh session so
            // the first post-failure query pays the full recovery cost
            // (queries would otherwise warm the cache for each other).
            let kill_batches = if staggered {
                // Diversified markets fail independently: a revocation
                // event takes out only one market's slice of the cluster
                // (3 of 10 servers), §3.2.
                vec![(t_fail, 3u32)]
            } else {
                // One market: the whole cluster revoked at once.
                vec![(t_fail, 10u32)]
            };
            let opts = RunOpts {
                hooks: if checkpointed {
                    HookSpec::Flint {
                        mttf_hours: 10.0,
                        shuffle_fastpath: true,
                    }
                } else {
                    HookSpec::None
                },
                kill_batches,
                // 2015-era S3 re-fetch is slow (the paper's recompute
                // path re-reads, re-partitions and de-serializes, §5.4).
                source_mib_s: 10.0,
                ..RunOpts::default()
            };
            let mut d = build_driver(&wl, &opts);
            let tables = wl.prepare(&mut d).expect("prepare");
            if checkpointed {
                // Flint's frontier policy checkpoints resident tables
                // when they are generated (in a long-running service the
                // τ timer is due in steady state); materialize that
                // coverage.
                for t in [tables.lineitem, tables.orders, tables.customer] {
                    d.checkpoint_now(t).expect("checkpoint tables");
                }
            }

            // Warm (no-failure) latency.
            d.reset_stats();
            let _ = wl.query(&mut d, &tables, *q).expect("warm query");
            let warm = d.stats().last_action_latency().unwrap();

            // Ride out the revocation schedule, then probe again.
            let settle = SimTime::from_hours_f64(1.25);
            d.idle_until(settle).expect("idle across failures");
            d.reset_stats();
            let _ = wl.query(&mut d, &tables, *q).expect("post-failure query");
            let cold = d.stats().last_action_latency().unwrap();

            let slowdown = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
            table.push_row(vec![
                cfg_name.to_string(),
                qname.to_string(),
                fmt_secs(warm),
                fmt_secs(cold),
                format!("{slowdown:.1}x"),
            ]);
        }
    }
    table
}

/// §5.2's multi-availability-zone note: spreading workers across zones
/// halves checkpoint write bandwidth but barely hurts: the paper reports
/// no noticeable change for KMeans and ~7 % for ALS.
pub(crate) fn tab_multi_az() -> Table {
    let mut table = Table::new(
        "Multi-AZ deployment: checkpoint-bandwidth penalty (§5.2)",
        &["workload", "single-AZ", "multi-AZ", "degradation"],
    )
    .with_note("Paper: no noticeable KMeans change; ~7% for ALS (bandwidth-, not latency-bound).");
    for (name, wl) in [
        (
            "KMeans",
            Box::new(KMeans::paper_scale()) as Box<dyn Workload>,
        ),
        ("ALS", Box::new(Als::paper_scale())),
    ] {
        let hooks = HookSpec::Flint {
            mttf_hours: 20.0,
            shuffle_fastpath: true,
        };
        let near = run_workload(
            wl.as_ref(),
            &RunOpts {
                hooks,
                ..RunOpts::default()
            },
        );
        let far = run_workload(
            wl.as_ref(),
            &RunOpts {
                hooks,
                storage: StorageConfig {
                    cross_zone_factor: 2.0,
                    ..StorageConfig::default()
                },
                ..RunOpts::default()
            },
        );
        table.push_row(vec![
            name.to_string(),
            fmt_secs(near.runtime),
            fmt_secs(far.runtime),
            fmt_pct(pct_increase(far.runtime, near.runtime)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06a_tax_small_and_als_largest() {
        let t = fig06a_ckpt_tax();
        let pr = t.cell_f64(0, 1);
        let km = t.cell_f64(1, 1);
        let als = t.cell_f64(2, 1);
        for (tax, name) in [(pr, "pagerank"), (km, "kmeans"), (als, "als")] {
            assert!(
                (-1.0..15.0).contains(&tax),
                "{name} tax {tax}% out of paper band"
            );
        }
        assert!(als >= km - 1.0, "ALS tax should not trail KMeans");
        // Checkpoints actually happened for the longer workloads.
        assert!(t.cell_f64(2, 2) > 0.0);
    }

    #[test]
    fn fig07_single_revocation_hurts_significantly() {
        let t = fig07_single_revocation();
        for row in 0..3 {
            let inc = t.cell_f64(row, 3);
            assert!(
                inc > 10.0 && inc < 150.0,
                "row {row}: increase {inc}% outside plausible band"
            );
            // Recomputation dominates the increase.
            assert!(t.cell_f64(row, 4) > 50.0);
        }
    }
}
