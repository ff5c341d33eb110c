//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics with the
//! end-to-end metric and workload each is expected to move.
//! `BENCHMARK.json` is generated from these tables (`--manifest`).

use crate::json::Json;

/// Default seed; every number in the README and baseline was taken on
/// it. `HOLDOUT_SEED` is reserved for later performance claims, which
/// must also hold on a seed not used while the change was written.
pub const DEFAULT_SEED: u64 = 12;
pub const HOLDOUT_SEED: u64 = 13;

/// Seconds one run measures (the driver passes this as `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Set-up runs this many times per untraced run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tpch_session",
        why: "interactive TPC-H rounds on a FlintCluster: columnar kernels, plan/commit and shuffle do the work; market, model and recovery idle",
    },
    Workload {
        name: "pagerank_revoked",
        why: "batch PageRank jobs under seeded chaos: row-closure cogroup path, checkpoint writes, restores and lineage recompute; no kernels, no market",
    },
    Workload {
        name: "mc_week",
        why: "week-long Monte-Carlo campaign cells: CloudSim, price traces, node manager, hazard refit and trace encoding; the engine executor does nothing",
    },
    Workload {
        name: "als_serverless",
        why: "run_on_flint end to end on the serverless backend: every shuffle goes through the durable store, per-invocation billing, JSONL trace on",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Host-time metrics carry the widest bound the contract allows: the
/// sandbox's host has contention episodes of +-20 % lasting tens of
/// seconds (README, "Noise"), so a run-to-run median moves by more than
/// a tenth with no code change. `op_wall_ms_p10` is the steadier figure.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "host seconds before the first timed op (median of three set-ups per run)",
    },
    EndToEnd {
        name: "op_wall_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median host wall time of one op",
    },
    EndToEnd {
        name: "op_wall_ms_p10",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "10th-percentile host wall time of one op: what an op costs while the host is not contended",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "ops completed per host second of the ops phase (rounds, jobs, cells, runs at the stated sizes)",
    },
    EndToEnd {
        name: "op_cpu_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "user+sys CPU of the ops phase per op: separates faster from used-the-second-core",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
        what: "VmHWM after set-up and the first pass over the op list",
    },
    EndToEnd {
        name: "virtual_s_per_op",
        unit: "virtual_s",
        better: "lower",
        // Exact for a seed; the bound only has to cover how much the
        // figure differs from one seed's inputs to the next (8 % IQR on
        // pagerank_revoked, whose fault schedules come from the seed).
        bound: 0.25,
        what: "mean simulated seconds per op over the first pass: the paper's running-time axis (exact for a seed)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Repeats bit-for-bit for a seed (comes from the product's own
    /// accounting, not from the host clock).
    pub exact: bool,
    /// The end-to-end metric and workload this is expected to move.
    pub moves: &'static str,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
        moves,
    }
}

const fn exact(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: true,
        moves,
    }
}

/// The layer of a metric is the prefix of its name (crate or module).
pub const PER_LAYER: &[PerLayer] = &[
    // ── workloads ─────────────────────────────────────────────────
    host("workloads.datagen_ms", "ms", "lower", "setup_s on pagerank_revoked"),
    host("workloads.tpch_prepare_ms", "ms", "lower", "setup_s on tpch_session"),
    host("workloads.tpch_q1_ms_p50", "ms", "lower", "op_wall_ms_p50 on tpch_session (kernel scan)"),
    host("workloads.tpch_q3_ms_p50", "ms", "lower", "op_wall_ms_p50 on tpch_session (row-closure join)"),
    host("workloads.tpch_q6_ms_p50", "ms", "lower", "op_wall_ms_p50 on tpch_session (kernel scan)"),
    host("workloads.tpch_q10_ms_p50", "ms", "lower", "op_wall_ms_p50 on tpch_session (row-closure join)"),
    host("workloads.session_drift_ratio", "ratio", "lower", "op_wall_ms_p50 late in a tpch_session: lineage grows every round"),
    // ── engine: driver accounting ─────────────────────────────────
    exact("engine.tasks_run", "count", "op_wall_ms_p50 on pagerank_revoked, tpch_session"),
    exact("engine.waves_committed", "count", "op_wall_ms_p50 on pagerank_revoked, tpch_session"),
    exact("engine.actions", "count", "op_wall_ms_p50 on pagerank_revoked, tpch_session"),
    host("engine.host_us_per_task", "us", "lower", "op_wall_ms_p50 on pagerank_revoked, tpch_session"),
    host("engine.host_us_per_wave", "us", "lower", "op_wall_ms_p50 on pagerank_revoked, tpch_session"),
    exact("engine.compute_virtual_s", "virtual_s", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.recompute_virtual_s", "virtual_s", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.checkpoint_virtual_s", "virtual_s", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.restore_virtual_s", "virtual_s", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.stall_virtual_s", "virtual_s", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.recompute_share", "ratio", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.revocations", "count", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.warnings", "count", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.restores", "count", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.checkpoints_written", "count", "virtual_s_per_op, op_wall_ms_p50 on pagerank_revoked"),
    exact("engine.checkpoint_vbytes", "bytes", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.checkpoint_wire_bytes", "bytes", "op_wall_ms_p50 on pagerank_revoked"),
    exact("engine.typed_errors", "count", "failed ops on pagerank_revoked"),
    // ── engine: columnar path ─────────────────────────────────────
    host("engine.column.encode_ns_per_row", "ns", "lower", "setup_s (first touch), op_wall_ms_p50 on tpch_session; flat on pagerank_revoked"),
    host("engine.column.decode_ns_per_row", "ns", "lower", "op_wall_ms_p50 on tpch_session"),
    host("engine.column.gather_ns_per_row", "ns", "lower", "op_wall_ms_p50 on tpch_session"),
    host("engine.column.round_speedup_vs_rows", "ratio", "higher", "how much of tpch_session the kernel path carries"),
    // ── engine: shuffle, blocks, checkpoints, chaos, backend ──────
    host("engine.shuffle.partition_ns_per_record", "ns", "lower", "op_wall_ms_p50 on als_serverless, pagerank_revoked"),
    exact("engine.shuffle.externalized_bytes", "bytes", "op_wall_ms_p50, core.virtual_cost_usd on als_serverless"),
    host("engine.block.insert_ns", "ns", "lower", "op_wall_ms_p50 on pagerank_revoked"),
    host("engine.block.get_ns", "ns", "lower", "op_wall_ms_p50 on pagerank_revoked"),
    exact("engine.block.evictions", "count", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.block.spills", "count", "virtual_s_per_op on pagerank_revoked"),
    host("engine.checkpoint.put_us_per_part", "us", "lower", "op_wall_ms_p50 on pagerank_revoked; flat on mc_week"),
    host("engine.checkpoint.get_us_per_part", "us", "lower", "op_wall_ms_p50 on pagerank_revoked; flat on mc_week"),
    host("engine.checkpoint.wire_size_ns_per_record", "ns", "lower", "op_wall_ms_p50 on pagerank_revoked"),
    host("engine.chaos.schedule_gen_ms", "ms", "lower", "op_wall_ms_p50 on pagerank_revoked"),
    exact("engine.chaos.faults_injected", "count", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.chaos.faults_revoke", "count", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.chaos.faults_mass_revoke", "count", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.chaos.faults_store_outage", "count", "virtual_s_per_op on pagerank_revoked"),
    exact("engine.backend.invocations", "count", "core.virtual_cost_usd on als_serverless"),
    exact("engine.backend.cold_starts", "count", "virtual_s_per_op on als_serverless"),
    exact("engine.backend.gb_seconds", "GB.s", "core.virtual_cost_usd on als_serverless"),
    // ── store ─────────────────────────────────────────────────────
    host("store.put_ns", "ns", "lower", "op_wall_ms_p50 on als_serverless"),
    host("store.get_ns", "ns", "lower", "op_wall_ms_p50 on als_serverless"),
    exact("store.bytes_written", "bytes", "core.virtual_cost_usd on als_serverless"),
    exact("store.peak_bytes", "bytes", "core.virtual_cost_usd on als_serverless"),
    // ── core ──────────────────────────────────────────────────────
    host("core.launch_ms", "ms", "lower", "setup_s on tpch_session; op_wall_ms_p50 on als_serverless"),
    host("core.shutdown_ms", "ms", "lower", "reported here only on tpch_session; op_wall_ms_p50 on als_serverless"),
    host("core.cost_report_ms", "ms", "lower", "op_wall_ms_p50 on als_serverless"),
    host("core.selection_us_batch", "us", "lower", "ops_per_s on mc_week"),
    host("core.selection_us_interactive", "us", "lower", "setup_s on tpch_session"),
    host("core.selection_us_portfolio", "us", "lower", "ops_per_s on mc_week"),
    exact("core.replacements", "count", "ops_per_s, virtual_s_per_op on mc_week"),
    exact("core.breaker_trips", "count", "virtual_s_per_op on mc_week"),
    exact("core.backstop_workers", "count", "core.virtual_cost_usd on mc_week"),
    exact("core.tau_adaptations", "count", "virtual_s_per_op on mc_week"),
    exact("core.virtual_cost_usd", "usd", "the paper's dollar axis: compute + storage billed over the first pass (0 on pagerank_revoked, whose plain Driver has no market)"),
    // ── market ────────────────────────────────────────────────────
    host("market.catalog_gen_ms", "ms", "lower", "setup_s everywhere"),
    host("market.mean_price_ns", "ns", "lower", "ops_per_s on mc_week"),
    host("market.next_up_crossing_ns", "ns", "lower", "ops_per_s on mc_week"),
    host("market.stats_us", "us", "lower", "ops_per_s on mc_week"),
    host("market.correlation_matrix_ms", "ms", "lower", "setup_s on tpch_session (interactive selection)"),
    host("market.hazard.sample_ns", "ns", "lower", "ops_per_s on mc_week"),
    host("market.cloud.events_until_us_per_event", "us", "lower", "ops_per_s on mc_week"),
    exact("market.cloud.instances", "count", "ops_per_s on mc_week"),
    exact("market.cloud.revocations", "count", "ops_per_s, virtual_s_per_op on mc_week"),
    // ── model ─────────────────────────────────────────────────────
    host("model.mc_memoryless_ms_p50", "ms", "lower", "op_wall_ms_p50 on mc_week"),
    host("model.mc_hazard_ms_p50", "ms", "lower", "op_wall_ms_p50 on mc_week"),
    host("model.mc_traced_ms_p50", "ms", "lower", "op_wall_ms_p50 on mc_week"),
    host("model.wall_ms_per_cluster_hour", "ms", "lower", "ops_per_s on mc_week"),
    host("model.sim_cluster_hours_per_s", "1/s", "higher", "ops_per_s on mc_week (the unit BENCH_scale.json used)"),
    host("model.campaign_jobs2_speedup", "ratio", "higher", "ops_per_s on mc_week; 0 unless host_cores >= 2"),
    // ── trace ─────────────────────────────────────────────────────
    exact("trace.events", "count", "op_wall_ms_p50 on mc_week, als_serverless"),
    exact("trace.bytes_per_event", "bytes", "op_wall_ms_p50 on mc_week"),
    host("trace.encode_ns_per_event", "ns", "lower", "op_wall_ms_p50 on mc_week, weakly als_serverless"),
    host("trace.decode_ns_per_event", "ns", "lower", "flint trace summary, not on any op path"),
    host("trace.aggregate_ns_per_event", "ns", "lower", "flint trace summary, not on any op path"),
    host("trace.overhead_share", "ratio", "lower", "op_wall_ms_p50 on mc_week (third sub-run), als_serverless"),
    // ── runner ────────────────────────────────────────────────────
    host("runner.run_on_flint_ms", "ms", "lower", "op_wall_ms_p50 on als_serverless"),
    // ── the harness itself ────────────────────────────────────────
    host("bench.span_overhead_share", "ratio", "lower", "none: what the traced pass costs over the untraced one"),
    host("bench.op_wall_ms_p90", "ms", "lower", "tail of op_wall_ms_p50; needs >= 100 samples to mean much (tpch_session)"),
    host("bench.teardown_ms", "ms", "lower", "none: host time after the last op"),
    exact("bench.working_set_share", "ratio", "none: virtual working set / cluster memory, the margin to the host-time cliff"),
    host("bench.host_cores", "count", "higher", "none: context for every parallel figure"),
    host("bench.ops", "count", "higher", "none: ops in one pass of the op list"),
    host("bench.samples", "count", "higher", "none: traced ops measured"),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut o = named(m.name, m.unit, m.better);
                        o.push(("bound", Json::Num(m.bound)));
                        Json::obj(o)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

/// The same tables for people: what each metric is, its bound, and the
/// end-to-end metric and workload each layer metric is expected to move.
pub fn describe() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Seed {DEFAULT_SEED} by default; seed {HOLDOUT_SEED} is held out for later claims. \
         One run measures {RUN_SECONDS} s.\n\n| workload | why |\n|---|---|"
    );
    for w in &WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    let _ = writeln!(
        out,
        "\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|"
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:.0} % | {} |",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        );
    }
    let _ = writeln!(
        out,
        "\n| per-layer metric | unit | better | exact | should move |\n|---|---|---|---|---|"
    );
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better,
            if m.exact { "yes" } else { "" },
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_driver_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= 0.25 && valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&on_disk).unwrap(),
            Json::parse(&manifest()).unwrap(),
            "regenerate with: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
        );
    }
}
