//! `tpch_session` — the paper's §5.1 "in-memory database server": one
//! long-lived interactive `FlintCluster` answering dashboard refreshes.
//! An op is one *round* of Q1, Q3, Q6, Q10: the per-query mix is bimodal
//! (a few ms to ~140 ms), so the round is the unit whose median is
//! stable. Columnar kernels, plan/commit and shuffle do nearly all the
//! work; market, model and recovery are idle.

use std::time::Instant;

use flint::core::{FlintCluster, FlintConfig, Mode};
use flint::engine::{DriverConfig, TraceHandle, Value};
use flint::market::MarketCatalog;
use flint::simtime::SimDuration;
use flint::workloads::{Tpch, TpchQuery, TpchTables, Workload, WorkloadConfig};

use super::{Bench, Fnv, OpOutcome, RunCfg, TraceMode};
use crate::host::{host_cores, median, timed_ms, Spans};
use crate::metrics::Metrics;
use crate::probes;

/// Sized well under the host-time cliff (virtual working set vs cluster
/// memory); do not raise.
const DATASET_GB: f64 = 100.0;
const PARTITIONS: u32 = 20;
const WORKERS: u32 = 10;
/// Rounds in one pass of the op list.
const ROUNDS: usize = 20;

pub struct TpchSession {
    cluster: FlintCluster,
    catalog: MarketCatalog,
    wl: Tpch,
    tables: TpchTables,
    /// Rows of one `columnar = false` round, per query: every round of
    /// the session must reproduce them.
    reference: Vec<Vec<Value>>,
    reference_digest: u64,
    reference_round_ms: f64,
    warmup_round_s: f64,
    rounds: usize,
    round_ms: Vec<f64>,
    trace: TraceHandle,
    mode: TraceMode,
}

fn span_name(q: TpchQuery) -> &'static str {
    match q {
        TpchQuery::Q1 => "workloads.tpch.q1",
        TpchQuery::Q3 => "workloads.tpch.q3",
        TpchQuery::Q6 => "workloads.tpch.q6",
        TpchQuery::Q10 => "workloads.tpch.q10",
    }
}

fn launch(
    catalog: MarketCatalog,
    seed: u64,
    columnar: bool,
    trace: TraceHandle,
    wl: &Tpch,
) -> FlintCluster {
    let driver = DriverConfig::builder()
        .host_threads(host_cores().min(2))
        .columnar(columnar)
        .size_scale(wl.recommended_size_scale())
        .build();
    let config = FlintConfig::builder()
        .n_workers(WORKERS)
        .mode(Mode::Interactive)
        .driver(driver)
        .seed(seed)
        .trace(trace)
        .build();
    FlintCluster::launch(catalog, config)
}

fn round(
    cluster: &mut FlintCluster,
    wl: &Tpch,
    tables: &TpchTables,
    spans: &mut Spans,
) -> Result<Vec<Vec<Value>>, String> {
    TpchQuery::ALL
        .iter()
        .map(|&q| {
            let s = spans.enter(span_name(q));
            let rows = wl.query(cluster.driver_mut(), tables, q);
            spans.exit(s);
            rows.map_err(|e| format!("{}: {e}", q.name()))
        })
        .collect()
}

impl TpchSession {
    pub fn setup(cfg: &RunCfg, spans: &mut Spans) -> Result<Self, String> {
        let s = spans.enter("market.catalog_gen");
        let catalog = MarketCatalog::synthetic_ec2(cfg.seed, SimDuration::from_days(30));
        spans.exit(s);
        let wl = Tpch::new(WorkloadConfig {
            dataset_gb: DATASET_GB,
            partitions: PARTITIONS,
            iterations: 1,
            seed: cfg.seed,
        });

        // The row-path reference session: its first round is the ground
        // truth, its second the row-path round time.
        let s = spans.enter("setup.reference_session");
        let mut rows_cluster = launch(
            catalog.clone(),
            cfg.seed,
            false,
            TraceHandle::disabled(),
            &wl,
        );
        let rows_tables = wl
            .prepare(rows_cluster.driver_mut())
            .map_err(|e| e.to_string())?;
        let mut quiet = Spans::new(false);
        let reference = round(&mut rows_cluster, &wl, &rows_tables, &mut quiet)?;
        let (_, reference_round_ms) =
            timed_ms(|| round(&mut rows_cluster, &wl, &rows_tables, &mut quiet));
        drop(rows_cluster);
        spans.exit(s);
        let reference_digest = reference
            .iter()
            .flatten()
            .fold(Fnv::new(), |h, row| h.eat(format!("{row:?}").as_bytes()))
            .0;

        let trace = TraceHandle::disabled();
        let s = spans.enter("core.launch");
        let mut cluster = launch(catalog.clone(), cfg.seed, true, trace.clone(), &wl);
        spans.exit(s);
        let s = spans.enter("workloads.tpch_prepare");
        let tables = wl
            .prepare(cluster.driver_mut())
            .map_err(|e| e.to_string())?;
        spans.exit(s);

        let mut warmup_round_s = 0.0;
        if !cfg.quick {
            let s = spans.enter("setup.warmup_round");
            let t = Instant::now();
            round(&mut cluster, &wl, &tables, &mut quiet)?;
            warmup_round_s = t.elapsed().as_secs_f64();
            spans.exit(s);
        }

        Ok(TpchSession {
            cluster,
            catalog,
            wl,
            tables,
            reference,
            reference_digest,
            reference_round_ms,
            warmup_round_s,
            rounds: cfg.list_len(ROUNDS),
            round_ms: Vec::new(),
            trace,
            mode: TraceMode::Off,
        })
    }
}

impl Bench for TpchSession {
    fn list_len(&self) -> usize {
        self.rounds
    }

    fn default_trace(&self) -> TraceMode {
        TraceMode::Off
    }

    fn set_trace(&mut self, mode: TraceMode) {
        // One session, one shared handle: sinks are added to it live.
        mode.attach(&self.trace, &self.mode);
        self.mode = mode;
    }

    fn expected_op_s(&self) -> f64 {
        self.warmup_round_s
    }

    fn run_op(&mut self, _i: usize, spans: &mut Spans) -> OpOutcome {
        let before = self.cluster.driver().now();
        let t = Instant::now();
        let rows = round(&mut self.cluster, &self.wl, &self.tables, spans);
        self.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let virtual_s = (self.cluster.driver().now() - before).as_secs_f64();
        match rows {
            Err(e) => OpOutcome::failed(e),
            Ok(rows) if rows != self.reference => {
                OpOutcome::failed("rows differ from the columnar=false reference round")
            }
            Ok(_) => OpOutcome {
                failure: None,
                digest: self.reference_digest,
                virtual_s,
            },
        }
    }

    fn cost_usd(&mut self, spans: &mut Spans) -> f64 {
        let s = spans.enter("core.cost_report");
        let report = self.cluster.cost_report();
        spans.exit(s);
        report.total()
    }

    fn layer_probes(&mut self, spans: &mut Spans, m: &mut Metrics) {
        let s = spans.enter("probes.column");
        match self.cluster.driver_mut().collect(self.tables.lineitem) {
            Ok(lineitem) => probes::column(&lineitem, m),
            Err(e) => eprintln!("tpch_session: column probe skipped, collect failed: {e}"),
        }
        spans.exit(s);
        let s = spans.enter("probes.market");
        probes::market(&self.catalog, m);
        probes::selection(&self.catalog, WORKERS, m);
        spans.exit(s);
        m.set(
            "engine.column.round_speedup_vs_rows",
            self.reference_round_ms / median(&self.round_ms).max(1e-9),
        );
    }

    fn teardown(self: Box<Self>, spans: &mut Spans, m: &mut Metrics) -> Vec<String> {
        let mut this = *self;
        for (q, name) in TpchQuery::ALL.iter().zip([
            "workloads.tpch_q1_ms_p50",
            "workloads.tpch_q3_ms_p50",
            "workloads.tpch_q6_ms_p50",
            "workloads.tpch_q10_ms_p50",
        ]) {
            m.set(name, median(&spans.durations_ms(span_name(*q))));
        }
        m.set(
            "workloads.tpch_prepare_ms",
            median(&spans.durations_ms("workloads.tpch_prepare")),
        );
        m.set("core.launch_ms", median(&spans.durations_ms("core.launch")));
        m.set(
            "market.catalog_gen_ms",
            median(&spans.durations_ms("market.catalog_gen")),
        );
        if this.round_ms.len() >= 20 {
            let n = this.round_ms.len();
            m.set(
                "workloads.session_drift_ratio",
                median(&this.round_ms[n - 10..]) / median(&this.round_ms[..10]).max(1e-9),
            );
        }

        let s = spans.enter("core.cost_report");
        let cost = this.cluster.cost_report();
        spans.exit(s);
        m.set(
            "core.cost_report_ms",
            median(&spans.durations_ms("core.cost_report")),
        );
        m.set("core.virtual_cost_usd", cost.total());

        let driver = this.cluster.driver();
        probes::run_stats(driver.stats(), driver.waves_committed(), m);
        let rounds_us = this.round_ms.iter().sum::<f64>() * 1e3;
        m.set(
            "engine.host_us_per_task",
            rounds_us / driver.stats().tasks_run.max(1) as f64,
        );
        m.set(
            "engine.host_us_per_wave",
            rounds_us / driver.waves_committed().max(1) as f64,
        );
        let store = driver.checkpoints().store();
        m.set("store.bytes_written", store.bytes_written() as f64);
        m.set("store.peak_bytes", store.peak_bytes() as f64);
        m.set(
            "bench.working_set_share",
            DATASET_GB * 1e9 / driver.cluster().total_cache_capacity().max(1) as f64,
        );
        let nm = this.cluster.node_manager();
        m.set("core.replacements", nm.replacements() as f64);
        m.set("core.breaker_trips", nm.breaker_trips() as f64);
        m.set("core.backstop_workers", nm.backstop_workers() as f64);
        let (instances, revoked) =
            nm.with_cloud(|cloud| (cloud.instances().len(), cloud.revocation_count()));
        m.set("market.cloud.instances", instances as f64);
        m.set("market.cloud.revocations", revoked as f64);

        let s = spans.enter("core.shutdown");
        let (_, shutdown_ms) = timed_ms(|| this.cluster.shutdown());
        spans.exit(s);
        m.set("core.shutdown_ms", shutdown_ms);
        Vec::new()
    }
}
