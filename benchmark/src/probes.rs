//! Direct probes of single layers, from outside, through their public
//! functions — the per-layer half of the report. Host-clock probes take
//! the fastest of a few batches (the cost of the code, not of a
//! descheduling); counts come from the product's own accounting.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use flint::core::{
    BatchSelection, BidPolicy, InteractiveSelection, JobProfile, MarketView, PortfolioPolicy,
    SelectionConfig, SelectionPolicy,
};
use flint::engine::{
    wire_size, BlockKey, BlockManager, CheckpointStore, ColumnBatch, Event, HashPartitioner,
    PartitionData, Partitioner, RddId, RunStats, Value,
};
use flint::market::{correlation_matrix, CloudSim, HazardSpec, MarketCatalog};
use flint::model::{run_mc_campaign, CampaignConfig};
use flint::simtime::rng::stream;
use flint::simtime::{SimDuration, SimTime};
use flint::store::{DurableStore, StorageConfig};
use flint::trace::MetricsAggregator;
use flint::workloads::{power_law_graph, GraphConfig};

use crate::host::{host_cores, ns_per_item, timed_ms};
use crate::metrics::Metrics;
use crate::workloads::{mc_week, EventFold};

const REPS: usize = 5;

/// Sums the fields of `s` into `acc` (actions are concatenated).
pub fn add_stats(acc: &mut RunStats, s: &RunStats) {
    acc.tasks_run += s.tasks_run;
    acc.compute_time += s.compute_time;
    acc.recompute_time += s.recompute_time;
    acc.checkpoint_time += s.checkpoint_time;
    acc.checkpoints_written += s.checkpoints_written;
    acc.checkpoint_bytes += s.checkpoint_bytes;
    acc.checkpoint_wire_bytes += s.checkpoint_wire_bytes;
    acc.restore_time += s.restore_time;
    acc.restores += s.restores;
    acc.stall_time += s.stall_time;
    acc.revocations += s.revocations;
    acc.warnings += s.warnings;
    acc.actions.extend(s.actions.iter().cloned());
}

/// The driver's own accounting, as exact per-layer metrics.
pub fn run_stats(s: &RunStats, waves: u64, m: &mut Metrics) {
    m.set("engine.tasks_run", s.tasks_run as f64);
    m.set("engine.waves_committed", waves as f64);
    m.set("engine.actions", s.actions.len() as f64);
    m.set("engine.compute_virtual_s", s.compute_time.as_secs_f64());
    m.set("engine.recompute_virtual_s", s.recompute_time.as_secs_f64());
    m.set(
        "engine.checkpoint_virtual_s",
        s.checkpoint_time.as_secs_f64(),
    );
    m.set("engine.restore_virtual_s", s.restore_time.as_secs_f64());
    m.set("engine.stall_virtual_s", s.stall_time.as_secs_f64());
    m.set(
        "engine.recompute_share",
        s.recompute_time.as_secs_f64() / s.compute_time.as_secs_f64().max(1e-9),
    );
    m.set("engine.revocations", s.revocations as f64);
    m.set("engine.warnings", s.warnings as f64);
    m.set("engine.restores", s.restores as f64);
    m.set("engine.checkpoints_written", s.checkpoints_written as f64);
    m.set("engine.checkpoint_vbytes", s.checkpoint_bytes as f64);
    m.set(
        "engine.checkpoint_wire_bytes",
        s.checkpoint_wire_bytes as f64,
    );
}

/// `ColumnBatch` encode / decode / gather over the generated lineitem rows.
pub fn column(rows: &[Value], m: &mut Metrics) {
    let Some(batch) = ColumnBatch::from_rows(rows) else {
        eprintln!("column probe skipped: lineitem rows have no columnar encoding");
        return;
    };
    let n = rows.len();
    m.set(
        "engine.column.encode_ns_per_row",
        ns_per_item(REPS, n, || {
            black_box(ColumnBatch::from_rows(black_box(rows)));
        }),
    );
    m.set(
        "engine.column.decode_ns_per_row",
        ns_per_item(REPS, n, || {
            black_box(black_box(&batch).to_rows());
        }),
    );
    // Every third row, the selectivity of a typical filter kernel.
    let idx: Vec<u32> = (0..n as u32).step_by(3).collect();
    m.set(
        "engine.column.gather_ns_per_row",
        ns_per_item(REPS, idx.len(), || {
            black_box(black_box(&batch).gather(black_box(&idx)));
        }),
    );
}

fn partition_probe(keys: &[Value], parts: u32, m: &mut Metrics) {
    let p = HashPartitioner::new(parts);
    m.set(
        "engine.shuffle.partition_ns_per_record",
        ns_per_item(REPS, keys.len(), || {
            black_box(keys.iter().map(|k| p.partition_for(k)).sum::<u32>());
        }),
    );
}

/// `HashPartitioner` over ALS-shaped keys (user and item ids).
pub fn shuffle_partition(seed: u64, m: &mut Metrics) {
    let offset = (seed % 4_000) as i64;
    let keys: Vec<Value> = (0..20_000i64)
        .map(|i| Value::Int((i * 7_919 + offset) % 4_000))
        .collect();
    partition_probe(&keys, 20, m);
}

/// The data paths a PageRank job leans on, driven with its own data:
/// graph generation, key partitioning, the block cache, the checkpoint
/// store and wire sizing.
pub fn pagerank_data_paths(seed: u64, dataset_gb: f64, parts: u32, m: &mut Metrics) {
    let graph_cfg = GraphConfig {
        nodes: (dataset_gb * 1000.0).round() as u32,
        avg_degree: 16,
        seed,
    };
    let (graph, datagen_ms) = timed_ms(|| power_law_graph(&graph_cfg));
    m.set("workloads.datagen_ms", datagen_ms);

    let records: Vec<Value> = graph
        .into_iter()
        .map(|(src, dsts)| {
            Value::pair(
                Value::Int(i64::from(src)),
                Value::list(dsts.into_iter().map(|d| Value::Int(i64::from(d))).collect()),
            )
        })
        .collect();
    let keys: Vec<Value> = records.iter().filter_map(|r| r.key().cloned()).collect();
    partition_probe(&keys, parts, m);
    m.set(
        "engine.checkpoint.wire_size_ns_per_record",
        ns_per_item(REPS, records.len(), || {
            black_box(wire_size(black_box(&records)));
        }),
    );

    let per_part = records.len().div_ceil(parts as usize).max(1);
    let partitions: Vec<PartitionData> = records
        .chunks(per_part)
        .map(|c| Arc::new(c.to_vec()))
        .collect();
    let vbytes = (dataset_gb * 1e9 / partitions.len() as f64) as u64;
    let key = |part: usize| BlockKey::RddPart {
        rdd: RddId(0),
        part: part as u32,
    };

    // A cache that holds every partition: no eviction in the timed loop.
    let mut blocks = BlockManager::new(u64::MAX / 2, u64::MAX / 2);
    m.set(
        "engine.block.insert_ns",
        ns_per_item(REPS, partitions.len(), || {
            for (i, p) in partitions.iter().enumerate() {
                black_box(blocks.insert(key(i), p.clone(), vbytes));
            }
        }),
    );
    m.set(
        "engine.block.get_ns",
        ns_per_item(REPS, partitions.len(), || {
            for i in 0..partitions.len() {
                black_box(blocks.get(&key(i)));
            }
        }),
    );

    let mut ckpt = CheckpointStore::new(StorageConfig::default());
    let n = partitions.len() as u32;
    m.set(
        "engine.checkpoint.put_us_per_part",
        ns_per_item(REPS, partitions.len(), || {
            for (i, p) in partitions.iter().enumerate() {
                black_box(ckpt.put(RddId(0), i as u32, n, p.clone(), vbytes, SimTime::ZERO));
            }
        }) / 1e3,
    );
    m.set(
        "engine.checkpoint.get_us_per_part",
        ns_per_item(REPS, partitions.len(), || {
            for i in 0..n {
                black_box(ckpt.get(RddId(0), i));
            }
        }) / 1e3,
    );
}

/// `DurableStore` put/get with shuffle-block-shaped keys.
pub fn store(m: &mut Metrics) {
    let keys: Vec<String> = (0..2_000)
        .map(|i| format!("shuffle-{:06}/map-{:05}", i / 20, i % 20))
        .collect();
    let mut store: DurableStore<u64> = DurableStore::new(StorageConfig::default());
    m.set(
        "store.put_ns",
        ns_per_item(REPS, keys.len(), || {
            for (i, k) in keys.iter().enumerate() {
                store.put(k, i as u64, 1 << 20, SimTime::from_millis(i as u64));
            }
        }),
    );
    m.set(
        "store.get_ns",
        ns_per_item(REPS, keys.len(), || {
            for k in &keys {
                black_box(store.get(k));
            }
        }),
    );
}

/// Price-trace lookups, market statistics and hazard sampling on
/// `catalog` — what `CloudSim::request` and selection call most.
pub fn market(catalog: &MarketCatalog, m: &mut Metrics) {
    let spot = catalog.spot_markets();
    let Some(first) = spot.first() else { return };
    let week = SimDuration::from_days(7);
    let instants: Vec<SimTime> = (0..1_000u64)
        .map(|i| SimTime::ZERO + week + SimDuration::from_mins(i * 17))
        .collect();
    m.set(
        "market.mean_price_ns",
        ns_per_item(REPS, instants.len(), || {
            for &t in &instants {
                black_box(first.trace.mean_price(t.saturating_sub(week), t));
            }
        }),
    );
    m.set(
        "market.next_up_crossing_ns",
        ns_per_item(REPS, instants.len(), || {
            for &t in &instants {
                black_box(first.trace.next_up_crossing(t, first.on_demand_price));
            }
        }),
    );
    m.set(
        "market.stats_us",
        ns_per_item(REPS, instants.len(), || {
            for &t in &instants {
                black_box(first.stats(t, week, first.on_demand_price));
            }
        }) / 1e3,
    );
    let traces: Vec<_> = spot.iter().map(|mk| &mk.trace).collect();
    let ((), corr_ms) = timed_ms(|| {
        black_box(correlation_matrix(
            &traces,
            SimTime::ZERO + week,
            SimTime::ZERO + week * 2,
            SimDuration::from_mins(10),
            2.0,
        ));
    });
    m.set("market.correlation_matrix_ms", corr_ms);

    let hazard = HazardSpec::CappedLifetime {
        early_prob: 0.1,
        cap_hours: 24.0,
    }
    .build(SimDuration::from_hours(2));
    let mut rng = stream(1, "bench-hazard");
    m.set(
        "market.hazard.sample_ns",
        ns_per_item(REPS, 10_000, || {
            for _ in 0..10_000 {
                black_box(hazard.sample_lifetime(&mut rng));
            }
        }),
    );
}

/// `SelectionPolicy::initial` for the three Flint policies on
/// `catalog`'s backward-looking views.
pub fn selection(catalog: &MarketCatalog, n: u32, m: &mut Metrics) {
    let cfg = SelectionConfig::default();
    let job = JobProfile::default();
    let view = MarketView {
        catalog,
        now: SimTime::ZERO + SimDuration::from_days(14),
        bid: BidPolicy::OnDemandPrice,
        cfg: &cfg,
        job: &job,
        storage: StorageConfig::default(),
        n,
        cooled: &[],
    };
    let policies: [(&'static str, Box<dyn SelectionPolicy>); 3] = [
        ("core.selection_us_batch", Box::new(BatchSelection)),
        (
            "core.selection_us_interactive",
            Box::new(InteractiveSelection::default()),
        ),
        (
            "core.selection_us_portfolio",
            Box::new(PortfolioPolicy::new(1.0)),
        ),
    ];
    for (name, mut policy) in policies {
        m.set(
            name,
            ns_per_item(REPS, 1, || {
                black_box(policy.initial(&view));
            }) / 1e3,
        );
    }
}

/// Drives a `CloudSim` directly: request a fleet in every spot market,
/// then step a simulated week an hour at a time.
pub fn cloud(catalog: &MarketCatalog, m: &mut Metrics) {
    let start = SimTime::ZERO + SimDuration::from_days(14);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut sim = CloudSim::with_seed(catalog.clone(), 1);
        let t = Instant::now();
        for mk in catalog.spot_markets() {
            for _ in 0..mc_week::WORKERS / 4 {
                sim.request(mk.id, mk.on_demand_price, start);
            }
        }
        let mut events = 0usize;
        for hour in 1..=168 {
            events += sim
                .events_until(start + SimDuration::from_hours(hour))
                .len();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / 1e3 / events.max(1) as f64);
    }
    m.set("market.cloud.events_until_us_per_event", best);
}

/// A four-seed campaign at `--jobs 1` against `--jobs 2`. Reported only
/// on two or more cores: one core can show no parallel speed-up.
pub fn campaign_jobs2(catalog: &MarketCatalog, m: &mut Metrics) {
    if host_cores() < 2 {
        return;
    }
    let run = |jobs| {
        let base = mc_week::mc_config(mc_week::WORKERS / 4, false);
        timed_ms(|| {
            black_box(run_mc_campaign(
                catalog,
                &CampaignConfig::consecutive(base, 4, jobs),
            ))
        })
    };
    let (one, one_ms) = run(1);
    let (two, two_ms) = run(2);
    if one != two {
        eprintln!("campaign probe: --jobs 2 report differs from --jobs 1");
        return;
    }
    m.set("model.campaign_jobs2_speedup", one_ms / two_ms.max(1e-9));
}

/// The product's own event stream from the traced pass: what it counted
/// (folded by `MetricsAggregator`) and what encoding, decoding and
/// folding it costs per event.
pub fn event_stream(fold: &EventFold, m: &mut Metrics) {
    let (agg, sample) = (&fold.totals, &fold.sample[..]);
    m.set("trace.events", agg.events as f64);
    if sample.is_empty() {
        return;
    }
    let mut lines = Vec::new();
    m.set(
        "trace.encode_ns_per_event",
        ns_per_item(3, sample.len(), || {
            lines = sample.iter().map(Event::to_json).collect();
        }),
    );
    m.set(
        "trace.bytes_per_event",
        // +1: the newline the JSONL sink writes after every event.
        lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / lines.len() as f64,
    );
    m.set(
        "trace.decode_ns_per_event",
        ns_per_item(3, lines.len(), || {
            for l in &lines {
                black_box(Event::from_json(l).is_ok());
            }
        }),
    );
    m.set(
        "trace.aggregate_ns_per_event",
        ns_per_item(3, sample.len(), || {
            let mut agg = MetricsAggregator::new();
            sample.iter().for_each(|e| agg.observe(e));
            black_box(agg.events);
        }),
    );

    m.set("engine.block.evictions", agg.cache_evicts as f64);
    m.set("engine.block.spills", agg.cache_spills as f64);
    m.set(
        "engine.shuffle.externalized_bytes",
        agg.shuffle_external_vbytes as f64,
    );
    m.set("engine.backend.cold_starts", agg.cold_starts as f64);
    m.set("core.tau_adaptations", agg.tau_adaptations as f64);
    // Where no handle exposes the count, the event stream is the source.
    for (name, value) in [
        ("engine.waves_committed", agg.waves),
        ("core.replacements", agg.replacement_rounds),
        ("core.breaker_trips", agg.breakers_opened),
        ("core.backstop_workers", agg.backstop_workers),
        ("market.cloud.instances", agg.bids),
        ("market.cloud.revocations", agg.instances_revoked),
    ] {
        if m.get(name) == 0.0 {
            m.set(name, value as f64);
        }
    }
}
