//! End-to-end integration tests: the full stack (markets → node manager
//! → engine → policies) driven through the public facade.

use flint::core::{FlintCluster, FlintConfig, Mode};
use flint::engine::Value;
use flint::market::MarketCatalog;
use flint::simtime::{lock, SimDuration, SimTime};
use flint::workloads::{PageRank, Tpch, TpchQuery, Workload, WorkloadConfig};

fn catalog() -> MarketCatalog {
    MarketCatalog::synthetic_ec2(99, SimDuration::from_days(90))
}

#[test]
fn batch_cluster_survives_trace_driven_revocations() {
    // Run the same PageRank workload on a healthy local driver and on a
    // Flint batch cluster living through real market-driven revocations;
    // results must be identical and costs far below on-demand.
    let wl = PageRank::new(WorkloadConfig {
        dataset_gb: 0.5,
        partitions: 8,
        iterations: 4,
        seed: 9,
    });
    let mut clean = flint::engine::Driver::local(6);
    let golden = wl.run(&mut clean).unwrap();

    let mut cluster = FlintCluster::launch(
        catalog(),
        FlintConfig::builder()
            .n_workers(6)
            .mode(Mode::Batch)
            .build(),
    );
    // Size the engine like the workload expects.
    let mut cost = *cluster.driver().cost_model();
    cost.size_scale = wl.recommended_size_scale();
    cluster.driver_mut().set_cost_model(cost);

    let got = wl.run(cluster.driver_mut()).unwrap();
    assert_eq!(got.checksum, golden.checksum);

    // Hold for a long window so revocations (if any) and billing play out.
    let until = cluster.driver().now() + SimDuration::from_hours(48);
    cluster.driver_mut().idle_until(until).unwrap();
    let report = cluster.shutdown();
    assert!(report.compute_cost > 0.0);
    assert!(
        report.unit_cost() < 0.5,
        "spot execution should be far below on-demand: {}",
        report.unit_cost()
    );
}

#[test]
fn interactive_cluster_diversifies_and_answers_queries() {
    let wl = Tpch::new(WorkloadConfig {
        dataset_gb: 1.0,
        partitions: 6,
        iterations: 1,
        seed: 3,
    });
    let mut cluster = FlintCluster::launch(
        catalog(),
        FlintConfig::builder()
            .n_workers(8)
            .mode(Mode::Interactive)
            .build(),
    );
    assert!(cluster.node_manager().active_markets().len() >= 2);

    let driver = cluster.driver_mut();
    let tables = wl.prepare(driver).unwrap();
    for q in TpchQuery::ALL {
        let rows = wl.query(driver, &tables, q).unwrap();
        assert!(!rows.is_empty(), "{} returned nothing", q.name());
    }
    // Fault-tolerance state has a finite MTTF and a sane τ.
    let ft = cluster.ft_state();
    let s = lock(&ft);
    assert!(s.mttf < SimDuration::MAX);
}

#[test]
fn adaptive_checkpoints_appear_during_long_sessions() {
    let mut cluster = FlintCluster::launch(catalog(), FlintConfig::builder().n_workers(4).build());
    lock(&cluster.ft_state()).mttf = SimDuration::from_hours(2);
    let driver = cluster.driver_mut();
    let base = driver.ctx().parallelize((0..2000).map(Value::from_i64), 8);
    driver.ctx().persist(base);
    let mut cur = base;
    for i in 0..20 {
        let idle_to = driver.now() + SimDuration::from_mins(5);
        driver.idle_until(idle_to).unwrap();
        let pairs = driver.ctx().map(cur, move |v| {
            Value::pair(Value::Int(v.as_i64().unwrap() % 13), Value::Int(i))
        });
        let agg = driver.ctx().reduce_by_key(pairs, 8, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        });
        let back = driver.ctx().map(agg, |v| v.key().cloned().unwrap());
        driver.ctx().persist(back);
        assert_eq!(driver.count(back).unwrap(), 13);
        cur = base;
    }
    assert!(
        driver.stats().checkpoints_written > 0,
        "the adaptive policy should have checkpointed across 100min of queries"
    );
    let report = cluster.cost_report();
    assert!(
        report.storage_cost > 0.0,
        "EBS accounting should be non-zero"
    );
}

#[test]
fn gce_catalog_runs_end_to_end() {
    let catalog = MarketCatalog::synthetic_gce(5, SimDuration::from_days(30));
    let mut cluster = FlintCluster::launch(catalog, FlintConfig::builder().n_workers(4).build());
    let driver = cluster.driver_mut();
    let xs = driver.ctx().parallelize((0..500).map(Value::from_i64), 4);
    let doubled = driver
        .ctx()
        .map(xs, |v| Value::Int(v.as_i64().unwrap() * 2));
    let total = driver
        .reduce(doubled, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        })
        .unwrap();
    assert_eq!(total.as_i64(), Some(2 * (0..500).sum::<i64>()));
    // Preemptible clusters have a finite (~20h) MTTF.
    let mttf = lock(&cluster.ft_state()).mttf;
    assert!(mttf < SimDuration::from_hours(30));
    assert!(mttf > SimDuration::from_hours(10));
}

#[test]
fn long_session_replaces_revoked_workers_transparently() {
    // A cluster on a volatile catalog, held for 10 days of virtual time
    // with periodic queries: revocations must be replaced and every
    // query must succeed.
    let mut cluster = FlintCluster::launch(
        catalog(),
        FlintConfig::builder()
            .n_workers(5)
            .mode(Mode::Interactive)
            .build(),
    );
    let driver = cluster.driver_mut();
    let xs = driver.ctx().parallelize((0..300).map(Value::from_i64), 5);
    driver.ctx().persist(xs);
    for day in 1..=10u64 {
        let t = SimTime::ZERO + SimDuration::from_days(14 + day);
        driver.idle_until(t).unwrap();
        assert_eq!(driver.count(xs).unwrap(), 300, "query failed on day {day}");
    }
    let report = cluster.cost_report();
    // Revocations are plausible but not guaranteed on this trace; what
    // matters is that the cluster kept answering either way.
    assert!(report.compute_cost > 0.0);
}
