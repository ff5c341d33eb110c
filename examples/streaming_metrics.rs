//! A streaming metrics pipeline on transient servers — micro-batches of
//! sensor readings folded into running per-sensor statistics, surviving
//! a mid-stream revocation.
//!
//! ```sh
//! cargo run --release --example streaming_metrics
//! ```

use flint::core::FlintCheckpointPolicy;
use flint::engine::{Driver, DriverConfig, ScriptedInjector, Value, WorkerEvent, WorkerSpec};
use flint::simtime::{SimDuration, SimTime};

/// Adds two `[count, sum]` statistics element-wise.
fn add_stats(a: &Value, b: &Value) -> Value {
    let (a, b) = (a.as_list().expect("stats"), b.as_list().expect("stats"));
    let sum = |x: &Value, y: &Value| x.as_f64().expect("stat") + y.as_f64().expect("stat");
    Value::list(
        a.iter()
            .zip(b)
            .map(|(x, y)| Value::Float(sum(x, y)))
            .collect(),
    )
}

fn main() {
    // Four workers; two are revoked between the 4th and 5th batch.
    let strike = SimTime::ZERO + SimDuration::from_secs(4 * 30 + 10);
    let mut events = Vec::new();
    for ext in 1..=2u64 {
        events.push((strike, WorkerEvent::Remove { ext_id: ext }));
        events.push((
            strike + SimDuration::from_secs(120),
            WorkerEvent::Add {
                ext_id: 100 + ext,
                spec: WorkerSpec::r3_large(),
            },
        ));
    }
    let mut cfg = DriverConfig::default();
    cfg.cost.size_scale = 2e4; // scale tiny batches to cluster-sized data
    let mut driver = Driver::new(
        cfg,
        Box::new(FlintCheckpointPolicy::with_mttf(SimDuration::from_hours(1))),
        Box::new(ScriptedInjector::new(events)),
    );
    for ext in 1..=4u64 {
        driver.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }

    // Running `(sensor, [count, sum])` pairs, folded batch by batch.
    let mut state = None;
    println!("{:<8} {:>10} {:>12}", "batch", "latency", "sensors");
    for batch in 0..8u32 {
        let arrive = driver.now() + SimDuration::from_secs(30);
        driver.idle_until(arrive).expect("idle");
        let started = driver.now();

        // Synthetic readings: 64 sensors, deterministic per batch.
        let readings = driver.ctx().parallelize(
            (0..2000).map(move |i| {
                let sensor = i64::from((i * 7 + batch) % 64);
                let value = f64::from((i * 13 + batch * 5) % 100);
                Value::pair(
                    Value::Int(sensor),
                    Value::list(vec![Value::Float(1.0), Value::Float(value)]),
                )
            }),
            8,
        );
        let batch_stats = driver.ctx().reduce_by_key(readings, 8, add_stats);
        let merged = match state {
            None => batch_stats,
            Some(prev) => {
                let both = driver.ctx().union(prev, batch_stats);
                driver.ctx().reduce_by_key(both, 8, add_stats)
            }
        };
        driver.ctx().persist(merged);
        let sensors = driver.count(merged).expect("batch action");

        println!(
            "{:<8} {:>10} {:>12}",
            batch,
            (driver.now() - started).to_string(),
            sensors,
        );
        state = Some(merged);
    }

    // Final dashboard: top sensors by mean reading.
    let finals = driver.ctx().map(state.expect("eight batches"), |kv| {
        let cs = kv.val().and_then(Value::as_list).expect("stats");
        let (count, sum) = (cs[0].as_f64().expect("count"), cs[1].as_f64().expect("sum"));
        let mean = (sum / count * 1000.0).round() / 1000.0;
        Value::pair(kv.key().expect("sensor").clone(), Value::Float(mean))
    });
    let mut rows: Vec<(i64, f64)> = driver
        .collect(finals)
        .expect("collect")
        .iter()
        .map(|kv| {
            let (sensor, mean) = (
                kv.key().and_then(Value::as_i64),
                kv.val().and_then(Value::as_f64),
            );
            (sensor.expect("sensor"), mean.expect("mean"))
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop sensors by mean reading:");
    for (sensor, mean) in rows.iter().take(5) {
        println!("  sensor {sensor:>3}: mean {mean:.3}");
    }
    println!(
        "\nrevocations survived: {}, checkpoints written: {}, restores: {}",
        driver.stats().revocations,
        driver.stats().checkpoints_written,
        driver.stats().restores,
    );
}
