//! # Flint
//!
//! A from-scratch Rust reproduction of **"Flint: Batch-Interactive
//! Data-Intensive Processing on Transient Servers"** (Sharma, Guo, He,
//! Irwin, Shenoy — EuroSys 2016), including every substrate the paper
//! depends on:
//!
//! * [`engine`] — a lineage-tracked, checkpointable data-parallel engine
//!   (the Spark-equivalent substrate) with virtual-time execution;
//! * [`market`] — a deterministic simulator of transient-server markets
//!   (EC2 spot, GCE preemptible, on-demand) with peaky price traces,
//!   revocation warnings, and hourly billing;
//! * [`store`] — durable HDFS-on-EBS checkpoint storage with bandwidth
//!   and $/GB-month cost models;
//! * [`core`] — Flint itself: the adaptive `τ = √(2δ·MTTF)` frontier
//!   checkpointing policy, batch and interactive server-selection
//!   policies, the node manager, and the paper's baselines;
//! * [`model`] — the trace-driven Monte-Carlo methodology behind the
//!   paper's long-horizon cost figures;
//! * [`trace`] — the structured event-trace subsystem: one ordered,
//!   deterministic stream of typed lifecycle events (tasks, caches,
//!   checkpoints, markets, billing) with JSONL sinks and a metrics
//!   aggregator;
//! * [`workloads`] — PageRank, KMeans, ALS, and TPC-H, written against
//!   the engine's public API the way their Spark counterparts are.
//!
//! # Quick start
//!
//! ```
//! use flint::core::{FlintCluster, FlintConfig, Mode};
//! use flint::engine::Value;
//! use flint::market::MarketCatalog;
//! use flint::simtime::SimDuration;
//!
//! // A synthetic EC2-like region with nine spot markets.
//! let catalog = MarketCatalog::synthetic_ec2(42, SimDuration::from_days(30));
//!
//! // Launch Flint: it picks the cheapest-expected-cost market, bids the
//! // on-demand price, and checkpoints adaptively.
//! let config = FlintConfig::builder().n_workers(4).mode(Mode::Batch).build();
//! let mut cluster = FlintCluster::launch(catalog, config);
//!
//! // Run a job through the engine.
//! let driver = cluster.driver_mut();
//! let nums = driver.ctx().parallelize((0..100).map(Value::from_i64), 8);
//! let sq = driver.ctx().map(nums, |v| Value::Int(v.as_i64().unwrap().pow(2)));
//! assert_eq!(driver.count(sq).unwrap(), 100);
//!
//! // And get the bill.
//! let report = cluster.shutdown();
//! assert!(report.compute_cost >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod runner;

pub use flint_core as core;
pub use flint_engine as engine;
pub use flint_market as market;
pub use flint_model as model;
pub use flint_simtime as simtime;
pub use flint_store as store;
pub use flint_trace as trace;
pub use flint_workloads as workloads;
