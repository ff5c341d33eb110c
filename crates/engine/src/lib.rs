//! A from-scratch, lineage-tracked data-parallel engine.
//!
//! This crate is the Spark-equivalent substrate the Flint paper builds on,
//! reimplemented for the transient-server simulator. It provides:
//!
//! * **Resilient datasets** — immutable, partitioned collections of
//!   [`Value`] records ([`RddRef`]) created from source data or by
//!   transformations (map, filter, flat_map, union, reduce_by_key, join,
//!   sort_by_key, …). Every transformation is recorded in a [`Lineage`]
//!   graph so any lost partition can be recomputed from its youngest
//!   surviving ancestor — or its checkpoint.
//! * **A stage-splitting DAG scheduler** ([`Driver`]) that cuts jobs at
//!   shuffle boundaries, schedules one task per partition onto a cluster
//!   of simulated workers, and handles worker loss mid-job: lost cache
//!   blocks and shuffle outputs trigger recursive recomputation exactly as
//!   in Spark (§2.2 of the paper).
//! * **Virtual-time execution** — tasks really execute their closures over
//!   real data (so results are exact), but the time they take is charged
//!   from a calibrated [`CostModel`]; a 10-hour job simulates in
//!   milliseconds. Failure schedules come from a pluggable
//!   [`FailureInjector`].
//! * **Partition-level checkpointing** to a durable [`flint_store`] store,
//!   with a policy hook ([`CheckpointHooks`]) that Flint's fault-tolerance
//!   manager implements (frontier-of-lineage checkpointing, adaptive τ).
//! * **A per-worker block manager** with an LRU memory cache, disk spill,
//!   and hard loss on revocation — reproducing the memory-pressure cliff
//!   of the paper's Figure 3.
//!
//! # Examples
//!
//! ```
//! use flint_engine::{Driver, DriverConfig, Value};
//!
//! let mut driver = Driver::local(4); // 4 healthy workers, no failures
//! let nums = driver.ctx().parallelize((0..100).map(Value::from_i64), 8);
//! let evens = driver.ctx().filter(nums, |v| v.as_i64().unwrap() % 2 == 0);
//! let result = driver.count(evens).unwrap();
//! assert_eq!(result, 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod backend;
mod block;
mod chaos;
mod checkpoint;
mod cluster;
mod column;
mod config;
mod context;
mod cost;
mod driver;
mod error;
mod executor;
mod hooks;
mod injector;
mod lineage;
mod manifest;
mod plan;
mod rdd;
mod shuffle;
mod stats;
mod value;

pub use backend::{ServerlessBackend, ServerlessConfig};
pub use block::{
    BlockData, BlockKey, BlockLocation, BlockManager, BlockStoreSnapshot, InsertOutcome, Records,
};
pub use chaos::{
    run_against_twin, ChaosConfig, ChaosError, ChaosInjector, ChaosSchedule, ChaosStoreFaults,
    ChaosVerdict,
};
pub use checkpoint::{wire_size, CheckpointStore, ReadFault, StoreFaultPolicy, WriteFault};
pub use cluster::{Cluster, Worker, WorkerId, WorkerSpec};
pub use column::{
    AggField, AggKernel, Column, ColumnBatch, ColumnStats, FlatMapKernel, KeyExpr, MapKernel,
    NumExpr, PayloadExpr, PredKernel, ScalarExpr,
};
pub use config::{DriverConfig, DriverConfigBuilder, RetryPolicy};
pub use context::EngineContext;
pub use cost::CostModel;
pub use driver::Driver;
pub use error::{EngineError, Result};
pub use hooks::{
    CheckpointDirective, CheckpointEveryRdd, CheckpointHooks, LineageView, NoCheckpoint,
};
pub use injector::{FailureInjector, NoFailures, ScriptedInjector, WorkerEvent};
pub use lineage::Lineage;
pub use manifest::{ManifestError, RunManifest};
pub use plan::PlanStats;
pub use rdd::{PartitionData, RddId, RddMeta, RddOp, RddRef};
pub use shuffle::{
    scan_flat_bucket, BucketedBlock, HashPartitioner, Partitioner, RangePartitioner, ShuffleId,
    ShuffleInfo, ShuffleKind,
};
pub use stats::{ActionRecord, RunStats};
pub use value::{ListVal, PairVal, Value};

// Re-exported so policy crates implementing [`CheckpointHooks`] can name
// the sink types without a direct `flint-trace` dependency.
pub use flint_trace::{Event, EventKind, EventSink, TraceHandle};
