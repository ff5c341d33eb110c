//! The paper's evaluation workloads (§5.1), implemented against the
//! engine's public API exactly as their Spark counterparts are written:
//!
//! * [`PageRank`] — iterative graph processing over a synthetic power-law
//!   web graph (the paper uses the 2 GB LiveJournal snapshot with
//!   GraphX's optimized implementation): shuffle-heavy, many RDDs per
//!   iteration.
//! * [`KMeans`] — Lloyd's clustering over Gaussian mixtures (the paper
//!   uses MLlib's DenseKMeans on 16 GB): compute-intensive narrow stages
//!   plus one shuffle per iteration.
//! * [`Als`] — alternating least squares collaborative filtering (MLlib's
//!   MovieLensALS on 10 GB): shuffle-intensive with expensive
//!   transformations.
//! * [`Tpch`] — an in-memory SQL-ish analytics server answering TPC-H
//!   queries 1, 3 and 6 over generated `lineitem`/`orders`/`customer`
//!   tables persisted as RDDs; the *interactive* workload whose response
//!   latency Fig. 9 studies.
//!
//! Each workload has a [`WorkloadConfig`]-driven size and a *scale
//! factor* mapping its in-process bytes to the paper's dataset sizes, so
//! the virtual-time engine reproduces paper-scale running times, memory
//! pressure, and checkpoint volumes from megabyte-scale real data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod als;
mod graph;
mod kmeans;
mod pagerank;
mod streaming;
mod tpch;

pub use als::Als;
pub use graph::{power_law_graph, GraphConfig};
pub use kmeans::KMeans;
pub use pagerank::PageRank;
pub use streaming::{BatchRecord, Streaming};
pub use tpch::{Tpch, TpchQuery, TpchTables};

use flint_engine::{Driver, Result};

/// Size/shape parameters shared by workload constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Logical dataset size in (paper-scale) gigabytes.
    pub dataset_gb: f64,
    /// Number of partitions for the main datasets.
    pub partitions: u32,
    /// Iterations (for the iterative workloads).
    pub iterations: u32,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            dataset_gb: 2.0,
            partitions: 20,
            iterations: 5,
            seed: 42,
        }
    }
}

/// Outcome of one workload run: a checksum for correctness comparison
/// across failure schedules, plus headline counts.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Workload name.
    pub name: String,
    /// Deterministic digest of the results (identical across failure
    /// scenarios if recovery is correct).
    pub checksum: u64,
    /// Number of output records.
    pub records: u64,
}

/// A runnable benchmark workload.
pub trait Workload {
    /// The workload's name.
    fn name(&self) -> &'static str;

    /// Builds the lineage and runs the workload to completion on
    /// `driver`, returning a summary.
    fn run(&self, driver: &mut Driver) -> Result<WorkloadSummary>;

    /// The `size_scale` (virtual bytes per real byte) that makes this
    /// workload's in-process data represent `dataset_gb` at paper scale.
    fn recommended_size_scale(&self) -> f64;
}

/// Deterministic digest helper used by all workloads.
pub(crate) fn fold_checksum(acc: u64, x: u64) -> u64 {
    acc.rotate_left(17) ^ x.wrapping_mul(0x9e3779b97f4a7c15)
}

/// Hashes an `f64` stably (used in checksums).
pub(crate) fn f64_bits(x: f64) -> u64 {
    // Quantize so tiny float-association differences under different
    // partition merge orders do not flip checksums.
    (x * 1e6).round() as i64 as u64
}
