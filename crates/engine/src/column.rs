//! Columnar batch representation and vectorized kernels.
//!
//! A [`ColumnBatch`] is the struct-of-arrays twin of a flat
//! `Vec<Value>` partition: the same logical record sequence stored as
//! typed column vectors. Encoding is lossless and order-preserving —
//! `ColumnBatch::from_rows(rows)` followed by [`ColumnBatch::to_rows`]
//! reproduces the original records exactly, and every size formula
//! reuses the `Value` constants (Int/Float 16, Str 24+len, Pair 16+k+v,
//! Vector 24+8·len, List 24+Σ) so virtual-byte accounting is identical
//! in either representation.
//!
//! Kernels ([`MapKernel`], [`PredKernel`], [`AggKernel`],
//! [`FlatMapKernel`]) are small
//! declarative expression trees with *two* evaluators: a per-record one
//! (the row closures the engine context generates from them) and a
//! batch one operating on columns. Because the row closure is derived
//! from the same tree, the two paths agree by construction; the batch
//! evaluator additionally shape-checks its input and returns `None`
//! whenever the data does not fit the typed layout, at which point the
//! executor transparently falls back to the per-record path. All shape
//! checks are pure functions of the data, so the chosen path never
//! depends on `host_threads` or wave timing.

use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::value::{
    stable_hash_float, stable_hash_int, stable_hash_str, stable_hash_str_pair, Value,
};

/// Work counters of the columnar path.
///
/// Plain counters kept outside [`crate::RunStats`] and outside the event
/// stream, like [`crate::PlanStats`]: they say which form the host
/// computed in, which no simulated observable can tell. A
/// `columnar = false` driver never touches them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStats {
    /// Kernel-declared op materializations (one partition of a `*_kernel`
    /// map, filter, map-partitions, flat-map, or either side of a keyed
    /// aggregation) that ran their batch arm.
    pub kernel_batches: u64,
    /// Kernel-declared op materializations that ran their row closure
    /// instead: the input arrived as rows or its shape defeated the
    /// typed evaluator.
    pub row_fallbacks: u64,
    /// Records encoded from rows into a batch.
    pub encodes: u64,
    /// Records decoded from a batch back into rows.
    pub decodes: u64,
}

/// The live form of [`ColumnStats`], bumped from wave threads. The sums
/// are the same for every `host_threads` setting because the set of tasks
/// a wave computes is.
#[derive(Debug, Default)]
pub(crate) struct ColumnCounters {
    kernel_batches: AtomicU64,
    row_fallbacks: AtomicU64,
    encodes: AtomicU64,
    decodes: AtomicU64,
}

impl ColumnCounters {
    pub(crate) fn snapshot(&self) -> ColumnStats {
        ColumnStats {
            kernel_batches: self.kernel_batches.load(Relaxed),
            row_fallbacks: self.row_fallbacks.load(Relaxed),
            encodes: self.encodes.load(Relaxed),
            decodes: self.decodes.load(Relaxed),
        }
    }

    /// Records one kernel-declared op materialization and which arm it
    /// took.
    pub(crate) fn kernel_ran(&self, batch_arm: bool) {
        if batch_arm {
            self.kernel_batches.fetch_add(1, Relaxed);
        } else {
            self.row_fallbacks.fetch_add(1, Relaxed);
        }
    }

    /// [`ColumnBatch::from_rows`], counted.
    pub(crate) fn encode(&self, rows: &[Value]) -> Option<ColumnBatch> {
        let batch = ColumnBatch::from_rows(rows)?;
        self.encodes.fetch_add(rows.len() as u64, Relaxed);
        Some(batch)
    }

    /// [`ColumnBatch::to_rows`], counted.
    pub(crate) fn decode(&self, batch: &ColumnBatch) -> Vec<Value> {
        self.decoded(batch.len() as u64);
        batch.to_rows()
    }

    /// Counts `records` values read out of batches one at a time (a
    /// reduce that builds rows with `value_at` instead of decoding whole
    /// batches).
    pub(crate) fn decoded(&self, records: u64) {
        self.decodes.fetch_add(records, Relaxed);
    }
}

/// One typed column vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers (`Value::Int`).
    Int(Vec<i64>),
    /// 64-bit floats (`Value::Float`).
    Float(Vec<f64>),
    /// Immutable strings (`Value::Str`), refcount-shared with the rows
    /// they were encoded from.
    Str(Vec<Arc<str>>),
    /// Composite `(Str, Str)` pair keys (TPC-H group-by keys).
    StrPair(Vec<(Arc<str>, Arc<str>)>),
    /// Dense numeric vectors (`Value::Vector`), refcount-shared.
    Vector(Vec<Arc<Vec<f64>>>),
}

impl Column {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::StrPair(v) => v.len(),
            Column::Vector(v) => v.len(),
        }
    }

    /// An empty column of the same type as `v`, or `None` for types
    /// without a columnar layout.
    fn for_value(v: &Value, cap: usize) -> Option<Column> {
        Some(match v {
            Value::Int(_) => Column::Int(Vec::with_capacity(cap)),
            Value::Float(_) => Column::Float(Vec::with_capacity(cap)),
            Value::Str(_) => Column::Str(Vec::with_capacity(cap)),
            Value::Vector(_) => Column::Vector(Vec::with_capacity(cap)),
            Value::Pair(p) => match (p.key(), p.val()) {
                (Value::Str(_), Value::Str(_)) => Column::StrPair(Vec::with_capacity(cap)),
                _ => return None,
            },
            _ => return None,
        })
    }

    /// Appends `v` if its type matches the column; `false` on mismatch.
    fn push_from(&mut self, v: &Value) -> bool {
        match (self, v) {
            (Column::Int(c), Value::Int(i)) => c.push(*i),
            (Column::Float(c), Value::Float(f)) => c.push(*f),
            (Column::Str(c), Value::Str(s)) => c.push(Arc::clone(s)),
            (Column::Vector(c), Value::Vector(x)) => c.push(Arc::clone(x)),
            (Column::StrPair(c), Value::Pair(p)) => match (p.key(), p.val()) {
                (Value::Str(k), Value::Str(val)) => c.push((Arc::clone(k), Arc::clone(val))),
                _ => return false,
            },
            _ => return false,
        }
        true
    }

    /// Reconstructs the `Value` at row `i`.
    pub(crate) fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int(c) => Value::Int(c[i]),
            Column::Float(c) => Value::Float(c[i]),
            Column::Str(c) => Value::Str(Arc::clone(&c[i])),
            Column::StrPair(c) => Value::pair(
                Value::Str(Arc::clone(&c[i].0)),
                Value::Str(Arc::clone(&c[i].1)),
            ),
            Column::Vector(c) => Value::Vector(Arc::clone(&c[i])),
        }
    }

    /// Virtual size of the `Value` at row `i` (the exact
    /// [`Value::size_bytes`] constants).
    pub(crate) fn size_at(&self, i: usize) -> u64 {
        match self {
            Column::Int(_) | Column::Float(_) => 16,
            Column::Str(c) => 24 + c[i].len() as u64,
            Column::StrPair(c) => 16 + (24 + c[i].0.len() as u64) + (24 + c[i].1.len() as u64),
            Column::Vector(c) => 24 + 8 * c[i].len() as u64,
        }
    }

    /// Σ of the per-row virtual sizes.
    pub(crate) fn payload_bytes(&self) -> u64 {
        match self {
            Column::Int(c) => 16 * c.len() as u64,
            Column::Float(c) => 16 * c.len() as u64,
            Column::Str(c) => c.iter().map(|s| 24 + s.len() as u64).sum(),
            Column::StrPair(c) => c
                .iter()
                .map(|(k, v)| 16 + (24 + k.len() as u64) + (24 + v.len() as u64))
                .sum(),
            Column::Vector(c) => c.iter().map(|v| 24 + 8 * v.len() as u64).sum(),
        }
    }

    /// Selects the rows at `idx`, in order.
    pub(crate) fn gather(&self, idx: &[u32]) -> Column {
        match self {
            Column::Int(c) => Column::Int(idx.iter().map(|&i| c[i as usize]).collect()),
            Column::Float(c) => Column::Float(idx.iter().map(|&i| c[i as usize]).collect()),
            Column::Str(c) => {
                Column::Str(idx.iter().map(|&i| Arc::clone(&c[i as usize])).collect())
            }
            Column::StrPair(c) => Column::StrPair(
                idx.iter()
                    .map(|&i| {
                        let (k, v) = &c[i as usize];
                        (Arc::clone(k), Arc::clone(v))
                    })
                    .collect(),
            ),
            Column::Vector(c) => {
                Column::Vector(idx.iter().map(|&i| Arc::clone(&c[i as usize])).collect())
            }
        }
    }

    /// Stable-hash of the row at `i`, byte-identical to
    /// `stable_hash(&self.value_at(i))`; `None` for column types without
    /// a typed hash path.
    pub(crate) fn hash_at(&self, i: usize) -> Option<u64> {
        Some(match self {
            Column::Int(c) => stable_hash_int(c[i]),
            Column::Float(c) => stable_hash_float(c[i]),
            Column::Str(c) => stable_hash_str(&c[i]),
            Column::StrPair(c) => stable_hash_str_pair(&c[i].0, &c[i].1),
            Column::Vector(_) => return None,
        })
    }
}

/// A columnar partition: the same record sequence as a flat
/// `Vec<Value>`, stored as typed columns.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnBatch {
    /// Scalar records — each row is one typed value.
    Scalar(Column),
    /// `Value::List` rows of a fixed scalar schema (struct-of-arrays).
    Rows(Vec<Column>),
    /// `Value::Pair` rows — a key column plus a payload batch.
    Pair {
        /// The key column.
        key: Column,
        /// The per-row payloads.
        val: Box<ColumnBatch>,
    },
}

/// Incremental typed encoder behind [`ColumnBatch::from_rows`].
enum Builder {
    Scalar(Column),
    Rows(Vec<Column>),
    Pair { key: Column, val: Box<Builder> },
}

impl Builder {
    /// An empty builder shaped like `v`, or `None` when `v` has no
    /// columnar layout.
    fn for_value(v: &Value, cap: usize) -> Option<Builder> {
        match v {
            Value::List(items) => {
                if items.is_empty() {
                    return None;
                }
                let cols = items
                    .iter()
                    .map(|it| match it {
                        // Nested pairs/lists inside a row stay on the
                        // record path.
                        Value::Pair(_) | Value::List(_) => None,
                        _ => Column::for_value(it, cap),
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(Builder::Rows(cols))
            }
            Value::Pair(p) => {
                // A `(Str, Str)` key encodes as a StrPair *scalar*
                // column only when it is the key of an outer pair; a
                // bare `(Str, Str)` record is also fine as Scalar.
                let key = Column::for_value(p.key(), cap)?;
                let val = Builder::for_value(p.val(), cap).map(Box::new);
                match val {
                    Some(val) => Some(Builder::Pair { key, val }),
                    // Pair of two strings with no deeper structure can
                    // still encode as a scalar StrPair column.
                    None => Column::for_value(v, cap).map(Builder::Scalar),
                }
            }
            _ => Column::for_value(v, cap).map(Builder::Scalar),
        }
    }

    fn push(&mut self, v: &Value) -> bool {
        match (self, v) {
            (Builder::Scalar(c), v) => c.push_from(v),
            (Builder::Rows(cols), Value::List(items)) => {
                if items.len() != cols.len() {
                    return false;
                }
                for (c, it) in cols.iter_mut().zip(items.iter()) {
                    if !c.push_from(it) {
                        return false;
                    }
                }
                true
            }
            (Builder::Pair { key, val }, Value::Pair(p)) => {
                key.push_from(p.key()) && val.push(p.val())
            }
            _ => false,
        }
    }

    fn finish(self) -> ColumnBatch {
        match self {
            Builder::Scalar(c) => ColumnBatch::Scalar(c),
            Builder::Rows(cols) => ColumnBatch::Rows(cols),
            Builder::Pair { key, val } => ColumnBatch::Pair {
                key,
                val: Box::new(val.finish()),
            },
        }
    }
}

impl ColumnBatch {
    /// Encodes a record sequence into typed columns, or `None` when the
    /// records are heterogeneous or use types without a columnar layout
    /// (the deterministic row-path fallback). Empty partitions stay on
    /// the row path — there is nothing to vectorize.
    pub fn from_rows(rows: &[Value]) -> Option<ColumnBatch> {
        let first = rows.first()?;
        let mut b = Builder::for_value(first, rows.len())?;
        for v in rows {
            if !b.push(v) {
                return None;
            }
        }
        Some(b.finish())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match self {
            ColumnBatch::Scalar(c) => c.len(),
            ColumnBatch::Rows(cols) => cols.first().map_or(0, Column::len),
            ColumnBatch::Pair { key, .. } => key.len(),
        }
    }

    /// `true` when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the `Value` at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnBatch::Scalar(c) => c.value_at(i),
            ColumnBatch::Rows(cols) => Value::list(cols.iter().map(|c| c.value_at(i)).collect()),
            ColumnBatch::Pair { key, val } => Value::pair(key.value_at(i), val.value_at(i)),
        }
    }

    /// Virtual size of the record at row `i` (exact [`Value::size_bytes`]
    /// formula: List rows are `24 + Σ fields`, pairs `16 + k + v`).
    pub fn size_at(&self, i: usize) -> u64 {
        match self {
            ColumnBatch::Scalar(c) => c.size_at(i),
            ColumnBatch::Rows(cols) => 24 + cols.iter().map(|c| c.size_at(i)).sum::<u64>(),
            ColumnBatch::Pair { key, val } => 16 + key.size_at(i) + val.size_at(i),
        }
    }

    /// Σ of per-record virtual sizes — identical to
    /// `rows.iter().map(Value::size_bytes).sum()` on the decoded rows.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            ColumnBatch::Scalar(c) => c.payload_bytes(),
            ColumnBatch::Rows(cols) => {
                24 * self.len() as u64 + cols.iter().map(Column::payload_bytes).sum::<u64>()
            }
            ColumnBatch::Pair { key, val } => {
                16 * self.len() as u64 + key.payload_bytes() + val.payload_bytes()
            }
        }
    }

    /// Decodes back to the original record sequence, order preserved.
    pub fn to_rows(&self) -> Vec<Value> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.value_at(i));
        }
        out
    }

    /// Selects the records at `idx`, in order.
    pub fn gather(&self, idx: &[u32]) -> ColumnBatch {
        match self {
            ColumnBatch::Scalar(c) => ColumnBatch::Scalar(c.gather(idx)),
            ColumnBatch::Rows(cols) => {
                ColumnBatch::Rows(cols.iter().map(|c| c.gather(idx)).collect())
            }
            ColumnBatch::Pair { key, val } => ColumnBatch::Pair {
                key: key.gather(idx),
                val: Box::new(val.gather(idx)),
            },
        }
    }

    /// Stable-hash of record `i`'s *shuffle routing key*, byte-identical
    /// to `stable_hash(v.key().unwrap_or(v))` on the decoded record:
    /// pair records hash their key, any other record hashes itself.
    /// `None` when the key has no typed hash path (the caller falls back
    /// to row partitioning).
    pub(crate) fn route_hash_at(&self, i: usize) -> Option<u64> {
        match self {
            // A StrPair scalar column decodes to pair records, whose
            // routing key is the key *half*, not the whole pair.
            ColumnBatch::Scalar(Column::StrPair(c)) => Some(stable_hash_str(&c[i].0)),
            ColumnBatch::Scalar(c) => c.hash_at(i),
            ColumnBatch::Pair { key, .. } => key.hash_at(i),
            ColumnBatch::Rows(_) => None,
        }
    }
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// A numeric scalar expression over one record, producing an `f64`.
#[derive(Debug, Clone)]
pub enum NumExpr {
    /// The record itself (scalar batches) or the value half of a pair,
    /// widened to `f64`.
    Input,
    /// Field `i` of a list row, widened to `f64`.
    Field(usize),
    /// A constant.
    Lit(f64),
    /// Sum of two subexpressions.
    Add(Box<NumExpr>, Box<NumExpr>),
    /// Difference of two subexpressions.
    Sub(Box<NumExpr>, Box<NumExpr>),
    /// Product of two subexpressions.
    Mul(Box<NumExpr>, Box<NumExpr>),
}

impl NumExpr {
    /// Per-record evaluation (the row-path reference semantics).
    pub(crate) fn eval_value(&self, v: &Value) -> f64 {
        match self {
            NumExpr::Input => match v {
                Value::Pair(p) => p.val().as_f64().unwrap_or(0.0),
                other => other.as_f64().unwrap_or(0.0),
            },
            NumExpr::Field(i) => v
                .as_list()
                .and_then(|l| l.get(*i))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            NumExpr::Lit(c) => *c,
            NumExpr::Add(a, b) => a.eval_value(v) + b.eval_value(v),
            NumExpr::Sub(a, b) => a.eval_value(v) - b.eval_value(v),
            NumExpr::Mul(a, b) => a.eval_value(v) * b.eval_value(v),
        }
    }

    /// Batch evaluation; `None` when the batch shape does not carry the
    /// referenced input (the caller falls back to the record path).
    fn eval_batch(&self, batch: &ColumnBatch) -> Option<Vec<f64>> {
        fn widen(col: &Column) -> Option<Vec<f64>> {
            match col {
                Column::Int(c) => Some(c.iter().map(|&i| i as f64).collect()),
                Column::Float(c) => Some(c.clone()),
                _ => None,
            }
        }
        match self {
            NumExpr::Input => match batch {
                ColumnBatch::Scalar(c) => widen(c),
                ColumnBatch::Pair { val, .. } => match val.as_ref() {
                    ColumnBatch::Scalar(c) => widen(c),
                    _ => None,
                },
                ColumnBatch::Rows(_) => None,
            },
            NumExpr::Field(i) => match batch {
                ColumnBatch::Rows(cols) => widen(cols.get(*i)?),
                _ => None,
            },
            NumExpr::Lit(c) => Some(vec![*c; batch.len()]),
            NumExpr::Add(a, b) => {
                let (mut x, y) = (a.eval_batch(batch)?, b.eval_batch(batch)?);
                for (xi, yi) in x.iter_mut().zip(&y) {
                    *xi += yi;
                }
                Some(x)
            }
            NumExpr::Sub(a, b) => {
                let (mut x, y) = (a.eval_batch(batch)?, b.eval_batch(batch)?);
                for (xi, yi) in x.iter_mut().zip(&y) {
                    *xi -= yi;
                }
                Some(x)
            }
            NumExpr::Mul(a, b) => {
                let (mut x, y) = (a.eval_batch(batch)?, b.eval_batch(batch)?);
                for (xi, yi) in x.iter_mut().zip(&y) {
                    *xi *= yi;
                }
                Some(x)
            }
        }
    }
}

/// A filter predicate over list-row fields.
#[derive(Debug, Clone)]
pub enum PredKernel {
    /// `field ≤ max` on an Int field.
    IntLe {
        /// List-row field index.
        field: usize,
        /// Inclusive upper bound.
        max: i64,
    },
    /// `field > min` on an Int field.
    IntGt {
        /// List-row field index.
        field: usize,
        /// Exclusive lower bound.
        min: i64,
    },
    /// `lo ≤ field < hi` (half-open) on an Int field.
    IntInRange {
        /// List-row field index.
        field: usize,
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// `field < max` on a numeric field (Int widened).
    FloatLt {
        /// List-row field index.
        field: usize,
        /// Exclusive upper bound.
        max: f64,
    },
    /// `lo ≤ field ≤ hi` (inclusive) on a numeric field.
    FloatInRangeIncl {
        /// List-row field index.
        field: usize,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// `field == expect` on a Str field.
    StrEq {
        /// List-row field index.
        field: usize,
        /// The string to match.
        expect: Arc<str>,
    },
    /// Conjunction of predicates.
    And(Vec<PredKernel>),
}

impl PredKernel {
    /// Per-record evaluation (the row-path reference semantics): rows
    /// missing the field or carrying the wrong type fail the predicate.
    pub fn eval_value(&self, v: &Value) -> bool {
        let field = |i: usize| v.as_list().and_then(|l| l.get(i));
        match self {
            PredKernel::IntLe { field: f, max } => {
                field(*f).and_then(Value::as_i64).is_some_and(|x| x <= *max)
            }
            PredKernel::IntGt { field: f, min } => {
                field(*f).and_then(Value::as_i64).is_some_and(|x| x > *min)
            }
            PredKernel::IntInRange { field: f, lo, hi } => field(*f)
                .and_then(Value::as_i64)
                .is_some_and(|x| *lo <= x && x < *hi),
            PredKernel::FloatLt { field: f, max } => {
                field(*f).and_then(Value::as_f64).is_some_and(|x| x < *max)
            }
            PredKernel::FloatInRangeIncl { field: f, lo, hi } => field(*f)
                .and_then(Value::as_f64)
                .is_some_and(|x| *lo <= x && x <= *hi),
            PredKernel::StrEq { field: f, expect } => field(*f)
                .and_then(Value::as_str)
                .is_some_and(|s| s == &**expect),
            PredKernel::And(ps) => ps.iter().all(|p| p.eval_value(v)),
        }
    }

    /// Batch evaluation to a selection mask; `None` when a referenced
    /// field is missing or the wrong column type.
    fn eval_mask(&self, batch: &ColumnBatch) -> Option<Vec<bool>> {
        let cols = match batch {
            ColumnBatch::Rows(cols) => cols,
            _ => return None,
        };
        match self {
            PredKernel::IntLe { field, max } => match cols.get(*field)? {
                Column::Int(c) => Some(c.iter().map(|&x| x <= *max).collect()),
                _ => None,
            },
            PredKernel::IntGt { field, min } => match cols.get(*field)? {
                Column::Int(c) => Some(c.iter().map(|&x| x > *min).collect()),
                _ => None,
            },
            PredKernel::IntInRange { field, lo, hi } => match cols.get(*field)? {
                Column::Int(c) => Some(c.iter().map(|&x| *lo <= x && x < *hi).collect()),
                _ => None,
            },
            PredKernel::FloatLt { field, max } => match cols.get(*field)? {
                Column::Float(c) => Some(c.iter().map(|&x| x < *max).collect()),
                Column::Int(c) => Some(c.iter().map(|&x| (x as f64) < *max).collect()),
                _ => None,
            },
            PredKernel::FloatInRangeIncl { field, lo, hi } => match cols.get(*field)? {
                Column::Float(c) => Some(c.iter().map(|&x| *lo <= x && x <= *hi).collect()),
                Column::Int(c) => Some(
                    c.iter()
                        .map(|&x| *lo <= (x as f64) && (x as f64) <= *hi)
                        .collect(),
                ),
                _ => None,
            },
            PredKernel::StrEq { field, expect } => match cols.get(*field)? {
                Column::Str(c) => Some(c.iter().map(|s| **s == **expect).collect()),
                _ => None,
            },
            PredKernel::And(ps) => {
                let mut mask: Option<Vec<bool>> = None;
                for p in ps {
                    let m = p.eval_mask(batch)?;
                    match &mut mask {
                        None => mask = Some(m),
                        Some(acc) => {
                            for (a, b) in acc.iter_mut().zip(&m) {
                                *a = *a && *b;
                            }
                        }
                    }
                }
                mask.or_else(|| Some(vec![true; batch.len()]))
            }
        }
    }

    /// Applies the predicate to a batch: mask then gather. `None` falls
    /// back to the record path.
    pub(crate) fn filter_batch(&self, batch: &ColumnBatch) -> Option<ColumnBatch> {
        let mask = self.eval_mask(batch)?;
        let mut idx = Vec::with_capacity(batch.len());
        for (i, keep) in mask.iter().enumerate() {
            if *keep {
                idx.push(i as u32);
            }
        }
        Some(batch.gather(&idx))
    }
}

/// A scalar output expression for map kernels.
#[derive(Debug, Clone)]
pub enum ScalarExpr {
    /// Copy field `i` of a list row verbatim.
    Field(usize),
    /// Copy the input record verbatim.
    Input,
    /// A numeric expression, producing a `Float`.
    Num(NumExpr),
    /// A constant `Int`.
    IntLit(i64),
}

impl ScalarExpr {
    /// Per-record evaluation (the row-path reference semantics).
    pub(crate) fn eval_value(&self, v: &Value) -> Value {
        match self {
            ScalarExpr::Field(i) => v
                .as_list()
                .and_then(|l| l.get(*i))
                .cloned()
                .unwrap_or(Value::Null),
            ScalarExpr::Input => v.clone(),
            ScalarExpr::Num(e) => Value::Float(e.eval_value(v)),
            ScalarExpr::IntLit(c) => Value::Int(*c),
        }
    }

    fn eval_batch(&self, batch: &ColumnBatch) -> Option<Column> {
        match self {
            ScalarExpr::Field(i) => match batch {
                ColumnBatch::Rows(cols) => cols.get(*i).cloned(),
                _ => None,
            },
            ScalarExpr::Input => match batch {
                ColumnBatch::Scalar(c) => Some(c.clone()),
                _ => None,
            },
            ScalarExpr::Num(e) => Some(Column::Float(e.eval_batch(batch)?)),
            ScalarExpr::IntLit(c) => Some(Column::Int(vec![*c; batch.len()])),
        }
    }
}

/// A key expression for pair-producing map kernels.
#[derive(Debug, Clone)]
pub enum KeyExpr {
    /// Field `i` of a list row.
    Field(usize),
    /// The input pair's key.
    PairKey,
    /// A composite `(field_i, field_j)` string-pair key.
    PairOfFields(usize, usize),
}

impl KeyExpr {
    /// Per-record evaluation (the row-path reference semantics).
    pub(crate) fn eval_value(&self, v: &Value) -> Value {
        match self {
            KeyExpr::Field(i) => v
                .as_list()
                .and_then(|l| l.get(*i))
                .cloned()
                .unwrap_or(Value::Null),
            KeyExpr::PairKey => v.key().cloned().unwrap_or(Value::Null),
            KeyExpr::PairOfFields(i, j) => {
                let get = |k: usize| {
                    v.as_list()
                        .and_then(|l| l.get(k))
                        .cloned()
                        .unwrap_or(Value::Null)
                };
                Value::pair(get(*i), get(*j))
            }
        }
    }

    fn eval_batch(&self, batch: &ColumnBatch) -> Option<Column> {
        match self {
            KeyExpr::Field(i) => match batch {
                ColumnBatch::Rows(cols) => cols.get(*i).cloned(),
                _ => None,
            },
            KeyExpr::PairKey => match batch {
                ColumnBatch::Pair { key, .. } => Some(key.clone()),
                _ => None,
            },
            KeyExpr::PairOfFields(i, j) => match batch {
                ColumnBatch::Rows(cols) => match (cols.get(*i)?, cols.get(*j)?) {
                    (Column::Str(a), Column::Str(b)) => Some(Column::StrPair(
                        a.iter()
                            .zip(b.iter())
                            .map(|(x, y)| (Arc::clone(x), Arc::clone(y)))
                            .collect(),
                    )),
                    _ => None,
                },
                _ => None,
            },
        }
    }
}

/// The payload half of a pair-producing map kernel.
#[derive(Debug, Clone)]
pub enum PayloadExpr {
    /// A single scalar payload.
    Scalar(ScalarExpr),
    /// A `Value::List` payload with one expression per item.
    List(Vec<ScalarExpr>),
}

impl PayloadExpr {
    /// Per-record evaluation (the row-path reference semantics).
    pub(crate) fn eval_value(&self, v: &Value) -> Value {
        match self {
            PayloadExpr::Scalar(e) => e.eval_value(v),
            PayloadExpr::List(es) => Value::list(es.iter().map(|e| e.eval_value(v)).collect()),
        }
    }

    fn eval_batch(&self, batch: &ColumnBatch) -> Option<ColumnBatch> {
        match self {
            PayloadExpr::Scalar(e) => Some(ColumnBatch::Scalar(e.eval_batch(batch)?)),
            PayloadExpr::List(es) => Some(ColumnBatch::Rows(
                es.iter()
                    .map(|e| e.eval_batch(batch))
                    .collect::<Option<Vec<_>>>()?,
            )),
        }
    }
}

/// A declarative map transformation with a vectorized evaluator.
#[derive(Debug, Clone)]
pub enum MapKernel {
    /// Record → scalar record.
    Scalar(ScalarExpr),
    /// Record → `(key, payload)` pair.
    Pair {
        /// Key expression.
        key: KeyExpr,
        /// Payload expression.
        val: PayloadExpr,
    },
    /// KMeans assignment: `Vector` point → `(nearest-center id,
    /// [point, 1])`; non-vector records are skipped (filter_map
    /// semantics, usable only through `map_partitions_kernel`).
    NearestCenter {
        /// The current centroids.
        centers: Arc<Vec<Vec<f64>>>,
    },
}

/// Squared-distance argmin over `centers` (strict `<`, first wins) —
/// the exact comparison order of the original KMeans closure.
fn nearest_center(centers: &[Vec<f64>], p: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centers.iter().enumerate() {
        let d: f64 = c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

impl MapKernel {
    /// Per-record evaluation; `None` skips the record (only
    /// [`MapKernel::NearestCenter`] skips).
    pub fn eval_value(&self, v: &Value) -> Option<Value> {
        match self {
            MapKernel::Scalar(e) => Some(e.eval_value(v)),
            MapKernel::Pair { key, val } => Some(Value::pair(key.eval_value(v), val.eval_value(v))),
            MapKernel::NearestCenter { centers } => {
                let p = v.as_vector()?;
                let c = nearest_center(centers, p);
                Some(Value::pair(
                    Value::Int(c as i64),
                    Value::list(vec![v.clone(), Value::Int(1)]),
                ))
            }
        }
    }

    /// Batch evaluation; `None` falls back to the record path. The
    /// identity kernel hands the input handle onward whatever its layout,
    /// so a declared pass-through costs a refcount bump.
    pub(crate) fn eval_batch(&self, batch: &Arc<ColumnBatch>) -> Option<Arc<ColumnBatch>> {
        Some(Arc::new(match self {
            MapKernel::Scalar(ScalarExpr::Input) => return Some(Arc::clone(batch)),
            MapKernel::Scalar(e) => ColumnBatch::Scalar(e.eval_batch(batch)?),
            MapKernel::Pair { key, val } => ColumnBatch::Pair {
                key: key.eval_batch(batch)?,
                val: Box::new(val.eval_batch(batch)?),
            },
            MapKernel::NearestCenter { centers } => match batch.as_ref() {
                ColumnBatch::Scalar(Column::Vector(points)) => {
                    let mut keys = Vec::with_capacity(points.len());
                    for p in points {
                        keys.push(nearest_center(centers, p) as i64);
                    }
                    ColumnBatch::Pair {
                        key: Column::Int(keys),
                        val: Box::new(ColumnBatch::Rows(vec![
                            Column::Vector(points.clone()),
                            Column::Int(vec![1; points.len()]),
                        ])),
                    }
                }
                _ => return None,
            },
        }))
    }
}

/// A declarative element-to-many transformation whose batch evaluator
/// builds its output columns straight from row input: the ops it serves
/// read nested records (a cogroup's per-side lists) that have no
/// columnar layout, so only the output can be a batch.
#[derive(Debug, Clone)]
pub enum FlatMapKernel {
    /// PageRank's contributions. A cogroup record `(k, [[adj, ..], [x,
    /// ..], ..])` emits `(d, x / max(|adj|, 1))` for each `d` in the list
    /// `adj`, where `x` is widened to `f64` (`0.0` when side 1 is empty
    /// or `x` is not a number). Any other shape emits nothing.
    ShareOverFirstList,
}

/// The destinations and per-destination share of a
/// [`FlatMapKernel::ShareOverFirstList`] record, or `None` for a record
/// that emits nothing.
fn share_over_first_list(v: &Value) -> Option<(&[Value], f64)> {
    let [adj, rankside, ..] = v.val()?.as_list()? else {
        return None;
    };
    let (adj, rankside) = (adj.as_list()?, rankside.as_list()?);
    let dsts = adj.first()?.as_list()?;
    let rank = rankside.first().and_then(Value::as_f64).unwrap_or(0.0);
    Some((dsts, rank / dsts.len().max(1) as f64))
}

impl FlatMapKernel {
    /// Per-record evaluation (the row-path reference semantics).
    pub fn eval_value(&self, v: &Value) -> Vec<Value> {
        match self {
            FlatMapKernel::ShareOverFirstList => {
                share_over_first_list(v).map_or_else(Vec::new, |(dsts, share)| {
                    dsts.iter()
                        .map(|d| Value::pair(d.clone(), Value::Float(share)))
                        .collect()
                })
            }
        }
    }

    /// The whole partition's output as one `Pair { key: Int, val:
    /// Scalar(Float) }` batch, records in the order `eval_value` emits
    /// them over `rows`; an empty partition is an empty batch. `None`
    /// as soon as an emitted key is not an `Int` (the caller runs the
    /// row closure instead).
    pub fn eval_rows(&self, rows: &[Value]) -> Option<ColumnBatch> {
        match self {
            FlatMapKernel::ShareOverFirstList => {
                let records = rows.iter().filter_map(share_over_first_list);
                let n = records.clone().map(|(dsts, _)| dsts.len()).sum();
                let (mut keys, mut shares) = (Vec::with_capacity(n), Vec::with_capacity(n));
                for (dsts, share) in records {
                    for d in dsts {
                        let Value::Int(k) = d else {
                            return None;
                        };
                        keys.push(*k);
                        shares.push(share);
                    }
                }
                Some(ColumnBatch::Pair {
                    key: Column::Int(keys),
                    val: Box::new(ColumnBatch::Scalar(Column::Float(shares))),
                })
            }
        }
    }
}

/// Which scalar type an aggregated list slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggField {
    /// An `f64` running sum.
    Float,
    /// An `i64` running sum.
    Int,
}

/// A declarative combine function for `reduce_by_key` with a typed
/// accumulation path.
#[derive(Debug, Clone)]
pub enum AggKernel {
    /// `Float + Float` scalar sum.
    SumFloat,
    /// Elementwise sum over a `Value::List` payload of scalars
    /// (TPC-H Q1's running aggregates).
    SumRow(Vec<AggField>),
    /// `[vector elementwise sum (zip-truncating), Int count sum]` —
    /// KMeans' per-cluster accumulator.
    VecSumCount,
}

/// One typed accumulator slot used by [`AggKernel`]'s batch path.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Float(f64),
    Row(Vec<AggCell>),
    VecCount(Vec<f64>, i64),
}

/// A single typed cell of a [`AggState::Row`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum AggCell {
    F(f64),
    I(i64),
}

impl AggKernel {
    /// Per-record combine (the row-path reference semantics): `a` is
    /// the accumulator, `b` the newly-arrived value, matching the
    /// engine's `combine(acc, new)` call order.
    pub(crate) fn combine_values(&self, a: &Value, b: &Value) -> Value {
        match self {
            AggKernel::SumFloat => {
                Value::Float(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0))
            }
            AggKernel::SumRow(fields) => {
                let empty: &[Value] = &[];
                let av = a.as_list().unwrap_or(empty);
                let bv = b.as_list().unwrap_or(empty);
                let cell = |i: usize, l: &[Value]| l.get(i).cloned().unwrap_or(Value::Null);
                Value::list(
                    fields
                        .iter()
                        .enumerate()
                        .map(|(i, f)| match f {
                            AggField::Float => Value::Float(
                                cell(i, av).as_f64().unwrap_or(0.0)
                                    + cell(i, bv).as_f64().unwrap_or(0.0),
                            ),
                            AggField::Int => Value::Int(
                                cell(i, av).as_i64().unwrap_or(0)
                                    + cell(i, bv).as_i64().unwrap_or(0),
                            ),
                        })
                        .collect(),
                )
            }
            AggKernel::VecSumCount => {
                let empty: &[Value] = &[];
                let av = a.as_list().unwrap_or(empty);
                let bv = b.as_list().unwrap_or(empty);
                let none: &[f64] = &[];
                let sa = av.first().and_then(Value::as_vector).unwrap_or(none);
                let sb = bv.first().and_then(Value::as_vector).unwrap_or(none);
                let sum: Vec<f64> = sa.iter().zip(sb).map(|(x, y)| x + y).collect();
                let n = av.get(1).and_then(Value::as_i64).unwrap_or(0)
                    + bv.get(1).and_then(Value::as_i64).unwrap_or(0);
                Value::list(vec![Value::vector(sum), Value::Int(n)])
            }
        }
    }

    /// `true` when `val` has the typed payload layout this kernel
    /// accumulates without decoding.
    fn accepts(&self, val: &ColumnBatch) -> bool {
        match (self, val) {
            (AggKernel::SumFloat, ColumnBatch::Scalar(Column::Float(_))) => true,
            (AggKernel::SumRow(fields), ColumnBatch::Rows(cols)) => {
                cols.len() == fields.len()
                    && fields.iter().zip(cols).all(|(f, c)| {
                        matches!(
                            (f, c),
                            (AggField::Float, Column::Float(_)) | (AggField::Int, Column::Int(_))
                        )
                    })
            }
            (AggKernel::VecSumCount, ColumnBatch::Rows(cols)) => {
                matches!(cols.as_slice(), [Column::Vector(_), Column::Int(_)])
            }
            _ => false,
        }
    }

    /// Initializes an accumulator from row `i` of `val` — the typed
    /// equivalent of the row path's "first value is inserted verbatim".
    fn init(&self, val: &ColumnBatch, i: usize) -> AggState {
        match (self, val) {
            (AggKernel::SumFloat, ColumnBatch::Scalar(Column::Float(c))) => AggState::Float(c[i]),
            (AggKernel::SumRow(_), ColumnBatch::Rows(cols)) => AggState::Row(
                cols.iter()
                    .map(|c| match c {
                        Column::Float(v) => AggCell::F(v[i]),
                        Column::Int(v) => AggCell::I(v[i]),
                        _ => unreachable!("accepts() checked the layout"),
                    })
                    .collect(),
            ),
            (AggKernel::VecSumCount, ColumnBatch::Rows(cols)) => match cols.as_slice() {
                [Column::Vector(v), Column::Int(n)] => AggState::VecCount(v[i].to_vec(), n[i]),
                _ => unreachable!("accepts() checked the layout"),
            },
            _ => unreachable!("accepts() checked the layout"),
        }
    }

    /// Folds row `i` of `val` into `acc` — the typed equivalent of
    /// `combine(acc, new)`, byte-identical per field (same f64 operation
    /// order, same zip-truncation).
    fn fold(&self, acc: &mut AggState, val: &ColumnBatch, i: usize) {
        match (self, acc, val) {
            (AggKernel::SumFloat, AggState::Float(a), ColumnBatch::Scalar(Column::Float(c))) => {
                *a += c[i];
            }
            (AggKernel::SumRow(_), AggState::Row(cells), ColumnBatch::Rows(cols)) => {
                for (cell, col) in cells.iter_mut().zip(cols) {
                    match (cell, col) {
                        (AggCell::F(a), Column::Float(v)) => *a += v[i],
                        (AggCell::I(a), Column::Int(v)) => *a += v[i],
                        _ => unreachable!("accepts() checked the layout"),
                    }
                }
            }
            (AggKernel::VecSumCount, AggState::VecCount(a, n), ColumnBatch::Rows(cols)) => {
                match cols.as_slice() {
                    [Column::Vector(v), Column::Int(cnt)] => {
                        // zip truncates to the shorter side, exactly like
                        // the row combine's `sa.iter().zip(sb)`.
                        let sum: Vec<f64> = a.iter().zip(v[i].iter()).map(|(x, y)| x + y).collect();
                        *a = sum;
                        *n += cnt[i];
                    }
                    _ => unreachable!("accepts() checked the layout"),
                }
            }
            _ => unreachable!("accepts() checked the layout"),
        }
    }

    /// Re-encodes accumulators (already in key order) into the columnar
    /// payload shape the kernel accepts.
    fn emit_columns(&self, states: Vec<AggState>) -> ColumnBatch {
        match self {
            AggKernel::SumFloat => ColumnBatch::Scalar(Column::Float(
                states
                    .into_iter()
                    .map(|s| match s {
                        AggState::Float(f) => f,
                        _ => unreachable!("states come from this kernel"),
                    })
                    .collect(),
            )),
            AggKernel::SumRow(fields) => {
                let mut cols: Vec<Column> = fields
                    .iter()
                    .map(|f| match f {
                        AggField::Float => Column::Float(Vec::with_capacity(states.len())),
                        AggField::Int => Column::Int(Vec::with_capacity(states.len())),
                    })
                    .collect();
                for s in states {
                    let AggState::Row(cells) = s else {
                        unreachable!("states come from this kernel")
                    };
                    for (col, cell) in cols.iter_mut().zip(cells) {
                        match (col, cell) {
                            (Column::Float(v), AggCell::F(f)) => v.push(f),
                            (Column::Int(v), AggCell::I(i)) => v.push(i),
                            _ => unreachable!("field kinds are fixed"),
                        }
                    }
                }
                ColumnBatch::Rows(cols)
            }
            AggKernel::VecSumCount => {
                let mut vecs = Vec::with_capacity(states.len());
                let mut counts = Vec::with_capacity(states.len());
                for s in states {
                    let AggState::VecCount(v, n) = s else {
                        unreachable!("states come from this kernel")
                    };
                    vecs.push(Arc::new(v));
                    counts.push(n);
                }
                ColumnBatch::Rows(vec![Column::Vector(vecs), Column::Int(counts)])
            }
        }
    }
}

/// An `f64` ordered by IEEE total order — the typed twin of
/// `Value::Float`'s `Ord`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The order-preserving `u64` image of an `i64` key: the sign bit
/// flipped, so unsigned order on images is signed order on keys.
pub(crate) fn radix_key_i64(k: i64) -> u64 {
    (k as u64) ^ (1 << 63)
}

/// The order-preserving `u64` image of an `f64` key under IEEE total
/// order: the bit transform `f64::total_cmp` compares by, sign bit
/// flipped. Two images are equal exactly when `total_cmp` says the keys
/// are (so `-0.0` and `0.0`, or two NaN payloads, stay apart).
pub(crate) fn radix_key_f64(k: f64) -> u64 {
    let bits = k.to_bits() as i64;
    radix_key_i64(bits ^ (((bits >> 63) as u64) >> 1) as i64)
}

/// Stable LSD radix sort of `recs` by the `u64` image `key` gives each
/// record, one 8-bit digit a pass. A digit every record shares is
/// skipped (its pass would permute nothing), so keys that differ only in
/// their low 16 bits — PageRank's node ids — take two passes, and
/// all-equal keys take none. Records with equal images keep their input
/// order.
pub(crate) fn radix_sort<T: Copy>(recs: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let Some(first) = recs.first().map(&key) else {
        return;
    };
    let varying = recs.iter().fold(0, |acc, r| acc | (key(r) ^ first));
    let mut buf: Vec<T> = Vec::new();
    for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0) {
        let digit = |r: &T| ((key(r) >> shift) & 0xff) as usize;
        let mut next = [0usize; 256];
        for r in recs.iter() {
            next[digit(r)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        if buf.is_empty() {
            buf = recs.clone();
        }
        for r in recs.iter() {
            let d = digit(r);
            buf[next[d]] = *r;
            next[d] += 1;
        }
        std::mem::swap(recs, &mut buf);
    }
}

/// Aggregates `(key, payload)` batches by typed key, folding each key's
/// records in chunk order then row order (so per-key accumulation order —
/// and therefore float rounding — matches the row path exactly), and
/// returns the combined pairs as a columnar batch sorted by key.
///
/// Fixed-width keys (`Int`, `Float` under IEEE total order) are folded by
/// a stable [`radix_sort`] of `(key, chunk, row)`: stability keeps each
/// key's records in arrival order, and no map is probed per record.
/// String keys keep a `BTreeMap`: the string-keyed aggregations there
/// are have a handful of groups (TPC-H Q1: four), where a sort's string
/// compares buy nothing (EXPERIMENTS.md, `keyed_agg`).
///
/// `None` when the chunks disagree on key type or payload shape — the
/// caller decodes and takes the record path. The sorted emit order is
/// identical to a `BTreeMap<Value, Value>` walk because each typed key
/// order (`i64`, total-order `f64`, `str`, `(str, str)`) matches
/// `Value`'s `Ord` for homogeneous keys.
pub(crate) fn typed_agg(
    kernel: &AggKernel,
    chunks: &[(&Column, &ColumnBatch)],
) -> Option<ColumnBatch> {
    fn fold_by_sort<K: Copy>(
        kernel: &AggKernel,
        chunks: &[(&Column, &ColumnBatch)],
        keys_of: impl Fn(&Column) -> &[K],
        image: impl Fn(K) -> u64,
    ) -> (Vec<K>, Vec<AggState>) {
        let mut recs: Vec<(K, u32, u32)> =
            Vec::with_capacity(chunks.iter().map(|(keys, _)| keys.len()).sum());
        for (c, (keys, _)) in chunks.iter().enumerate() {
            let keys = keys_of(keys).iter().enumerate();
            recs.extend(keys.map(|(i, k)| (*k, c as u32, i as u32)));
        }
        radix_sort(&mut recs, |r| image(r.0));
        let mut keys: Vec<K> = Vec::new();
        let mut states: Vec<AggState> = Vec::new();
        for (k, c, i) in recs {
            let (vals, i) = (chunks[c as usize].1, i as usize);
            match (keys.last(), states.last_mut()) {
                (Some(&open), Some(st)) if image(open) == image(k) => kernel.fold(st, vals, i),
                _ => {
                    keys.push(k);
                    states.push(kernel.init(vals, i));
                }
            }
        }
        (keys, states)
    }

    fn fold_by_tree<K: Ord>(
        kernel: &AggKernel,
        chunks: &[(&Column, &ColumnBatch)],
        key_at: impl Fn(&Column, usize) -> K,
    ) -> (Vec<K>, Vec<AggState>) {
        let mut acc: BTreeMap<K, AggState> = BTreeMap::new();
        for (keys, vals) in chunks {
            for i in 0..keys.len() {
                match acc.entry(key_at(keys, i)) {
                    Entry::Occupied(mut st) => kernel.fold(st.get_mut(), vals, i),
                    Entry::Vacant(slot) => {
                        slot.insert(kernel.init(vals, i));
                    }
                }
            }
        }
        acc.into_iter().unzip()
    }

    let first_key = chunks.first()?.0;
    for (keys, vals) in chunks {
        if !kernel.accepts(vals) || keys.len() != vals.len() {
            return None;
        }
        if std::mem::discriminant(*keys) != std::mem::discriminant(first_key) {
            return None;
        }
    }
    let (key, states) = match first_key {
        Column::Int(_) => {
            fn keys_of(c: &Column) -> &[i64] {
                match c {
                    Column::Int(v) => v,
                    _ => unreachable!("homogeneous key type checked"),
                }
            }
            let (keys, states) = fold_by_sort(kernel, chunks, keys_of, radix_key_i64);
            (Column::Int(keys), states)
        }
        Column::Float(_) => {
            fn keys_of(c: &Column) -> &[f64] {
                match c {
                    Column::Float(v) => v,
                    _ => unreachable!("homogeneous key type checked"),
                }
            }
            let (keys, states) = fold_by_sort(kernel, chunks, keys_of, radix_key_f64);
            (Column::Float(keys), states)
        }
        Column::Str(_) => {
            let key_at = |c: &Column, i: usize| match c {
                Column::Str(v) => Arc::clone(&v[i]),
                _ => unreachable!("homogeneous key type checked"),
            };
            let (keys, states) = fold_by_tree(kernel, chunks, key_at);
            (Column::Str(keys), states)
        }
        Column::StrPair(_) => {
            let key_at = |c: &Column, i: usize| match c {
                Column::StrPair(v) => (Arc::clone(&v[i].0), Arc::clone(&v[i].1)),
                _ => unreachable!("homogeneous key type checked"),
            };
            let (keys, states) = fold_by_tree(kernel, chunks, key_at);
            (Column::StrPair(keys), states)
        }
        Column::Vector(_) => return None,
    };
    Some(ColumnBatch::Pair {
        key,
        val: Box::new(kernel.emit_columns(states)),
    })
}

/// Typed-key grouping for `group_by_key`'s reduce side: collects pair
/// payloads under a typed `BTreeMap`, visiting chunks and rows in order
/// (so per-key value order matches the row path's scan), and emits row
/// records `(k, List(values))` sorted by key — the same walk a
/// `BTreeMap<Value, Vec<Value>>` would produce for homogeneous keys.
///
/// `None` when the chunks disagree on key type or the key has no typed
/// order; the caller decodes and takes the record path. Callers must
/// pass only `ColumnBatch::Pair` key/payload splits (pair records are
/// the only ones the row path groups).
pub(crate) fn typed_group(chunks: &[(&Column, &ColumnBatch)]) -> Option<Vec<Value>> {
    fn run<K: Ord + Clone>(
        chunks: &[(&Column, &ColumnBatch)],
        key_at: impl Fn(&Column, usize) -> K,
        key_val: impl Fn(K) -> Value,
    ) -> Vec<Value> {
        let mut groups: BTreeMap<K, Vec<Value>> = BTreeMap::new();
        for (keys, vals) in chunks {
            for i in 0..keys.len() {
                groups
                    .entry(key_at(keys, i))
                    .or_default()
                    .push(vals.value_at(i));
            }
        }
        groups
            .into_iter()
            .map(|(k, vs)| Value::pair(key_val(k), Value::list(vs)))
            .collect()
    }

    let first_key = chunks.first()?.0;
    for (keys, vals) in chunks {
        if keys.len() != vals.len()
            || std::mem::discriminant(*keys) != std::mem::discriminant(first_key)
        {
            return None;
        }
    }
    Some(match first_key {
        Column::Int(_) => run(
            chunks,
            |c, i| match c {
                Column::Int(v) => v[i],
                _ => unreachable!("homogeneous key type checked"),
            },
            Value::Int,
        ),
        Column::Float(_) => run(
            chunks,
            |c, i| match c {
                Column::Float(v) => TotalF64(v[i]),
                _ => unreachable!("homogeneous key type checked"),
            },
            |k| Value::Float(k.0),
        ),
        Column::Str(_) => run(
            chunks,
            |c, i| match c {
                Column::Str(v) => Arc::clone(&v[i]),
                _ => unreachable!("homogeneous key type checked"),
            },
            Value::Str,
        ),
        Column::StrPair(_) => run(
            chunks,
            |c, i| match c {
                Column::StrPair(v) => (Arc::clone(&v[i].0), Arc::clone(&v[i].1)),
                _ => unreachable!("homogeneous key type checked"),
            },
            |(k, v)| Value::pair(Value::Str(k), Value::Str(v)),
        ),
        Column::Vector(_) => return None,
    })
}

/// Stable typed-key index sort for `sort_by_key`'s reduce side.
///
/// When every routing key (`v.key().unwrap_or(v)`) is the same scalar
/// type, sorts `rows` in place through a typed key vector — one
/// extraction pass, then comparisons on primitive keys instead of
/// `Value::cmp`'s per-call dispatch. The sort is stable and uses the
/// same per-type comparison as `Value`'s `Ord` (`i64` cmp, `f64`
/// total order, `str` cmp), so the result is byte-identical to the
/// row path's `sort_by` for homogeneous keys. Returns `false` (rows
/// untouched) when keys are mixed or non-scalar.
pub(crate) fn typed_sort_by_key(rows: &mut Vec<Value>, ascending: bool) -> bool {
    enum Keys {
        I(Vec<i64>),
        F(Vec<f64>),
        S(Vec<Arc<str>>),
    }
    let keys = {
        let mut it = rows.iter().map(|v| v.key().unwrap_or(v));
        match it.next() {
            None => return true, // empty: nothing to sort
            Some(Value::Int(first)) => {
                let mut ks = Vec::with_capacity(rows.len());
                ks.push(*first);
                for k in it {
                    match k {
                        Value::Int(i) => ks.push(*i),
                        _ => return false,
                    }
                }
                Keys::I(ks)
            }
            Some(Value::Float(first)) => {
                let mut ks = Vec::with_capacity(rows.len());
                ks.push(*first);
                for k in it {
                    match k {
                        Value::Float(f) => ks.push(*f),
                        _ => return false,
                    }
                }
                Keys::F(ks)
            }
            Some(Value::Str(first)) => {
                let mut ks = Vec::with_capacity(rows.len());
                ks.push(Arc::clone(first));
                for k in it {
                    match k {
                        Value::Str(s) => ks.push(Arc::clone(s)),
                        _ => return false,
                    }
                }
                Keys::S(ks)
            }
            Some(_) => return false,
        }
    };
    let mut idx: Vec<u32> = (0..rows.len() as u32).collect();
    match &keys {
        Keys::I(ks) => idx.sort_by(|&a, &b| {
            let (x, y) = (ks[a as usize], ks[b as usize]);
            if ascending {
                x.cmp(&y)
            } else {
                y.cmp(&x)
            }
        }),
        Keys::F(ks) => idx.sort_by(|&a, &b| {
            let (x, y) = (ks[a as usize], ks[b as usize]);
            if ascending {
                x.total_cmp(&y)
            } else {
                y.total_cmp(&x)
            }
        }),
        Keys::S(ks) => idx.sort_by(|&a, &b| {
            let (x, y) = (&ks[a as usize], &ks[b as usize]);
            if ascending {
                x.cmp(y)
            } else {
                y.cmp(x)
            }
        }),
    }
    *rows = idx.iter().map(|&i| rows[i as usize].clone()).collect();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lineitem(i: i64) -> Value {
        Value::list(vec![
            Value::Int(i),
            Value::Float(i as f64 * 0.5),
            Value::Float(100.0 + i as f64),
            Value::Float(0.01 * (i % 10) as f64),
            Value::from_str_(["A", "N", "R"][(i % 3) as usize]),
            Value::from_str_(["F", "O"][(i % 2) as usize]),
            Value::Int(1800 + (i % 700)),
        ])
    }

    #[test]
    fn round_trip_preserves_rows_and_sizes() {
        let rows: Vec<Value> = (0..50).map(lineitem).collect();
        let batch = ColumnBatch::from_rows(&rows).expect("homogeneous rows encode");
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(
            batch.payload_bytes(),
            rows.iter().map(Value::size_bytes).sum::<u64>()
        );
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(batch.size_at(i), r.size_bytes());
            assert_eq!(batch.value_at(i), *r);
        }
    }

    #[test]
    fn heterogeneous_rows_refuse_to_encode() {
        let rows = vec![Value::Int(1), Value::Float(2.0)];
        assert!(ColumnBatch::from_rows(&rows).is_none());
        assert!(ColumnBatch::from_rows(&[]).is_none());
        let nested = vec![Value::list(vec![Value::list(vec![Value::Int(1)])])];
        assert!(ColumnBatch::from_rows(&nested).is_none());
    }

    #[test]
    fn pair_batches_encode_key_and_payload() {
        let rows: Vec<Value> = (0..20)
            .map(|i| {
                Value::pair(
                    Value::Int(i % 4),
                    Value::list(vec![Value::vector(vec![i as f64; 3]), Value::Int(1)]),
                )
            })
            .collect();
        let batch = ColumnBatch::from_rows(&rows).expect("pair rows encode");
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(
            batch.payload_bytes(),
            rows.iter().map(Value::size_bytes).sum::<u64>()
        );
    }

    #[test]
    fn filter_kernel_matches_row_path() {
        let rows: Vec<Value> = (0..200).map(lineitem).collect();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let pred = PredKernel::And(vec![
            PredKernel::IntInRange {
                field: 6,
                lo: 1900,
                hi: 2265,
            },
            PredKernel::FloatLt {
                field: 1,
                max: 24.0,
            },
        ]);
        let got = pred.filter_batch(&batch).expect("typed fields present");
        let want: Vec<Value> = rows
            .iter()
            .filter(|v| pred.eval_value(v))
            .cloned()
            .collect();
        assert_eq!(got.to_rows(), want);
    }

    #[test]
    fn map_kernel_matches_row_path() {
        let rows: Vec<Value> = (0..100).map(lineitem).collect();
        let batch = Arc::new(ColumnBatch::from_rows(&rows).unwrap());
        let kernel = MapKernel::Pair {
            key: KeyExpr::PairOfFields(4, 5),
            val: PayloadExpr::List(vec![
                ScalarExpr::Num(NumExpr::Field(1)),
                ScalarExpr::Num(NumExpr::Mul(
                    Box::new(NumExpr::Field(2)),
                    Box::new(NumExpr::Sub(
                        Box::new(NumExpr::Lit(1.0)),
                        Box::new(NumExpr::Field(3)),
                    )),
                )),
                ScalarExpr::IntLit(1),
            ]),
        };
        let got = kernel.eval_batch(&batch).expect("typed fields present");
        let want: Vec<Value> = rows.iter().map(|v| kernel.eval_value(v).unwrap()).collect();
        assert_eq!(got.to_rows(), want);
    }

    #[test]
    fn identity_kernel_hands_the_batch_on_in_any_layout() {
        // List rows encode to the `Rows` layout, which `ScalarExpr::Input`
        // cannot express as a single column; the pass-through needs none.
        let rows: Vec<Value> = (0..10).map(lineitem).collect();
        let batch = Arc::new(ColumnBatch::from_rows(&rows).unwrap());
        let kernel = MapKernel::Scalar(ScalarExpr::Input);
        let out = kernel.eval_batch(&batch).expect("identity never declines");
        assert!(Arc::ptr_eq(&out, &batch));
        let want: Vec<Value> = rows.iter().map(|v| kernel.eval_value(v).unwrap()).collect();
        assert_eq!(out.to_rows(), want);
    }

    #[test]
    fn typed_agg_matches_btreemap_reference() {
        let rows: Vec<Value> = (0..300)
            .map(|i| {
                Value::pair(
                    Value::from_str_(["A", "N", "R"][(i % 3) as usize]),
                    Value::Float(i as f64 * 0.25),
                )
            })
            .collect();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let (key, val) = match &batch {
            ColumnBatch::Pair { key, val } => (key, val.as_ref()),
            _ => panic!("pair batch"),
        };
        let kernel = AggKernel::SumFloat;
        let got = typed_agg(&kernel, &[(key, val)]).expect("typed layout");
        // Reference: the row path's BTreeMap<Value, Value> walk.
        let mut m: BTreeMap<Value, Value> = BTreeMap::new();
        for r in &rows {
            let (k, v) = (r.key().unwrap().clone(), r.val().unwrap().clone());
            match m.get_mut(&k) {
                Some(acc) => *acc = kernel.combine_values(acc, &v),
                None => {
                    m.insert(k, v);
                }
            }
        }
        let want: Vec<Value> = m.into_iter().map(|(k, v)| Value::pair(k, v)).collect();
        assert_eq!(got.to_rows(), want);
    }

    /// `typed_agg` as it was when every key type went through a
    /// `BTreeMap`, transcribed: the reference for the sort fold, and for
    /// the string keys that still take the tree.
    fn tree_agg(kernel: &AggKernel, chunks: &[(&Column, &ColumnBatch)]) -> Option<ColumnBatch> {
        fn run<K: Ord + Clone>(
            kernel: &AggKernel,
            chunks: &[(&Column, &ColumnBatch)],
            key_at: impl Fn(&Column, usize) -> K,
            key_col: impl Fn(Vec<K>) -> Column,
        ) -> ColumnBatch {
            let mut acc: BTreeMap<K, AggState> = BTreeMap::new();
            for (keys, vals) in chunks {
                for i in 0..keys.len() {
                    let k = key_at(keys, i);
                    match acc.get_mut(&k) {
                        Some(st) => kernel.fold(st, vals, i),
                        None => {
                            acc.insert(k, kernel.init(vals, i));
                        }
                    }
                }
            }
            let (keys, states) = acc.into_iter().unzip();
            ColumnBatch::Pair {
                key: key_col(keys),
                val: Box::new(kernel.emit_columns(states)),
            }
        }

        let first_key = chunks.first()?.0;
        for (keys, vals) in chunks {
            if !kernel.accepts(vals)
                || keys.len() != vals.len()
                || std::mem::discriminant(*keys) != std::mem::discriminant(first_key)
            {
                return None;
            }
        }
        Some(match first_key {
            Column::Int(_) => run(
                kernel,
                chunks,
                |c, i| match c {
                    Column::Int(v) => v[i],
                    _ => unreachable!(),
                },
                Column::Int,
            ),
            Column::Float(_) => run(
                kernel,
                chunks,
                |c, i| match c {
                    Column::Float(v) => TotalF64(v[i]),
                    _ => unreachable!(),
                },
                |ks| Column::Float(ks.into_iter().map(|k| k.0).collect()),
            ),
            Column::Str(_) => run(
                kernel,
                chunks,
                |c, i| match c {
                    Column::Str(v) => Arc::clone(&v[i]),
                    _ => unreachable!(),
                },
                Column::Str,
            ),
            Column::StrPair(_) => run(
                kernel,
                chunks,
                |c, i| match c {
                    Column::StrPair(v) => (Arc::clone(&v[i].0), Arc::clone(&v[i].1)),
                    _ => unreachable!(),
                },
                Column::StrPair,
            ),
            Column::Vector(_) => return None,
        })
    }

    /// Records with every float spelled as its bits, so `-0.0`, `0.0` and
    /// each NaN stay distinct and a NaN equals itself.
    fn bits(v: &Value) -> String {
        match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            Value::Vector(x) => format!("{:x?}", x.iter().map(|f| f.to_bits()).collect::<Vec<_>>()),
            Value::Pair(p) => format!("({} -> {})", bits(p.key()), bits(p.val())),
            Value::List(l) => format!("[{}]", l.iter().map(bits).collect::<Vec<_>>().join(", ")),
            other => format!("{other:?}"),
        }
    }

    const INT_KEYS: [i64; 6] = [i64::MIN, -1, 0, 1, 7, i64::MAX];
    const STR_KEYS: [&str; 4] = ["", "a", "ab", "b"];

    /// Few keys, so they repeat within and across chunks; float keys
    /// include both zeros, two NaNs that differ in sign, and infinities.
    fn key_column(kind: usize, picks: &[usize]) -> Column {
        let float_keys = [-0.0, 0.0, f64::NAN, -f64::NAN, 1.5, f64::INFINITY, -2.5e300];
        let s = |i: usize| -> Arc<str> { STR_KEYS[i % STR_KEYS.len()].into() };
        match kind {
            0 => Column::Int(
                picks
                    .iter()
                    .map(|&i| INT_KEYS[i % INT_KEYS.len()])
                    .collect(),
            ),
            1 => Column::Float(
                picks
                    .iter()
                    .map(|&i| float_keys[i % float_keys.len()])
                    .collect(),
            ),
            2 => Column::Str(picks.iter().map(|&i| s(i)).collect()),
            _ => Column::StrPair(
                picks
                    .iter()
                    .map(|&i| (s(i), s(i / STR_KEYS.len())))
                    .collect(),
            ),
        }
    }

    /// One record's worth of payload for any kernel: a float, a small
    /// count, a short vector (lengths differ, so the zip truncates).
    type Payload = (f64, i64, Vec<f64>);

    fn payload_batch(kernel: &AggKernel, recs: &[(usize, Payload)]) -> ColumnBatch {
        let floats = || Column::Float(recs.iter().map(|(_, p)| p.0).collect());
        let counts = || Column::Int(recs.iter().map(|(_, p)| p.1).collect());
        match kernel {
            AggKernel::SumFloat => ColumnBatch::Scalar(floats()),
            AggKernel::SumRow(_) => ColumnBatch::Rows(vec![floats(), counts()]),
            AggKernel::VecSumCount => ColumnBatch::Rows(vec![
                Column::Vector(recs.iter().map(|(_, p)| Arc::new(p.2.clone())).collect()),
                counts(),
            ]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sort fold (fixed-width keys) and the tree fold (string
        /// keys) emit what the all-tree `typed_agg` did: same keys in the
        /// same order, every sum bit for bit — duplicate keys across
        /// chunks, extreme and non-finite keys, empty chunks and all.
        #[test]
        fn typed_agg_matches_the_tree_reference(
            key_kind in 0usize..4,
            kernel in prop_oneof![
                Just(AggKernel::SumFloat),
                Just(AggKernel::SumRow(vec![AggField::Float, AggField::Int])),
                Just(AggKernel::VecSumCount),
            ],
            chunks in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0usize..28,
                        (any::<f64>(), -1000i64..1000, proptest::collection::vec(any::<f64>(), 0..4)),
                    ),
                    0..24,
                ),
                0..6,
            ),
        ) {
            let cols: Vec<(Column, ColumnBatch)> = chunks
                .iter()
                .map(|recs| {
                    let picks: Vec<usize> = recs.iter().map(|(k, _)| *k).collect();
                    (key_column(key_kind, &picks), payload_batch(&kernel, recs))
                })
                .collect();
            let views: Vec<(&Column, &ColumnBatch)> = cols.iter().map(|(k, v)| (k, v)).collect();
            let got = typed_agg(&kernel, &views).map(|b| b.to_rows());
            let want = tree_agg(&kernel, &views).map(|b| b.to_rows());
            prop_assert_eq!(got.is_some(), !chunks.is_empty());
            prop_assert_eq!(
                got.map(|rows| rows.iter().map(bits).collect::<Vec<_>>()),
                want.map(|rows| rows.iter().map(bits).collect::<Vec<_>>())
            );
        }
    }

    /// Key bit patterns a radix image can get wrong, drawn often so they
    /// repeat: both `i64` extremes and the values around a byte edge.
    const HOSTILE_I64: [i64; 8] = [i64::MIN, i64::MAX, -1, 0, 1, -256, 255, 256];
    /// The same for `f64`: both zeros, NaNs of both signs with two
    /// payloads each, both infinities and subnormals of both signs.
    const HOSTILE_F64: [u64; 12] = [
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0xfff8_0000_0000_0000,
        0x7ff0_0000_0000_0001,
        0xfff0_0000_0000_0001,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x000f_ffff_ffff_ffff,
        0x8000_0000_0000_0001,
    ];

    /// Sorts `(key, chunk, row)` records in arrival order the way
    /// `fold_by_sort` did before (`sort_by` on `cmp`) and by the radix
    /// sort on `image`, and asserts both give the same `(chunk, row)`
    /// permutation and that `image` orders adjacent keys as `cmp` does.
    fn assert_same_order<K: Copy>(
        keys: &[K],
        cmp: impl Fn(&K, &K) -> Ordering,
        image: impl Fn(K) -> u64,
    ) {
        let recs: Vec<(K, u32, u32)> = (0u32..)
            .zip(keys)
            .map(|(i, &k)| (k, i / 64, i % 64))
            .collect();
        let mut want = recs.clone();
        want.sort_by(|a, b| cmp(&a.0, &b.0));
        for w in want.windows(2) {
            assert_eq!(image(w[0].0).cmp(&image(w[1].0)), cmp(&w[0].0, &w[1].0));
        }
        let mut got = recs;
        radix_sort(&mut got, |r| image(r.0));
        let perm = |v: &[(K, u32, u32)]| v.iter().map(|&(_, c, r)| (c, r)).collect::<Vec<_>>();
        assert_eq!(perm(&got), perm(&want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The radix sort is the stable comparison sort it replaced: the
        /// same permutation of `(key, chunk, row)` for `i64` and
        /// total-order `f64` keys, and its images order adjacent keys
        /// exactly as the comparison does. Shapes: hostile constants mixed
        /// with any pattern, a handful of small keys repeated many times,
        /// every key equal (no byte varies, so no pass runs), and keys
        /// that differ only in the top byte; 0, 1, a few, and over 256
        /// records.
        #[test]
        fn radix_order_is_the_stable_sort(
            float in proptest::bool::ANY,
            shape in 0usize..4,
            draws in prop_oneof![
                proptest::collection::vec((0usize..20, any::<u64>()), 0..2),
                proptest::collection::vec((0usize..20, any::<u64>()), 2..64),
                proptest::collection::vec((0usize..20, any::<u64>()), 257..700),
            ],
        ) {
            let hostile = |pick: usize, raw: u64| match float {
                false => HOSTILE_I64.get(pick).map_or(raw, |&k| k as u64),
                true => HOSTILE_F64.get(pick).copied().unwrap_or(raw),
            };
            let first = draws.first().map_or(0, |&(pick, raw)| hostile(pick, raw));
            let small = |raw: u64| match float {
                false => ((raw % 7) as i64 - 3) as u64,
                true => ((raw % 7) as f64 - 3.0).to_bits(),
            };
            let bits: Vec<u64> = draws
                .iter()
                .map(|&(pick, raw)| match shape {
                    0 => hostile(pick, raw),
                    1 => small(raw),
                    2 => first,
                    _ => (first & !(0xff << 56)) | (raw & 0xff) << 56,
                })
                .collect();
            if float {
                let keys: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
                assert_same_order(&keys, f64::total_cmp, radix_key_f64);
            } else {
                let keys: Vec<i64> = bits.iter().map(|&b| b as i64).collect();
                assert_same_order(&keys, i64::cmp, radix_key_i64);
            }
        }
    }

    #[test]
    fn nearest_center_kernel_matches_row_path() {
        let centers = Arc::new(vec![vec![0.0, 0.0], vec![10.0, 10.0], vec![0.0, 10.0]]);
        let rows: Vec<Value> = (0..60)
            .map(|i| Value::vector(vec![(i % 12) as f64, (i % 7) as f64]))
            .collect();
        let batch = Arc::new(ColumnBatch::from_rows(&rows).unwrap());
        let kernel = MapKernel::NearestCenter { centers };
        let got = kernel.eval_batch(&batch).expect("vector column");
        let want: Vec<Value> = rows.iter().filter_map(|v| kernel.eval_value(v)).collect();
        assert_eq!(got.to_rows(), want);
    }
}
