//! A typed facade over the dynamic RDD core.
//!
//! The engine's internals are dynamically typed ([`Value`]) so the
//! lineage graph stays homogeneous and recovery is generic. For user
//! code, this module offers a compile-time-typed view: a [`Dataset<T>`]
//! wraps an RDD whose records encode a `T`, and transformations take
//! ordinary Rust closures over `T`.
//!
//! # Examples
//!
//! ```
//! use flint_engine::{Dataset, Driver};
//!
//! let mut driver = Driver::local(4);
//! let nums: Dataset<i64> = Dataset::from_iter(driver.ctx(), 0..100, 8);
//! let pairs = nums.map(driver.ctx(), |n| (n % 7, 1i64));
//! let counts = pairs.reduce_by_key(driver.ctx(), 4, |a, b| a + b);
//! let mut out = counts.collect(&mut driver).unwrap();
//! out.sort();
//! assert_eq!(out.len(), 7);
//! assert_eq!(out.iter().map(|(_, c)| c).sum::<i64>(), 100);
//! ```

use std::marker::PhantomData;

use crate::context::EngineContext;
use crate::driver::Driver;
use crate::error::Result;
use crate::rdd::RddRef;
use crate::value::Value;

/// A Rust type with a stable encoding into the engine's [`Value`] datum.
pub trait Datum: Sized + Send + Sync + 'static {
    /// Encodes `self` into a [`Value`].
    fn encode(self) -> Value;
    /// Decodes a [`Value`] back; `None` on a type mismatch.
    fn decode(v: &Value) -> Option<Self>;
}

impl Datum for i64 {
    fn encode(self) -> Value {
        Value::Int(self)
    }
    fn decode(v: &Value) -> Option<Self> {
        v.as_i64()
    }
}

impl Datum for f64 {
    fn encode(self) -> Value {
        Value::Float(self)
    }
    fn decode(v: &Value) -> Option<Self> {
        v.as_f64()
    }
}

impl Datum for bool {
    fn encode(self) -> Value {
        Value::Bool(self)
    }
    fn decode(v: &Value) -> Option<Self> {
        v.as_bool()
    }
}

impl Datum for String {
    fn encode(self) -> Value {
        Value::from_str_(&self)
    }
    fn decode(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl<K: Datum, V: Datum> Datum for (K, V) {
    fn encode(self) -> Value {
        Value::pair(self.0.encode(), self.1.encode())
    }
    fn decode(v: &Value) -> Option<Self> {
        let k = K::decode(v.key()?)?;
        let val = V::decode(v.val()?)?;
        Some((k, val))
    }
}

impl<T: Datum> Datum for Vec<T> {
    fn encode(self) -> Value {
        Value::list(self.into_iter().map(Datum::encode).collect())
    }
    fn decode(v: &Value) -> Option<Self> {
        v.as_list()?.iter().map(T::decode).collect()
    }
}

/// Decodes or panics with a diagnosable message: a decode failure in a
/// typed pipeline is a programming error (the lineage holds records of a
/// different shape than the `Dataset`'s type parameter claims).
fn decode_or_panic<T: Datum>(v: &Value) -> T {
    T::decode(v).unwrap_or_else(|| {
        panic!(
            "typed dataset decode failure: record {v} does not match {}",
            std::any::type_name::<T>()
        )
    })
}

/// A typed view of an RDD.
///
/// `Dataset<T>` is a zero-cost wrapper: it stores only the RDD handle.
/// Transformations borrow the [`EngineContext`]; actions borrow the
/// [`Driver`].
///
/// # Panics
///
/// Actions and downstream transformations panic if the underlying
/// records do not decode as `T` (a type-confusion bug in user code, not
/// a data error).
#[derive(Debug)]
pub struct Dataset<T> {
    rdd: RddRef,
    _t: PhantomData<fn() -> T>,
}

// Manual impls: `Dataset` is Copy regardless of `T`.
impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Dataset<T> {}

impl<T: Datum> Dataset<T> {
    /// Wraps an untyped RDD the caller knows to contain `T`-encoded
    /// records.
    pub(crate) fn from_rdd(rdd: RddRef) -> Self {
        Dataset {
            rdd,
            _t: PhantomData,
        }
    }

    /// Creates a typed source dataset.
    pub fn from_iter(
        ctx: &mut EngineContext,
        data: impl IntoIterator<Item = T>,
        parts: u32,
    ) -> Self {
        let rdd = ctx.parallelize(data.into_iter().map(Datum::encode), parts);
        Dataset::from_rdd(rdd)
    }

    /// Element-wise transformation.
    pub fn map<U: Datum>(
        self,
        ctx: &mut EngineContext,
        f: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> Dataset<U> {
        let rdd = ctx.map(self.rdd, move |v| f(decode_or_panic::<T>(v)).encode());
        Dataset::from_rdd(rdd)
    }

    /// Concatenates two datasets.
    pub fn union(self, ctx: &mut EngineContext, other: Dataset<T>) -> Dataset<T> {
        Dataset::from_rdd(ctx.union(self.rdd, other.rdd))
    }

    /// Marks the dataset for in-memory caching across jobs.
    pub fn persist(self, ctx: &mut EngineContext) -> Dataset<T> {
        ctx.persist(self.rdd);
        self
    }

    /// Materializes and returns all elements in partition order.
    pub fn collect(self, driver: &mut Driver) -> Result<Vec<T>> {
        Ok(driver
            .collect(self.rdd)?
            .iter()
            .map(decode_or_panic::<T>)
            .collect())
    }

    /// Materializes and counts elements.
    pub fn count(self, driver: &mut Driver) -> Result<u64> {
        driver.count(self.rdd)
    }
}

impl<K: Datum, V: Datum> Dataset<(K, V)> {
    /// Aggregates by key with an associative combiner (map-side combined,
    /// like Spark's `reduceByKey`).
    pub fn reduce_by_key(
        self,
        ctx: &mut EngineContext,
        parts: u32,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Dataset<(K, V)> {
        let rdd = ctx.reduce_by_key(self.rdd, parts, move |a, b| {
            f(decode_or_panic::<V>(a), decode_or_panic::<V>(b)).encode()
        });
        Dataset::from_rdd(rdd)
    }
}

impl Datum for Value {
    fn encode(self) -> Value {
        self
    }
    fn decode(v: &Value) -> Option<Self> {
        Some(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_word_count() {
        let mut d = Driver::local(3);
        let words = Dataset::from_iter(
            d.ctx(),
            ["a", "b", "a", "c", "a"].iter().map(|s| s.to_string()),
            2,
        );
        let counts = words
            .map(d.ctx(), |w| (w, 1i64))
            .reduce_by_key(d.ctx(), 2, |a, b| a + b);
        let mut out = counts.collect(&mut d).unwrap();
        out.sort();
        assert_eq!(out, vec![("a".into(), 3), ("b".into(), 1), ("c".into(), 1)]);
    }

    #[test]
    #[should_panic(expected = "typed dataset decode failure")]
    fn type_confusion_panics() {
        let mut d = Driver::local(1);
        let nums = Dataset::<i64>::from_iter(d.ctx(), 0..5, 1);
        // Reinterpret as strings: decoding must fail loudly.
        let lied: Dataset<String> = Dataset::from_rdd(nums.rdd);
        let _ = lied.collect(&mut d);
    }

    #[test]
    fn typed_union_and_take() {
        let mut d = Driver::local(2);
        let a = Dataset::from_iter(d.ctx(), 0i64..5, 1);
        let b = Dataset::from_iter(d.ctx(), 5i64..10, 1);
        let u = a.union(d.ctx(), b).persist(d.ctx());
        assert_eq!(u.count(&mut d).unwrap(), 10);
    }
}
