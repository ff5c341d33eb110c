//! The dynamic datum type flowing through the engine.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A dynamically-typed record.
///
/// Using one datum type keeps the lineage graph homogeneous (any RDD is a
/// collection of `Value`s regardless of the logical schema), which is what
/// lets the scheduler recompute *any* lost partition generically. Keyed
/// operations (`reduce_by_key`, `join`, `sort_by_key`) interpret records
/// as [`Value::Pair`]s.
///
/// `Value` implements total equality, ordering, and hashing — floats
/// compare and hash by their IEEE total order, so values can serve as
/// shuffle keys.
///
/// Every variant clones in O(1): compound values (`Pair`, `List`,
/// `Vector`, `Str`) are `Arc`-backed, so cloning a record anywhere in the
/// engine is a refcount bump, never a structural copy. Records are
/// immutable once constructed — sharing is always safe.
///
/// # Examples
///
/// ```
/// use flint_engine::Value;
///
/// let pair = Value::pair(Value::from_str_("page-7"), Value::from_f64(0.15));
/// assert_eq!(pair.key().unwrap().as_str().unwrap(), "page-7");
/// assert_eq!(pair.val().unwrap().as_f64().unwrap(), 0.15);
/// ```
#[derive(Debug, Clone)]
pub enum Value {
    /// The absent value.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// An immutable string.
    Str(Arc<str>),
    /// A key/value pair (the unit of keyed operations).
    Pair(Arc<PairVal>),
    /// A dense numeric vector (feature vectors, rank vectors).
    Vector(Arc<Vec<f64>>),
    /// A heterogeneous list (grouped values, adjacency lists, rows).
    List(Arc<ListVal>),
}

/// The shared payload of a [`Value::Pair`]: both halves plus the pair's
/// virtual size, computed once at construction so sizing never re-walks
/// the tree.
#[derive(Debug)]
pub struct PairVal {
    key: Value,
    val: Value,
    size: u64,
}

impl PairVal {
    fn new(key: Value, val: Value) -> Self {
        let size = 16 + key.size_bytes() + val.size_bytes();
        PairVal { key, val, size }
    }

    /// The key half.
    pub fn key(&self) -> &Value {
        &self.key
    }

    /// The value half.
    pub fn val(&self) -> &Value {
        &self.val
    }
}

/// The shared payload of a [`Value::List`]: the items plus the list's
/// virtual size, computed once at construction. Dereferences to the
/// item slice.
#[derive(Debug)]
pub struct ListVal {
    items: Vec<Value>,
    size: u64,
}

impl ListVal {
    fn new(items: Vec<Value>) -> Self {
        let size = 24 + items.iter().map(Value::size_bytes).sum::<u64>();
        ListVal { items, size }
    }

    /// The list items.
    pub fn items(&self) -> &[Value] {
        &self.items
    }
}

impl Deref for ListVal {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.items
    }
}

impl Value {
    /// Creates an `Int` value.
    pub fn from_i64(v: i64) -> Value {
        Value::Int(v)
    }

    /// Creates a `Float` value.
    pub fn from_f64(v: f64) -> Value {
        Value::Float(v)
    }

    /// Creates a `Str` value. (Named with a trailing underscore to avoid
    /// colliding with the `FromStr` trait method.)
    pub fn from_str_(v: &str) -> Value {
        Value::Str(Arc::from(v))
    }

    /// Creates a `Bool` value.
    pub fn from_bool(v: bool) -> Value {
        Value::Bool(v)
    }

    /// Creates a `Pair`.
    pub fn pair(k: Value, v: Value) -> Value {
        Value::Pair(Arc::new(PairVal::new(k, v)))
    }

    /// Creates a `Vector`.
    pub fn vector(v: Vec<f64>) -> Value {
        Value::Vector(Arc::new(v))
    }

    /// Creates a `List`.
    pub fn list(v: Vec<Value>) -> Value {
        Value::List(Arc::new(ListVal::new(v)))
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, if this is a `Float` (or `Int`, widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the vector payload, if this is a `Vector`.
    pub fn as_vector(&self) -> Option<&[f64]> {
        match self {
            Value::Vector(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v.items()),
            _ => None,
        }
    }

    /// Returns the key of a `Pair`.
    pub fn key(&self) -> Option<&Value> {
        match self {
            Value::Pair(p) => Some(p.key()),
            _ => None,
        }
    }

    /// Returns the value of a `Pair`.
    pub fn val(&self) -> Option<&Value> {
        match self {
            Value::Pair(p) => Some(p.val()),
            _ => None,
        }
    }

    /// Consumes a `Pair`, returning its parts. O(1) whether or not the
    /// pair is shared — a shared pair hands out refcount-bumped halves.
    pub fn into_pair(self) -> Option<(Value, Value)> {
        match self {
            Value::Pair(p) => match Arc::try_unwrap(p) {
                Ok(pv) => Some((pv.key, pv.val)),
                Err(p) => Some((p.key.clone(), p.val.clone())),
            },
            _ => None,
        }
    }

    /// Estimated in-memory footprint in bytes.
    ///
    /// This drives the engine's virtual sizing (cache pressure, checkpoint
    /// durations). It is an estimate in the same spirit as Spark's
    /// `SizeEstimator`, and it is *virtual*: the formula describes the
    /// logical record (`16 + key + value` for pairs, `24 + Σ items` for
    /// lists), independent of how the in-process representation shares
    /// structure. Compound sizes are memoized at construction, so this is
    /// O(1) for every variant.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Value::Null => 8,
            Value::Bool(_) => 8,
            Value::Int(_) => 16,
            Value::Float(_) => 16,
            Value::Str(s) => 24 + s.len() as u64,
            Value::Pair(p) => p.size,
            Value::Vector(v) => 24 + 8 * v.len() as u64,
            Value::List(v) => v.size,
        }
    }

    fn discriminant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Pair(..) => 5,
            Value::Vector(_) => 6,
            Value::List(_) => 7,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Cross-numeric comparison so Int and Float keys interoperate.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Pair(a), Pair(b)) => {
                // Shared handles are the same logical value (sound for a
                // total order: cmp(x, x) == Equal).
                if Arc::ptr_eq(a, b) {
                    return Ordering::Equal;
                }
                a.key().cmp(b.key()).then_with(|| a.val().cmp(b.val()))
            }
            (Vector(a), Vector(b)) => {
                if Arc::ptr_eq(a, b) {
                    return Ordering::Equal;
                }
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.total_cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (List(a), List(b)) => {
                if Arc::ptr_eq(a, b) {
                    return Ordering::Equal;
                }
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => self.discriminant_rank().cmp(&other.discriminant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash identically when numerically equal
            // integers, matching the Ord cross-numeric rule.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Pair(p) => {
                5u8.hash(state);
                p.key().hash(state);
                p.val().hash(state);
            }
            Value::Vector(v) => {
                6u8.hash(state);
                for f in v.iter() {
                    f.to_bits().hash(state);
                }
            }
            Value::List(v) => {
                7u8.hash(state);
                for x in v.iter() {
                    x.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Pair(p) => write!(f, "({}, {})", p.key(), p.val()),
            Value::Vector(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::List(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// The FNV-1a hasher behind [`stable_hash`]. Only `write` is
/// implemented; integer writes go through the default `Hasher` methods
/// (native-endian bytes), so any caller making the same sequence of
/// `Hash` trait calls produces the same digest.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// A deterministic 64-bit hash of a value, stable across runs and
/// platforms (FNV-1a over the value structure). Used for hash
/// partitioning so shuffle placement never depends on `std`'s randomized
/// hasher.
pub(crate) fn stable_hash(v: &Value) -> u64 {
    let mut h = Fnv::new();
    v.hash(&mut h);
    h.finish()
}

/// [`stable_hash`] of `Value::Int(i)` without constructing the value:
/// replays the exact `Hash` calls of the `Int` arm (tag byte `2`, then
/// the float-widened bit pattern, matching the Int/Float hash unification).
pub(crate) fn stable_hash_int(i: i64) -> u64 {
    let mut h = Fnv::new();
    2u8.hash(&mut h);
    (i as f64).to_bits().hash(&mut h);
    h.finish()
}

/// [`stable_hash`] of `Value::Float(f)` without constructing the value.
pub(crate) fn stable_hash_float(f: f64) -> u64 {
    let mut h = Fnv::new();
    2u8.hash(&mut h);
    f.to_bits().hash(&mut h);
    h.finish()
}

/// [`stable_hash`] of `Value::Str(s)` without constructing the value.
pub(crate) fn stable_hash_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    4u8.hash(&mut h);
    s.hash(&mut h);
    h.finish()
}

/// [`stable_hash`] of `Value::pair(Value::Str(k), Value::Str(v))`
/// without constructing the pair (TPC-H composite string keys).
pub(crate) fn stable_hash_str_pair(k: &str, v: &str) -> u64 {
    let mut h = Fnv::new();
    5u8.hash(&mut h);
    4u8.hash(&mut h);
    k.hash(&mut h);
    4u8.hash(&mut h);
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn accessors_round_trip() {
        assert_eq!(Value::from_i64(7).as_i64(), Some(7));
        assert_eq!(Value::from_f64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from_i64(7).as_f64(), Some(7.0));
        assert_eq!(Value::from_str_("x").as_str(), Some("x"));
        assert_eq!(Value::from_bool(true).as_bool(), Some(true));
        assert_eq!(Value::vector(vec![1.0]).as_vector(), Some(&[1.0][..]));
        let p = Value::pair(Value::from_i64(1), Value::from_i64(2));
        assert_eq!(p.into_pair(), Some((Value::Int(1), Value::Int(2))));
        assert_eq!(Value::Null.as_i64(), None);
    }

    #[test]
    fn equality_crosses_numeric_types() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn values_usable_as_hashmap_keys() {
        let mut m: HashMap<Value, i32> = HashMap::new();
        m.insert(Value::from_str_("a"), 1);
        m.insert(Value::Int(3), 2);
        // Numerically-equal float key must collide with the int key.
        assert_eq!(m.get(&Value::Float(3.0)), Some(&2));
        assert_eq!(m.get(&Value::from_str_("a")), Some(&1));
    }

    #[test]
    fn ordering_is_total_even_with_nan() {
        let mut vs = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(-1.0),
            Value::Float(f64::NAN),
        ];
        vs.sort(); // must not panic
        assert_eq!(vs[0], Value::Float(-1.0));
    }

    #[test]
    fn ordering_across_types_uses_rank() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(i64::MIN));
        assert!(Value::from_str_("zzz") < Value::pair(Value::Null, Value::Null));
    }

    #[test]
    fn list_and_vector_lexicographic_order() {
        assert!(Value::vector(vec![1.0, 2.0]) < Value::vector(vec![1.0, 3.0]));
        assert!(Value::vector(vec![1.0]) < Value::vector(vec![1.0, 0.0]));
        assert!(Value::list(vec![Value::Int(1)]) < Value::list(vec![Value::Int(1), Value::Int(0)]));
    }

    #[test]
    fn size_estimates_are_monotone() {
        let small = Value::from_str_("ab").size_bytes();
        let big = Value::from_str_("abcdefgh").size_bytes();
        assert!(big > small);
        let v = Value::vector(vec![0.0; 100]);
        assert!(v.size_bytes() > 800);
    }

    #[test]
    fn memoized_sizes_match_the_recursive_formula() {
        // Leaf sizes.
        assert_eq!(Value::Null.size_bytes(), 8);
        assert_eq!(Value::Bool(true).size_bytes(), 8);
        assert_eq!(Value::Int(0).size_bytes(), 16);
        assert_eq!(Value::Float(0.0).size_bytes(), 16);
        assert_eq!(Value::from_str_("abc").size_bytes(), 24 + 3);
        assert_eq!(Value::vector(vec![0.0; 4]).size_bytes(), 24 + 32);
        // Pair: 16 + k + v, computed once at construction.
        let p = Value::pair(Value::Int(1), Value::from_str_("ab"));
        assert_eq!(p.size_bytes(), 16 + 16 + 26);
        // List: 24 + Σ, nested compounds fold in their memoized sizes.
        let l = Value::list(vec![p.clone(), Value::Null]);
        assert_eq!(l.size_bytes(), 24 + 58 + 8);
        // Sharing does not change the virtual size.
        assert_eq!(p.clone().size_bytes(), p.size_bytes());
    }

    #[test]
    fn clones_share_structure() {
        let p = Value::pair(Value::from_str_("k"), Value::list(vec![Value::Int(1)]));
        let q = p.clone();
        match (&p, &q) {
            (Value::Pair(a), Value::Pair(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected pairs"),
        }
        // A shared pair still hands out its halves.
        let (k, v) = q.into_pair().unwrap();
        assert_eq!(k.as_str(), Some("k"));
        assert_eq!(v.as_list().map(<[Value]>::len), Some(1));
        // And an unshared one moves them out.
        drop(p);
        let sole = Value::pair(Value::Int(1), Value::Int(2));
        assert_eq!(sole.into_pair(), Some((Value::Int(1), Value::Int(2))));
    }

    #[test]
    fn stable_hash_is_stable_and_spread() {
        let a = stable_hash(&Value::from_str_("key-1"));
        let b = stable_hash(&Value::from_str_("key-2"));
        assert_ne!(a, b);
        assert_eq!(a, stable_hash(&Value::from_str_("key-1")));
        // Int/Float consistency mirrors Eq.
        assert_eq!(stable_hash(&Value::Int(5)), stable_hash(&Value::Float(5.0)));
    }

    #[test]
    fn typed_hash_helpers_match_stable_hash() {
        for i in [-3i64, 0, 7, 1 << 40, i64::MAX, i64::MIN] {
            assert_eq!(stable_hash_int(i), stable_hash(&Value::Int(i)));
        }
        for f in [0.0f64, -1.5, f64::NAN, f64::INFINITY, 1e-300] {
            assert_eq!(stable_hash_float(f), stable_hash(&Value::Float(f)));
        }
        for s in ["", "a", "key-1", "payload-0000000000000042"] {
            assert_eq!(stable_hash_str(s), stable_hash(&Value::from_str_(s)));
        }
        for (k, v) in [("A", "F"), ("N", "O"), ("", "x")] {
            assert_eq!(
                stable_hash_str_pair(k, v),
                stable_hash(&Value::pair(Value::from_str_(k), Value::from_str_(v)))
            );
        }
    }

    #[test]
    fn display_formats() {
        let p = Value::pair(Value::from_str_("k"), Value::list(vec![Value::Int(1)]));
        assert_eq!(p.to_string(), "(\"k\", [1])");
        assert_eq!(Value::vector(vec![1.0, 2.0]).to_string(), "[1, 2]");
    }
}
