//! Per-worker block management: memory cache, disk spill, hard loss.

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::column::{ColumnBatch, ColumnCounters};
use crate::rdd::{PartitionData, RddId};
use crate::shuffle::{BucketedBlock, ShuffleId};
use crate::{Value, WorkerId};

/// Key of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockKey {
    /// A materialized RDD partition.
    RddPart {
        /// The RDD.
        rdd: RddId,
        /// The partition index.
        part: u32,
    },
    /// The map-side output of a shuffle for one map partition.
    ShuffleMap {
        /// The shuffle.
        shuffle: ShuffleId,
        /// The map partition index.
        map_part: u32,
    },
}

impl std::fmt::Display for BlockKey {
    /// Compact label used in trace events: `rdd(3:1)` / `shuffle(2:0)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockKey::RddPart { rdd, part } => write!(f, "rdd({}:{})", rdd.0, part),
            BlockKey::ShuffleMap { shuffle, map_part } => {
                write!(f, "shuffle({}:{})", shuffle.0, map_part)
            }
        }
    }
}

/// A hash map over the engine's own small fixed-width keys (block keys,
/// task keys, `(rdd, part)` pairs), hashed by [`KeyHasher`] instead of
/// SipHash.
///
/// For maps whose keys never come from outside the program and that are
/// never iterated where the order could reach an output, so neither hash
/// flooding nor an order that depends on the hasher can. Comparing two
/// such maps is fine: `HashMap` equality does not depend on the order.
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A multiply-rotate hasher for integer words: each word is added and
/// the state multiplied by an odd constant; `finish` rotates the
/// well-mixed high bits down to where `HashMap` takes its bucket index.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    // The engine's keys are `u32` ids behind enum discriminants.
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_isize(&mut self, i: isize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One record sequence — the payload of an RDD partition in flight, in a
/// cache, in the checkpoint store, or in one reduce bucket of a shuffle
/// map output — as row records or as the same records in typed columns.
///
/// Both forms decode to the same sequence and
/// [`ColumnBatch::size_at`] mirrors [`Value::size_bytes`] constant for
/// constant, so every size below — and with it eviction order, τ
/// estimation and checkpoint accounting — is a function of the records,
/// not of their layout. The form only selects the access path: kernels
/// and typed reducers take [`Records::batch`], everything else takes
/// `rows`, the engine's one decode, counted in
/// [`ColumnStats`](crate::ColumnStats).
#[derive(Debug, Clone, PartialEq)]
pub enum Records {
    /// `Arc`-shared row records.
    Rows(PartitionData),
    /// An `Arc`-shared columnar batch.
    Col(Arc<ColumnBatch>),
}

impl Records {
    /// Record count.
    pub fn len(&self) -> usize {
        match self {
            Records::Rows(d) => d.len(),
            Records::Col(b) => b.len(),
        }
    }

    /// `true` when there are no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes: the sum of every record's [`Value::size_bytes`].
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Records::Rows(d) => d.iter().map(Value::size_bytes).sum(),
            Records::Col(b) => b.payload_bytes(),
        }
    }

    /// Real size of a partition holding these records: the payload plus
    /// 16 bytes of fixed per-partition overhead.
    pub fn real_bytes(&self) -> u64 {
        self.payload_bytes() + 16
    }

    /// Byte-exact serialized checkpoint size, the framing of
    /// [`crate::checkpoint::wire_size`].
    pub fn wire_size(&self) -> u64 {
        framed_size(self.payload_bytes(), self.len())
    }

    /// The columnar batch, or `None` for row records.
    pub fn batch(&self) -> Option<&Arc<ColumnBatch>> {
        match self {
            Records::Col(b) => Some(b),
            Records::Rows(_) => None,
        }
    }

    /// The records in row form: a refcount bump for rows, a counted
    /// decode for a batch.
    pub(crate) fn rows(&self, column: &ColumnCounters) -> PartitionData {
        match self {
            Records::Rows(d) => Arc::clone(d),
            Records::Col(b) => Arc::new(column.decode(b)),
        }
    }

    /// The records in row form outside a run, where there is no
    /// [`ColumnStats`](crate::ColumnStats) to count a decode in (tests,
    /// tools).
    pub fn to_rows(&self) -> PartitionData {
        self.rows(&ColumnCounters::default())
    }
}

/// An 8-byte record count plus a 4-byte frame per record around the
/// payload: order- and form-independent.
fn framed_size(payload_bytes: u64, records: usize) -> u64 {
    8 + payload_bytes + 4 * records as u64
}

/// The payload of a cached or checkpointed block.
///
/// RDD partitions and range-shuffle map outputs are a `Part`: one record
/// sequence in production order. Hash-shuffle map outputs are `Bucketed`
/// by their map task, the only place that buckets. Both hold the record
/// multiset the task produced, so payload-byte and wire-size accounting
/// are identical; only the access path differs.
#[derive(Debug, Clone)]
pub enum BlockData {
    /// Records in production order.
    Part(Records),
    /// A hash-shuffle map output pre-partitioned into reduce buckets.
    Bucketed(Arc<BucketedBlock>),
}

impl BlockData {
    /// The record sequence, or `None` for a bucketed block (buckets
    /// reorder records, so there is no single production-order view).
    pub fn part(&self) -> Option<&Records> {
        match self {
            BlockData::Part(r) => Some(r),
            BlockData::Bucketed(_) => None,
        }
    }

    /// Record count.
    pub fn len(&self) -> usize {
        match self {
            BlockData::Part(r) => r.len(),
            BlockData::Bucketed(b) => b.len(),
        }
    }

    /// `true` when the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes: the sum of every record's [`Value::size_bytes`]
    /// (bucketing reorders records; it changes neither the multiset nor
    /// the size formula).
    pub(crate) fn payload_bytes(&self) -> u64 {
        match self {
            BlockData::Part(r) => r.payload_bytes(),
            BlockData::Bucketed(b) => b.payload_bytes(),
        }
    }

    /// Byte-exact serialized checkpoint size, the framing of
    /// [`crate::checkpoint::wire_size`].
    pub fn wire_size(&self) -> u64 {
        framed_size(self.payload_bytes(), self.len())
    }
}

impl From<Records> for BlockData {
    fn from(r: Records) -> Self {
        BlockData::Part(r)
    }
}

impl From<PartitionData> for BlockData {
    fn from(d: PartitionData) -> Self {
        Records::Rows(d).into()
    }
}

impl From<Arc<BucketedBlock>> for BlockData {
    fn from(b: Arc<BucketedBlock>) -> Self {
        BlockData::Bucketed(b)
    }
}

/// What one [`BlockManager::insert_traced`] call did to the cache:
/// which victims it displaced and whether the new block found a home.
/// The driver folds this into `CacheInsert`/`CacheSpill`/`CacheEvict`
/// trace events.
#[derive(Debug, Default, Clone)]
pub struct InsertOutcome {
    /// The inserted block was stored (memory or disk).
    pub stored: bool,
    /// `(victim, vbytes)` demoted memory → disk to make room.
    pub spilled: Vec<(BlockKey, u64)>,
    /// `(victim, vbytes)` dropped entirely (includes the inserted block
    /// itself when nothing could hold it).
    pub dropped: Vec<(BlockKey, u64)>,
}

/// Where a block currently lives on a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockLocation {
    /// In the worker's memory cache.
    Memory,
    /// Spilled to the worker's local disk.
    Disk,
}

#[derive(Debug, Clone)]
struct Block {
    data: BlockData,
    vbytes: u64,
    last_use: u64,
}

/// One storage tier (memory or disk): the block map plus an ordered
/// `(last_use, key)` index kept in exact sync with it, so the LRU victim
/// is an O(log n) `first()` lookup instead of a full map scan. Stamps
/// come from the manager's global clock and are unique, but the index
/// orders by `(last_use, key)` anyway — the same tie-break the old
/// linear `min_by_key` scan used, so eviction victims are identical.
#[derive(Debug, Clone, Default)]
struct Tier {
    map: HashMap<BlockKey, Block>,
    lru: BTreeSet<(u64, BlockKey)>,
    used: u64,
}

impl Tier {
    fn insert(&mut self, key: BlockKey, b: Block) {
        debug_assert!(!self.map.contains_key(&key), "caller removes first");
        self.lru.insert((b.last_use, key));
        self.used += b.vbytes;
        self.map.insert(key, b);
    }

    fn remove(&mut self, key: &BlockKey) -> Option<Block> {
        let b = self.map.remove(key)?;
        self.lru.remove(&(b.last_use, *key));
        self.used -= b.vbytes;
        Some(b)
    }

    /// Re-stamps `key` to `lu`, keeping the index in sync. Returns
    /// `true` if the block exists in this tier.
    fn touch(&mut self, key: &BlockKey, lu: u64) -> bool {
        let Some(b) = self.map.get_mut(key) else {
            return false;
        };
        self.lru.remove(&(b.last_use, *key));
        b.last_use = lu;
        self.lru.insert((lu, *key));
        true
    }

    /// The least-recently-used block: minimum `(last_use, key)`.
    fn lru_key(&self) -> Option<BlockKey> {
        self.lru.first().map(|(_, k)| *k)
    }

    fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
        self.used = 0;
    }
}

/// A single worker's block store: an LRU memory cache backed by local
/// disk, both of which vanish when the worker is revoked.
///
/// Capacities are in *virtual* bytes (real payload bytes × the cost
/// model's scale factor), so a scaled-down in-process dataset exerts
/// paper-scale memory pressure — this is what reproduces Figure 3.
#[derive(Debug, Clone)]
pub struct BlockManager {
    mem: Tier,
    disk: Tier,
    mem_capacity: u64,
    disk_capacity: u64,
    clock: u64,
    /// Cumulative virtual bytes spilled memory→disk.
    pub(crate) spilled_bytes: u64,
    /// Cumulative virtual bytes dropped entirely (cache + disk full).
    pub(crate) dropped_bytes: u64,
}

impl BlockManager {
    /// Creates a block manager with the given virtual capacities.
    pub fn new(mem_capacity: u64, disk_capacity: u64) -> Self {
        BlockManager {
            mem: Tier::default(),
            disk: Tier::default(),
            mem_capacity,
            disk_capacity,
            clock: 0,
            spilled_bytes: 0,
            dropped_bytes: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Inserts a block, evicting LRU blocks to disk (and dropping from
    /// disk) as needed. Returns `false` if the block itself could not be
    /// stored anywhere.
    pub fn insert(&mut self, key: BlockKey, data: impl Into<BlockData>, vbytes: u64) -> bool {
        self.insert_traced(key, data, vbytes).stored
    }

    /// [`BlockManager::insert`] with a full account of the cache churn
    /// it caused, so callers can trace spills and evictions.
    pub fn insert_traced(
        &mut self,
        key: BlockKey,
        data: impl Into<BlockData>,
        vbytes: u64,
    ) -> InsertOutcome {
        let data = data.into();
        let mut outcome = InsertOutcome::default();
        // Refuse pathological single blocks bigger than both tiers.
        if vbytes > self.mem_capacity && vbytes > self.disk_capacity {
            self.dropped_bytes += vbytes;
            outcome.dropped.push((key, vbytes));
            return outcome;
        }
        self.remove(&key);
        let lu = self.tick();
        if vbytes <= self.mem_capacity {
            while self.mem.used + vbytes > self.mem_capacity {
                if !self.evict_one_to_disk(&mut outcome) {
                    break;
                }
            }
            if self.mem.used + vbytes <= self.mem_capacity {
                self.mem.insert(
                    key,
                    Block {
                        data,
                        vbytes,
                        last_use: lu,
                    },
                );
                outcome.stored = true;
                return outcome;
            }
        }
        // Fall back to disk.
        outcome.stored = self.store_on_disk(key, data, vbytes, &mut outcome.dropped);
        outcome
    }

    fn store_on_disk(
        &mut self,
        key: BlockKey,
        data: BlockData,
        vbytes: u64,
        dropped: &mut Vec<(BlockKey, u64)>,
    ) -> bool {
        if vbytes > self.disk_capacity {
            self.dropped_bytes += vbytes;
            dropped.push((key, vbytes));
            return false;
        }
        while self.disk.used + vbytes > self.disk_capacity {
            if let Some(victim) = self.disk.lru_key() {
                if let Some(b) = self.disk.remove(&victim) {
                    self.dropped_bytes += b.vbytes;
                    dropped.push((victim, b.vbytes));
                }
            } else {
                break;
            }
        }
        if self.disk.used + vbytes > self.disk_capacity {
            self.dropped_bytes += vbytes;
            dropped.push((key, vbytes));
            return false;
        }
        let lu = self.tick();
        self.disk.insert(
            key,
            Block {
                data,
                vbytes,
                last_use: lu,
            },
        );
        true
    }

    /// Evicts the least-recently-used memory block to disk. Returns
    /// `false` when memory is already empty.
    fn evict_one_to_disk(&mut self, outcome: &mut InsertOutcome) -> bool {
        let Some(victim) = self.mem.lru_key() else {
            return false;
        };
        let b = self.mem.remove(&victim).expect("victim exists");
        self.spilled_bytes += b.vbytes;
        outcome.spilled.push((victim, b.vbytes));
        let _ = self.store_on_disk(victim, b.data, b.vbytes, &mut outcome.dropped);
        true
    }

    /// Looks up a block, touching its LRU stamp. Disk hits are *not*
    /// promoted automatically; the caller charges the disk-read time and
    /// may re-insert.
    pub fn get(&mut self, key: &BlockKey) -> Option<(BlockData, BlockLocation, u64)> {
        let lu = self.tick();
        if self.mem.touch(key, lu) {
            let b = &self.mem.map[key];
            return Some((b.data.clone(), BlockLocation::Memory, b.vbytes));
        }
        if self.disk.touch(key, lu) {
            let b = &self.disk.map[key];
            return Some((b.data.clone(), BlockLocation::Disk, b.vbytes));
        }
        None
    }

    /// Looks up a block's data without touching LRU state.
    ///
    /// This is the read half of [`BlockManager::get`], split out so the
    /// parallel wave executor can read a consistent snapshot from many
    /// host threads (`&self`) and replay the LRU bumps later, in
    /// deterministic task order, via [`BlockManager::touch`].
    pub fn peek_data(&self, key: &BlockKey) -> Option<(BlockData, BlockLocation, u64)> {
        if let Some(b) = self.mem.map.get(key) {
            return Some((b.data.clone(), BlockLocation::Memory, b.vbytes));
        }
        if let Some(b) = self.disk.map.get(key) {
            return Some((b.data.clone(), BlockLocation::Disk, b.vbytes));
        }
        None
    }

    /// Bumps a block's LRU stamp without reading its data — the write
    /// half of [`BlockManager::get`]. Returns `true` if the block exists.
    pub fn touch(&mut self, key: &BlockKey) -> bool {
        let lu = self.tick();
        self.mem.touch(key, lu) || self.disk.touch(key, lu)
    }

    /// Returns the location of a block without touching LRU state.
    pub fn peek(&self, key: &BlockKey) -> Option<(BlockLocation, u64)> {
        if let Some(b) = self.mem.map.get(key) {
            return Some((BlockLocation::Memory, b.vbytes));
        }
        if let Some(b) = self.disk.map.get(key) {
            return Some((BlockLocation::Disk, b.vbytes));
        }
        None
    }

    /// Removes a block from both tiers, returning `true` if it existed.
    pub fn remove(&mut self, key: &BlockKey) -> bool {
        let in_mem = self.mem.remove(key).is_some();
        let on_disk = self.disk.remove(key).is_some();
        in_mem || on_disk
    }

    /// Returns all keys currently held (memory then disk, unordered).
    pub fn keys(&self) -> Vec<BlockKey> {
        self.mem
            .map
            .keys()
            .chain(self.disk.map.keys())
            .copied()
            .collect()
    }

    /// Virtual bytes resident in memory.
    pub fn mem_used(&self) -> u64 {
        self.mem.used
    }

    /// Virtual bytes resident on disk.
    pub fn disk_used(&self) -> u64 {
        self.disk.used
    }

    /// Memory capacity in virtual bytes.
    pub(crate) fn mem_capacity(&self) -> u64 {
        self.mem_capacity
    }

    /// Drops every block (worker revoked).
    pub(crate) fn clear(&mut self) {
        self.mem.clear();
        self.disk.clear();
    }
}

/// A cluster-wide summary of cached blocks, used by baselines (e.g.
/// systems-level checkpointing must write *all* worker state) and by
/// diagnostics.
#[derive(Debug, Clone)]
pub struct BlockStoreSnapshot {
    /// Virtual bytes in memory across alive workers.
    pub mem_bytes: u64,
    /// Virtual bytes on disk across alive workers.
    pub disk_bytes: u64,
    /// `(worker, key, vbytes)` for every resident block.
    pub blocks: Vec<(WorkerId, BlockKey, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> PartitionData {
        Arc::new(vec![Value::Int(0); n])
    }

    fn key(i: u32) -> BlockKey {
        BlockKey::RddPart {
            rdd: RddId(0),
            part: i,
        }
    }

    #[test]
    fn insert_and_get() {
        let mut bm = BlockManager::new(1000, 1000);
        assert!(bm.insert(key(0), data(1), 100));
        let (_, loc, bytes) = bm.get(&key(0)).unwrap();
        assert_eq!(loc, BlockLocation::Memory);
        assert_eq!(bytes, 100);
        assert_eq!(bm.mem_used(), 100);
    }

    #[test]
    fn lru_eviction_spills_to_disk() {
        let mut bm = BlockManager::new(250, 1000);
        bm.insert(key(0), data(1), 100);
        bm.insert(key(1), data(1), 100);
        // Touch 0 so 1 becomes LRU.
        let _ = bm.get(&key(0));
        bm.insert(key(2), data(1), 100);
        assert_eq!(bm.peek(&key(1)).unwrap().0, BlockLocation::Disk);
        assert_eq!(bm.peek(&key(0)).unwrap().0, BlockLocation::Memory);
        assert_eq!(bm.spilled_bytes, 100);
    }

    #[test]
    fn disk_overflow_drops_blocks() {
        let mut bm = BlockManager::new(100, 150);
        bm.insert(key(0), data(1), 100);
        bm.insert(key(1), data(1), 100); // spills 0 to disk
        bm.insert(key(2), data(1), 100); // spills 1; disk can't hold both
        let resident = bm.keys().len();
        assert!(resident < 3, "something must have been dropped");
        assert!(bm.dropped_bytes > 0);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut bm = BlockManager::new(100, 100);
        assert!(!bm.insert(key(0), data(1), 500));
        assert!(bm.get(&key(0)).is_none());
        assert_eq!(bm.dropped_bytes, 500);
    }

    #[test]
    fn block_bigger_than_memory_goes_to_disk() {
        let mut bm = BlockManager::new(100, 1000);
        assert!(bm.insert(key(0), data(1), 500));
        assert_eq!(bm.peek(&key(0)).unwrap().0, BlockLocation::Disk);
    }

    #[test]
    fn overwrite_replaces() {
        let mut bm = BlockManager::new(1000, 1000);
        bm.insert(key(0), data(1), 100);
        bm.insert(key(0), data(2), 200);
        assert_eq!(bm.mem_used(), 200);
        let (d, _, _) = bm.get(&key(0)).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn clear_loses_everything() {
        let mut bm = BlockManager::new(1000, 1000);
        bm.insert(key(0), data(1), 100);
        bm.insert(key(1), data(1), 900); // forces a spill
        bm.clear();
        assert_eq!(bm.mem_used(), 0);
        assert_eq!(bm.disk_used(), 0);
        assert!(bm.keys().is_empty());
    }

    #[test]
    fn peek_data_then_touch_equals_get() {
        // Two managers, same inserts: peek_data + touch must leave the
        // LRU state identical to a plain get.
        let mut a = BlockManager::new(250, 1000);
        let mut b = BlockManager::new(250, 1000);
        for bm in [&mut a, &mut b] {
            bm.insert(key(0), data(1), 100);
            bm.insert(key(1), data(1), 100);
        }
        let (da, loc_a, vb_a) = a.get(&key(0)).unwrap();
        let (db, loc_b, vb_b) = b.peek_data(&key(0)).unwrap();
        assert!(b.touch(&key(0)));
        assert_eq!((da.len(), loc_a, vb_a), (db.len(), loc_b, vb_b));
        // Same eviction victim afterwards (key 1 is LRU in both).
        a.insert(key(2), data(1), 100);
        b.insert(key(2), data(1), 100);
        assert_eq!(a.peek(&key(1)).unwrap().0, BlockLocation::Disk);
        assert_eq!(b.peek(&key(1)).unwrap().0, BlockLocation::Disk);
    }

    #[test]
    fn touch_missing_block_is_noop() {
        let mut bm = BlockManager::new(100, 100);
        assert!(!bm.touch(&key(9)));
        assert!(bm.peek_data(&key(9)).is_none());
    }

    #[test]
    fn remove_returns_presence() {
        let mut bm = BlockManager::new(1000, 1000);
        bm.insert(key(0), data(1), 100);
        assert!(bm.remove(&key(0)));
        assert!(!bm.remove(&key(0)));
        assert_eq!(bm.mem_used(), 0);
    }
}
