//! Durable checkpoint bookkeeping on top of [`flint_store`].

use std::collections::{BTreeSet, HashMap, HashSet};

use flint_simtime::SimTime;
use flint_store::{DurableStore, StorageConfig};
use flint_trace::EventKind;

use crate::block::{BlockData, BlockKey, Records};
use crate::rdd::{PartitionData, RddId};
use crate::shuffle::ShuffleId;
use crate::Lineage;

/// What a degraded store did to one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write landed intact.
    None,
    /// The write landed but the stored bytes are corrupt (torn write);
    /// the corruption is only *detected* at restore time.
    Torn,
    /// The write was lost outright: nothing landed and the partition
    /// bitmap stays clear.
    Fail,
}

/// Why a present checkpoint can not be restored right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The stored bytes failed their integrity check (torn write);
    /// permanent — the only way out is lineage recomputation.
    Corrupt,
    /// The store is inside a transient outage window; the checkpoint
    /// will become readable again once the window closes.
    Unavailable,
}

impl ReadFault {
    /// The trace events that report falling back to lineage for `block`:
    /// a corrupt checkpoint is first reported as detected, and either
    /// fault names its reason.
    pub(crate) fn fallback_events(self, block: &BlockKey) -> Vec<EventKind> {
        let block = block.to_string();
        let reason = match self {
            ReadFault::Corrupt => "corrupt",
            ReadFault::Unavailable => "outage",
        };
        let mut events = Vec::with_capacity(2);
        if self == ReadFault::Corrupt {
            events.push(EventKind::CheckpointCorruptDetected {
                block: block.clone(),
            });
        }
        events.push(EventKind::RestoreFallback {
            block,
            reason: reason.to_string(),
        });
        events
    }
}

/// A deterministic checkpoint-store degradation model.
///
/// Write faults are decided once per [`CheckpointStore::put`] on the
/// driver thread, so `on_write` may mutate internal RNG state. Read
/// outages are consulted from inside the parallel wave (through a
/// shared `&CheckpointStore`), so `read_unavailable` must be a *pure*
/// function of `now` — the wave snapshot time — or runs stop being
/// byte-identical across `host_threads`.
///
/// An outage covers the whole store, not single keys. That is what lets
/// the readiness planner carry its plan across scheduler steps: between
/// two instants on the same side of every window edge, readability
/// changes only through writes and deletions the store reports.
pub trait StoreFaultPolicy: Send + Sync + std::fmt::Debug {
    /// Decides the fate of the write of `key` landing at `now`.
    fn on_write(&mut self, key: &str, now: SimTime) -> WriteFault;

    /// Returns `true` while reads at `now` transiently fail.
    fn read_unavailable(&self, now: SimTime) -> bool;
}

/// The default, never-failing store policy (chaos off). Every path
/// through it is branch-free so a chaos-compiled-in-but-disabled run
/// is an exact no-op against the pre-chaos engine.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct HealthyStore;

impl StoreFaultPolicy for HealthyStore {
    fn on_write(&mut self, _key: &str, _now: SimTime) -> WriteFault {
        WriteFault::None
    }

    fn read_unavailable(&self, _now: SimTime) -> bool {
        false
    }
}

/// What changed in a [`CheckpointStore`] since the readiness planner
/// last drained it.
#[derive(Debug, Default)]
pub(crate) struct StoreChanges {
    /// Blocks whose durable copy was written, rewritten or deleted.
    pub keys: BTreeSet<BlockKey>,
    /// Something changed that cannot be pinned on individual blocks
    /// (the fault policy was replaced): every readability answer is
    /// suspect.
    pub all: bool,
}

/// The engine's view of durable checkpoints.
///
/// Wraps a [`DurableStore`] with per-RDD partition bitmaps so "is this
/// RDD fully checkpointed?" is cheap, plus the paper's reachability-based
/// garbage collector.
#[derive(Debug)]
pub struct CheckpointStore {
    store: DurableStore<BlockData>,
    /// Which partitions of each RDD are durably stored.
    parts: HashMap<RddId, Vec<bool>>,
    /// Which shuffle map outputs are durably stored (used only by the
    /// systems-level checkpointing baseline, which snapshots shuffle
    /// buffers along with everything else).
    shuffle_parts: HashSet<(ShuffleId, u32)>,
    /// Degradation model for writes and reads ([`HealthyStore`] unless
    /// a chaos campaign installs one).
    faults: Box<dyn StoreFaultPolicy>,
    /// Blocks whose stored payload is torn. Recorded at write time on
    /// the driver thread; detected (as [`ReadFault::Corrupt`]) when a
    /// restore attempts the integrity check.
    corrupt: HashSet<BlockKey>,
    /// Readability changes not yet seen by the planner.
    changes: StoreChanges,
}

/// Returns the store key for `key`.
///
/// All partitions of an RDD share a key prefix (`rdd-7/`), mirroring the
/// paper's "all partition checkpoints of a single RDD live in the same
/// HDFS directory" layout (§4) and enabling prefix-wise garbage
/// collection; shuffle map outputs live under `shuffle-7/`.
fn store_key(key: &BlockKey) -> String {
    match *key {
        BlockKey::RddPart { rdd, part } => format!("rdd-{:06}/part-{:05}", rdd.0, part),
        BlockKey::ShuffleMap { shuffle, map_part } => {
            format!("shuffle-{:06}/part-{:05}", shuffle.0, map_part)
        }
    }
}

/// Byte-exact size of one partition's serialized checkpoint payload: an
/// 8-byte record count followed by each record's 4-byte length frame and
/// encoded bytes ([`crate::Value::size_bytes`]).
///
/// This walk is the expensive part of preparing a checkpoint write, so
/// the wave executor runs it on the host thread pool alongside task
/// materialization; the determinism suite asserts the resulting sizes are
/// identical for every `host_threads` setting.
pub fn wire_size(data: &[crate::Value]) -> u64 {
    8 + data.iter().map(|v| 4 + v.size_bytes()).sum::<u64>()
}

impl CheckpointStore {
    /// Creates an empty checkpoint store with the given bandwidth model.
    pub fn new(cfg: StorageConfig) -> Self {
        CheckpointStore {
            store: DurableStore::new(cfg),
            parts: HashMap::new(),
            shuffle_parts: HashSet::new(),
            faults: Box::new(HealthyStore),
            corrupt: HashSet::new(),
            changes: StoreChanges::default(),
        }
    }

    /// Installs a store degradation model (replacing `HealthyStore`).
    pub fn set_fault_policy(&mut self, policy: Box<dyn StoreFaultPolicy>) {
        self.faults = policy;
        self.changes.all = true;
    }

    /// Drains the record of what changed since the previous call.
    pub(crate) fn take_changes(&mut self) -> StoreChanges {
        std::mem::take(&mut self.changes)
    }

    /// Whether the store is inside a read outage at `now`.
    pub(crate) fn read_unavailable(&self, now: SimTime) -> bool {
        self.faults.read_unavailable(now)
    }

    /// Durably stores one shuffle map output (rows or bucketed — a
    /// restore serves back whichever form was captured). Returns what
    /// the (possibly degraded) store did with the write.
    pub(crate) fn put_shuffle(
        &mut self,
        shuffle: ShuffleId,
        map_part: u32,
        data: impl Into<BlockData>,
        vbytes: u64,
        now: SimTime,
    ) -> WriteFault {
        let key = BlockKey::ShuffleMap { shuffle, map_part };
        let fault = self.land(key, data.into(), vbytes, now);
        if fault != WriteFault::Fail {
            self.shuffle_parts.insert((shuffle, map_part));
        }
        fault
    }

    /// Returns the underlying durable store.
    pub fn store(&self) -> &DurableStore<BlockData> {
        &self.store
    }

    /// Returns the underlying durable store mutably (cost accounting).
    pub fn store_mut(&mut self) -> &mut DurableStore<BlockData> {
        &mut self.store
    }

    /// Returns the storage bandwidth model.
    pub(crate) fn config(&self) -> &StorageConfig {
        self.store.config()
    }

    /// Durably stores an encoded run manifest under `key` (by convention
    /// `manifest/<session>`). Manifests are the suspension/resume
    /// verification artifact, not job data: they bypass the fault policy
    /// (a suspend that loses its own manifest is indistinguishable from
    /// a plain crash, which resume already covers) and are excluded from
    /// checkpoint GC by their key prefix.
    pub(crate) fn put_manifest(&mut self, key: &str, text: &str, now: SimTime) {
        let payload: PartitionData = std::sync::Arc::new(vec![crate::Value::from_str_(text)]);
        let bytes = text.len() as u64;
        self.store.put(key, payload.into(), bytes, now);
    }

    /// Returns the encoded run manifest stored under `key`, if present.
    pub fn get_manifest(&self, key: &str) -> Option<&str> {
        match self.store.get(key)?.part()? {
            Records::Rows(p) => p.first()?.as_str(),
            Records::Col(_) => None,
        }
    }

    /// Durably stores one partition (virtual `vbytes` for accounting).
    /// Returns what the (possibly degraded) store did with the write:
    /// a [`WriteFault::Fail`] leaves the partition bitmap clear, a
    /// [`WriteFault::Torn`] sets the bitmap but poisons the key so the
    /// restore-time integrity check rejects it.
    pub fn put(
        &mut self,
        rdd: RddId,
        part: u32,
        num_partitions: u32,
        data: impl Into<BlockData>,
        vbytes: u64,
        now: SimTime,
    ) -> WriteFault {
        let fault = self.land(BlockKey::RddPart { rdd, part }, data.into(), vbytes, now);
        if fault != WriteFault::Fail {
            let bits = self
                .parts
                .entry(rdd)
                .or_insert_with(|| vec![false; num_partitions as usize]);
            if let Some(b) = bits.get_mut(part as usize) {
                *b = true;
            }
        }
        fault
    }

    /// Lands one write of `key` unless the fault policy loses it: a
    /// torn write poisons `key`, a clean one heals it, and either is a
    /// readability change. Returns the policy's verdict.
    fn land(&mut self, key: BlockKey, data: BlockData, vbytes: u64, now: SimTime) -> WriteFault {
        let skey = store_key(&key);
        let fault = self.faults.on_write(&skey, now);
        if fault == WriteFault::Fail {
            return fault;
        }
        self.store.put(&skey, data, vbytes, now);
        if fault == WriteFault::Torn {
            self.corrupt.insert(key);
        } else {
            self.corrupt.remove(&key);
        }
        self.changes.keys.insert(key);
        fault
    }

    /// Returns the stored block of `key`, if present, in the form it was
    /// captured.
    pub(crate) fn block(&self, key: &BlockKey) -> Option<&BlockData> {
        self.store.get(&store_key(key))
    }

    /// Returns the checkpointed records of `(rdd, part)`, if present, in
    /// the form they were stored (only shuffle map outputs are ever
    /// bucketed). Size and wire accounting cannot tell rows from a batch.
    pub fn get(&self, rdd: RddId, part: u32) -> Option<&Records> {
        self.block(&BlockKey::RddPart { rdd, part })?.part()
    }

    /// Returns the stored virtual size of `(rdd, part)`, if present.
    pub fn size_of(&self, rdd: RddId, part: u32) -> Option<u64> {
        self.store
            .size_of(&store_key(&BlockKey::RddPart { rdd, part }))
    }

    /// Returns `true` if `key` is durably stored.
    pub fn has(&self, key: &BlockKey) -> bool {
        match *key {
            BlockKey::RddPart { rdd, part } => self
                .parts
                .get(&rdd)
                .and_then(|b| b.get(part as usize).copied())
                .unwrap_or(false),
            BlockKey::ShuffleMap { shuffle, map_part } => {
                self.shuffle_parts.contains(&(shuffle, map_part))
            }
        }
    }

    /// Why a *present* checkpoint of `key` can not be restored at `now`,
    /// or `None` if a restore would succeed. Meaningless when
    /// [`CheckpointStore::has`] is false. Pure — safe to call from wave
    /// threads with the wave-snapshot `now`.
    pub fn read_fault(&self, key: &BlockKey, now: SimTime) -> Option<ReadFault> {
        if self.corrupt.contains(key) {
            Some(ReadFault::Corrupt)
        } else if self.faults.read_unavailable(now) {
            Some(ReadFault::Unavailable)
        } else {
            None
        }
    }

    /// The planner/executor-shared readability predicate: `key` is
    /// durably stored *and* restorable at `now`. Both sides must agree
    /// on this (with the same wave-snapshot `now`) or the planner
    /// schedules restores the executor then refuses.
    pub fn readable(&self, key: &BlockKey, now: SimTime) -> bool {
        self.has(key) && self.read_fault(key, now).is_none()
    }

    /// Returns `true` if every partition of `rdd` is durably stored.
    pub fn is_fully_checkpointed(&self, rdd: RddId) -> bool {
        self.parts
            .get(&rdd)
            .map(|b| b.iter().all(|&x| x))
            .unwrap_or(false)
    }

    /// Returns the RDDs with at least one checkpointed partition.
    pub fn checkpointed_rdds(&self) -> Vec<RddId> {
        let mut ids: Vec<RddId> = self
            .parts
            .iter()
            .filter(|(_, b)| b.iter().any(|&x| x))
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }

    /// Drops every checkpoint of `rdd`.
    pub(crate) fn drop_rdd(&mut self, rdd: RddId, now: SimTime) -> usize {
        let parts = self.parts.remove(&rdd).map_or(0, |bits| bits.len() as u32);
        for part in 0..parts {
            self.changes.keys.insert(BlockKey::RddPart { rdd, part });
        }
        self.corrupt
            .retain(|k| !matches!(k, BlockKey::RddPart { rdd: r, .. } if *r == rdd));
        self.store.delete_prefix(&format!("rdd-{:06}/", rdd.0), now)
    }

    /// Garbage-collects redundant checkpoints (§4): checkpointing an RDD
    /// terminates its lineage, so an *ancestor's* checkpoint becomes
    /// unreachable — but only once every one of the ancestor's child
    /// subtrees is covered by a checkpointed cut, and never for RDDs the
    /// program explicitly persists (those remain live targets of future
    /// actions, e.g. resident tables queried repeatedly). Returns the
    /// number of partition objects deleted.
    pub(crate) fn gc(&mut self, lineage: &Lineage, now: SimTime) -> usize {
        // covered(X): recomputing anything *below* X never needs X's
        // checkpoint, because every path down from X crosses a fully-
        // checkpointed RDD. Evaluated bottom-up; ids are topological
        // (parents have smaller ids than children).
        let n = lineage.len();
        let mut covered = vec![false; n];
        for idx in (0..n).rev() {
            let id = RddId(idx as u32);
            if self.is_fully_checkpointed(id) {
                covered[idx] = true;
                continue;
            }
            let children = lineage.children(id);
            covered[idx] = !children.is_empty() && children.iter().all(|c| covered[c.0 as usize]);
        }
        let doomed: Vec<RddId> = self
            .checkpointed_rdds()
            .into_iter()
            .filter(|id| {
                let children = lineage.children(*id);
                !lineage.is_persisted(*id)
                    && !children.is_empty()
                    && children.iter().all(|c| covered[c.0 as usize])
            })
            .collect();
        let mut deleted = 0;
        for rdd in doomed {
            deleted += self.drop_rdd(rdd, now);
        }
        deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdd::RddOp;
    use std::sync::Arc;

    fn data() -> PartitionData {
        Arc::new(vec![])
    }

    fn rdd_part(rdd: u32, part: u32) -> BlockKey {
        BlockKey::RddPart {
            rdd: RddId(rdd),
            part,
        }
    }

    fn shuffle_map(shuffle: u32, map_part: u32) -> BlockKey {
        BlockKey::ShuffleMap {
            shuffle: ShuffleId(shuffle),
            map_part,
        }
    }

    #[test]
    fn wire_size_is_framing_plus_payload() {
        assert_eq!(wire_size(&[]), 8);
        let vals = vec![crate::Value::Int(1), crate::Value::from_str_("abc")];
        let payload: u64 = vals.iter().map(crate::Value::size_bytes).sum();
        assert_eq!(wire_size(&vals), 8 + 2 * 4 + payload);
    }

    #[test]
    fn key_format_is_prefix_friendly() {
        let k = store_key(&rdd_part(7, 3));
        assert!(k.starts_with("rdd-000007/"));
        assert_eq!(k, "rdd-000007/part-00003");
    }

    #[test]
    fn put_get_has() {
        let mut cs = CheckpointStore::new(StorageConfig::default());
        assert!(!cs.has(&rdd_part(0, 0)));
        cs.put(RddId(0), 0, 2, data(), 100, SimTime::ZERO);
        assert!(cs.has(&rdd_part(0, 0)));
        assert!(!cs.has(&rdd_part(0, 1)));
        assert!(!cs.is_fully_checkpointed(RddId(0)));
        cs.put(RddId(0), 1, 2, data(), 100, SimTime::ZERO);
        assert!(cs.is_fully_checkpointed(RddId(0)));
        assert_eq!(cs.size_of(RddId(0), 1), Some(100));
        assert_eq!(cs.checkpointed_rdds(), vec![RddId(0)]);
    }

    #[test]
    fn gc_drops_fully_shadowed_ancestors() {
        // Lineage: a -> b -> c, all checkpointed; checkpointing c makes
        // a's and b's checkpoints unreachable.
        let mut l = Lineage::new();
        let src = RddOp::Parallelize {
            data: Arc::new(vec![vec![]]),
        };
        let a = l.add_rdd("a", src, vec![], 1);
        let map = || RddOp::Map {
            f: crate::rdd::identity(),
            kernel: None,
        };
        let b = l.add_rdd("b", map(), vec![a], 1);
        let c = l.add_rdd("c", map(), vec![b], 1);

        let mut cs = CheckpointStore::new(StorageConfig::default());
        cs.put(a, 0, 1, data(), 10, SimTime::ZERO);
        cs.put(b, 0, 1, data(), 10, SimTime::ZERO);
        cs.put(c, 0, 1, data(), 10, SimTime::ZERO);
        let deleted = cs.gc(&l, SimTime::ZERO);
        assert_eq!(deleted, 2);
        assert!(cs.has(&rdd_part(c.0, 0)));
        assert!(!cs.has(&rdd_part(a.0, 0)));
        assert!(!cs.has(&rdd_part(b.0, 0)));
    }

    #[test]
    fn gc_keeps_ancestors_of_partial_checkpoints() {
        let mut l = Lineage::new();
        let src = RddOp::Parallelize {
            data: Arc::new(vec![vec![], vec![]]),
        };
        let a = l.add_rdd("a", src, vec![], 2);
        let b = l.add_rdd(
            "b",
            RddOp::Map {
                f: crate::rdd::identity(),
                kernel: None,
            },
            vec![a],
            2,
        );
        let mut cs = CheckpointStore::new(StorageConfig::default());
        cs.put(a, 0, 2, data(), 10, SimTime::ZERO);
        cs.put(a, 1, 2, data(), 10, SimTime::ZERO);
        // b only partially checkpointed: a must be retained.
        cs.put(b, 0, 2, data(), 10, SimTime::ZERO);
        assert_eq!(cs.gc(&l, SimTime::ZERO), 0);
        assert!(cs.has(&rdd_part(a.0, 0)));
    }

    #[test]
    fn shuffle_checkpoints_round_trip() {
        let mut cs = CheckpointStore::new(StorageConfig::default());
        assert!(!cs.has(&shuffle_map(2, 0)));
        cs.put_shuffle(ShuffleId(2), 0, data(), 64, SimTime::ZERO);
        assert!(cs.has(&shuffle_map(2, 0)));
        assert!(cs.block(&shuffle_map(2, 0)).is_some());
        assert!(!cs.has(&shuffle_map(2, 1)));
    }

    #[test]
    fn degraded_store_write_and_read_faults() {
        // A policy that tears the first write, loses the second, then
        // heals; reads fail inside a fixed outage window.
        #[derive(Debug)]
        struct Script {
            writes: u32,
        }
        impl StoreFaultPolicy for Script {
            fn on_write(&mut self, _key: &str, _now: SimTime) -> WriteFault {
                self.writes += 1;
                match self.writes {
                    1 => WriteFault::Torn,
                    2 => WriteFault::Fail,
                    _ => WriteFault::None,
                }
            }
            fn read_unavailable(&self, now: SimTime) -> bool {
                now >= SimTime::from_millis(1_000) && now < SimTime::from_millis(2_000)
            }
        }
        let mut cs = CheckpointStore::new(StorageConfig::default());
        cs.set_fault_policy(Box::new(Script { writes: 0 }));

        // Torn: bitmap set, integrity check rejects the restore.
        assert_eq!(
            cs.put(RddId(0), 0, 2, data(), 10, SimTime::ZERO),
            WriteFault::Torn
        );
        assert!(cs.has(&rdd_part(0, 0)));
        assert_eq!(
            cs.read_fault(&rdd_part(0, 0), SimTime::ZERO),
            Some(ReadFault::Corrupt)
        );
        assert!(!cs.readable(&rdd_part(0, 0), SimTime::ZERO));

        // Fail: nothing landed.
        assert_eq!(
            cs.put(RddId(0), 1, 2, data(), 10, SimTime::ZERO),
            WriteFault::Fail
        );
        assert!(!cs.has(&rdd_part(0, 1)));

        // Clean rewrite clears the torn flag.
        assert_eq!(
            cs.put(RddId(0), 0, 2, data(), 10, SimTime::ZERO),
            WriteFault::None
        );
        assert!(cs.readable(&rdd_part(0, 0), SimTime::ZERO));

        // Transient outage window: unavailable inside, healthy after.
        let mid = SimTime::from_millis(1_500);
        assert_eq!(
            cs.read_fault(&rdd_part(0, 0), mid),
            Some(ReadFault::Unavailable)
        );
        assert!(!cs.readable(&rdd_part(0, 0), mid));
        assert!(cs.readable(&rdd_part(0, 0), SimTime::from_millis(2_000)));

        // Shuffle writes go through the same policy (write 4: clean).
        assert_eq!(
            cs.put_shuffle(ShuffleId(1), 0, data(), 8, SimTime::ZERO),
            WriteFault::None
        );
        assert!(cs.readable(&shuffle_map(1, 0), SimTime::ZERO));
        assert_eq!(
            cs.read_fault(&shuffle_map(1, 0), mid),
            Some(ReadFault::Unavailable)
        );

        // drop_rdd forgets corruption along with the data.
        cs.set_fault_policy(Box::new(Script { writes: 0 }));
        assert_eq!(
            cs.put(RddId(3), 0, 1, data(), 10, SimTime::ZERO),
            WriteFault::Torn
        );
        cs.drop_rdd(RddId(3), SimTime::ZERO);
        assert!(!cs.has(&rdd_part(3, 0)));
    }

    /// Every write lands with `fault`; reads fail inside `[1 s, 2 s)`.
    #[derive(Debug)]
    struct Fixed {
        fault: WriteFault,
    }

    impl StoreFaultPolicy for Fixed {
        fn on_write(&mut self, _key: &str, _now: SimTime) -> WriteFault {
            self.fault
        }
        fn read_unavailable(&self, now: SimTime) -> bool {
            now >= SimTime::from_millis(1_000) && now < SimTime::from_millis(2_000)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Put { rdd: u32, part: u32, fault: u8 },
        PutShuffle { shuffle: u32, part: u32, fault: u8 },
        Drop { rdd: u32 },
    }

    /// RDD and shuffle ids whose decimal forms share digits: dropping
    /// rdd 7 must forget neither rdd 70 nor shuffle 7.
    const IDS: [u32; 4] = [0, 7, 70, 1];

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..4, 0u32..3, 0u8..3).prop_map(|(i, part, fault)| Op::Put {
                rdd: IDS[i],
                part,
                fault
            }),
            (0usize..4, 0u32..3, 0u8..3).prop_map(|(i, part, fault)| Op::PutShuffle {
                shuffle: IDS[i],
                part,
                fault
            }),
            (0usize..4).prop_map(|i| Op::Drop { rdd: IDS[i] }),
        ]
    }

    /// The string-keyed presence and corruption bookkeeping the typed
    /// bitmaps and set replaced, transcribed: keys as stored, GC by key
    /// prefix.
    #[derive(Default)]
    struct StringModel {
        present: HashSet<String>,
        corrupt: HashSet<String>,
    }

    impl StringModel {
        fn landed(&mut self, key: String, fault: WriteFault) {
            match fault {
                WriteFault::Fail => {}
                WriteFault::Torn => {
                    self.present.insert(key.clone());
                    self.corrupt.insert(key);
                }
                WriteFault::None => {
                    self.corrupt.remove(&key);
                    self.present.insert(key);
                }
            }
        }

        fn drop_rdd(&mut self, rdd: RddId) {
            let prefix = format!("rdd-{:06}/", rdd.0);
            self.present.retain(|k| !k.starts_with(&prefix));
            self.corrupt.retain(|k| !k.starts_with(&prefix));
        }

        fn readable(&self, key: &str, now: SimTime) -> bool {
            self.present.contains(key) && self.fault(key, now).is_none()
        }

        fn fault(&self, key: &str, now: SimTime) -> Option<ReadFault> {
            if self.corrupt.contains(key) {
                Some(ReadFault::Corrupt)
            } else if (Fixed {
                fault: WriteFault::None,
            })
            .read_unavailable(now)
            {
                Some(ReadFault::Unavailable)
            } else {
                None
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Typed keys answer every presence, read-fault and readability
        /// query exactly as the string keys did, through any sequence of
        /// clean, torn and lost writes and RDD drops: rdd 7 and shuffle
        /// 7 never answer for each other.
        #[test]
        fn typed_corrupt_keys_match_string_keys(
            ops in proptest::collection::vec(op_strategy(), 1..60),
        ) {
            let faults = [WriteFault::None, WriteFault::Torn, WriteFault::Fail];
            let mut cs = CheckpointStore::new(StorageConfig::default());
            cs.set_fault_policy(Box::new(Fixed { fault: WriteFault::None }));
            let mut model = StringModel::default();
            for op in ops {
                match op {
                    Op::Put { rdd, part, fault } => {
                        let fault = faults[usize::from(fault)];
                        cs.set_fault_policy(Box::new(Fixed { fault }));
                        cs.put(RddId(rdd), part, 3, data(), 10, SimTime::ZERO);
                        model.landed(store_key(&rdd_part(rdd, part)), fault);
                    }
                    Op::PutShuffle { shuffle, part, fault } => {
                        let fault = faults[usize::from(fault)];
                        cs.set_fault_policy(Box::new(Fixed { fault }));
                        cs.put_shuffle(ShuffleId(shuffle), part, data(), 10, SimTime::ZERO);
                        model.landed(store_key(&shuffle_map(shuffle, part)), fault);
                    }
                    Op::Drop { rdd } => {
                        cs.drop_rdd(RddId(rdd), SimTime::ZERO);
                        model.drop_rdd(RddId(rdd));
                    }
                }
                for now in [SimTime::ZERO, SimTime::from_millis(1_500)] {
                    for id in IDS {
                        for part in 0..3 {
                            for key in [rdd_part(id, part), shuffle_map(id, part)] {
                                let skey = store_key(&key);
                                prop_assert_eq!(cs.has(&key), model.present.contains(&skey));
                                prop_assert_eq!(cs.read_fault(&key, now), model.fault(&skey, now));
                                prop_assert_eq!(cs.readable(&key, now), model.readable(&skey, now));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn drop_rdd_removes_all_parts() {
        let mut cs = CheckpointStore::new(StorageConfig::default());
        cs.put(RddId(1), 0, 2, data(), 10, SimTime::ZERO);
        cs.put(RddId(1), 1, 2, data(), 10, SimTime::ZERO);
        assert_eq!(cs.drop_rdd(RddId(1), SimTime::ZERO), 2);
        assert!(!cs.has(&rdd_part(1, 0)));
        assert!(cs.checkpointed_rdds().is_empty());
    }
}
