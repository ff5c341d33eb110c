//! The engine's view of the worker cluster.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use flint_simtime::{SimDuration, SimTime};

use crate::block::{
    BlockData, BlockKey, BlockLocation, BlockManager, BlockStoreSnapshot, InsertOutcome, KeyMap,
};

/// Identifier of a worker slot within the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

/// The shape of a worker node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSpec {
    /// Number of task slots (vCPUs).
    pub cores: u32,
    /// Memory available for the block cache, in virtual bytes.
    pub cache_mem_bytes: u64,
    /// Local disk available for spill, in virtual bytes.
    pub disk_bytes: u64,
}

impl WorkerSpec {
    /// The paper's `r3.large` worker: 2 vCPUs, 15 GB RAM (of which Spark
    /// uses ~40 % for RDD storage, §5.5), 32 GB local SSD.
    pub fn r3_large() -> Self {
        WorkerSpec {
            cores: 2,
            cache_mem_bytes: (15.0 * 0.4 * 1e9) as u64,
            disk_bytes: 32_000_000_000,
        }
    }

    /// One serverless function slot: a single core with `mem_gb` of
    /// function memory as its cache and no local disk persistence
    /// worth modeling (invocation-local scratch only). Used by the
    /// serverless backend, where each worker models one unit of
    /// function concurrency rather than a machine.
    pub fn serverless_slot(mem_gb: f64) -> Self {
        WorkerSpec {
            cores: 1,
            cache_mem_bytes: (mem_gb.max(0.0) * 1e9) as u64,
            disk_bytes: 0,
        }
    }
}

/// One worker: task slots plus a block store.
#[derive(Debug)]
pub struct Worker {
    /// The engine-local id.
    pub id: WorkerId,
    /// The external id (e.g. a cloud instance id) that maps failure
    /// events onto this worker.
    pub ext_id: u64,
    /// Hardware shape.
    pub(crate) spec: WorkerSpec,
    /// Whether the worker is currently alive. Private: the cluster's
    /// alive set and block directory are keyed on it.
    alive: bool,
    /// Per-core busy-until instants.
    pub(crate) cores_busy_until: Vec<SimTime>,
    /// The worker's block store. Private: every mutation goes through
    /// [`Cluster`] so the block directory cannot drift.
    blocks: BlockManager,
}

impl Worker {
    /// Whether the worker is currently alive (not revoked).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// The worker's block store, read-only. Blocks are inserted through
    /// [`Cluster::insert_block`].
    pub fn blocks(&self) -> &BlockManager {
        &self.blocks
    }

    /// Returns the earliest instant any core is free, no earlier than
    /// `now`.
    pub(crate) fn earliest_free(&self, now: SimTime) -> SimTime {
        self.cores_busy_until
            .iter()
            .copied()
            .min()
            .unwrap_or(now)
            .max(now)
    }

    /// Returns the index of the earliest-free core.
    pub(crate) fn earliest_free_core(&self) -> usize {
        self.cores_busy_until
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The set of workers known to the driver, plus a cluster-wide block
/// directory.
///
/// The directory maps every block resident on an *alive* worker (memory
/// or disk tier) to the ascending list of alive workers holding it, so
/// "where is this block?" is one lookup instead of a scan over all
/// workers. Every block mutation goes through `Cluster`
/// ([`Cluster::insert_block`], [`Cluster::remove_everywhere`],
/// [`Cluster::remove_by_ext`]), which is what keeps it exact.
#[derive(Debug, Default)]
pub struct Cluster {
    workers: Vec<Worker>,
    ext_map: HashMap<u64, WorkerId>,
    /// Alive worker ids, ascending (ids are handed out in join order).
    alive: Vec<WorkerId>,
    /// Block key -> ascending alive holders; no entry for an unheld key.
    directory: KeyMap<BlockKey, Vec<WorkerId>>,
    /// Keys that gained their first or lost their last alive holder
    /// since [`Cluster::take_changes`]: what the readiness planner must
    /// re-examine. Bounded by the number of distinct keys.
    changed: BTreeSet<BlockKey>,
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Cluster::default()
    }

    /// Adds a worker, returning its engine id.
    pub fn add_worker(&mut self, ext_id: u64, spec: WorkerSpec, now: SimTime) -> WorkerId {
        let id = WorkerId(self.workers.len() as u32);
        self.workers.push(Worker {
            id,
            ext_id,
            spec,
            alive: true,
            cores_busy_until: vec![now; spec.cores.max(1) as usize],
            blocks: BlockManager::new(spec.cache_mem_bytes, spec.disk_bytes),
        });
        self.ext_map.insert(ext_id, id);
        self.alive.push(id);
        id
    }

    /// Kills the worker with external id `ext_id`, dropping all its
    /// blocks. Returns the engine id if it was alive.
    pub fn remove_by_ext(&mut self, ext_id: u64) -> Option<WorkerId> {
        let id = self.ext_map.remove(&ext_id)?;
        let w = &mut self.workers[id.0 as usize];
        if !w.alive {
            return None;
        }
        w.alive = false;
        for key in w.blocks.keys() {
            unlist(&mut self.directory, &mut self.changed, key, id);
        }
        w.blocks.clear();
        if let Ok(i) = self.alive.binary_search(&id) {
            self.alive.remove(i);
        }
        Some(id)
    }

    /// Returns the worker with engine id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn worker(&self, id: WorkerId) -> &Worker {
        &self.workers[id.0 as usize]
    }

    /// Returns the worker mutably.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub(crate) fn worker_mut(&mut self, id: WorkerId) -> &mut Worker {
        &mut self.workers[id.0 as usize]
    }

    /// Returns the ids of alive workers, ascending.
    pub fn alive(&self) -> &[WorkerId] {
        &self.alive
    }

    /// Returns the number of alive workers.
    pub fn alive_count(&self) -> usize {
        self.alive.len()
    }

    /// Picks the worker for a task admitted at `now`: the least-loaded
    /// alive worker (ties to the lowest id), unless the data-local
    /// `prefer` is alive and not backed up well past it. `None` when no
    /// worker is alive.
    pub(crate) fn pick_worker(&self, now: SimTime, prefer: Option<WorkerId>) -> Option<WorkerId> {
        let least_loaded = self
            .alive
            .iter()
            .copied()
            .min_by_key(|w| (self.worker(*w).earliest_free(now), w.0))?;
        if let Some(p) = prefer {
            let pw = self.worker(p);
            if pw.alive {
                // Delay scheduling (Spark-style bounded locality wait):
                // prefer the data-local worker unless it is backed up well
                // past the least-loaded one — then eat the network fetch
                // rather than pile tasks onto one node's cores.
                let locality_wait = SimDuration::from_secs(3);
                if pw.earliest_free(now)
                    <= self.worker(least_loaded).earliest_free(now) + locality_wait
                {
                    return Some(p);
                }
            }
        }
        Some(least_loaded)
    }

    /// Inserts a block into worker `wid`'s store and brings the
    /// directory up to date for the inserted key and for every victim
    /// the insert dropped (spilled victims stay held). A dead worker
    /// stores nothing and reports an empty outcome.
    pub fn insert_block(
        &mut self,
        wid: WorkerId,
        key: BlockKey,
        data: impl Into<BlockData>,
        vbytes: u64,
    ) -> InsertOutcome {
        let w = &mut self.workers[wid.0 as usize];
        if !w.alive {
            return InsertOutcome::default();
        }
        let outcome = w.blocks.insert_traced(key, data, vbytes);
        self.sync_holder(wid, key);
        for (victim, _) in &outcome.dropped {
            self.sync_holder(wid, *victim);
        }
        outcome
    }

    /// Makes `wid`'s membership in `key`'s holder list match what its
    /// block store actually holds.
    fn sync_holder(&mut self, wid: WorkerId, key: BlockKey) {
        if self.workers[wid.0 as usize].blocks.peek(&key).is_none() {
            unlist(&mut self.directory, &mut self.changed, key, wid);
            return;
        }
        let holders = self.directory.entry(key).or_default();
        if holders.is_empty() {
            self.changed.insert(key);
        }
        if let Err(i) = holders.binary_search(&wid) {
            holders.insert(i, wid);
        }
    }

    /// Drains the keys whose cluster-wide availability flipped (first
    /// holder gained, last holder lost) since the previous call.
    pub(crate) fn take_changes(&mut self) -> BTreeSet<BlockKey> {
        std::mem::take(&mut self.changed)
    }

    /// Whether any alive worker holds the block: one directory lookup,
    /// the same answer as `locate(key).is_some()`.
    pub fn holds(&self, key: &BlockKey) -> bool {
        self.directory.contains_key(key)
    }

    /// Finds a block anywhere in the alive cluster: the lowest alive
    /// `WorkerId` holding it, with that worker's location and size.
    pub fn locate(&self, key: &BlockKey) -> Option<(WorkerId, BlockLocation, u64)> {
        let wid = *self.directory.get(key)?.first()?;
        let (loc, bytes) = self.workers[wid.0 as usize].blocks.peek(key)?;
        Some((wid, loc, bytes))
    }

    /// Fetches a block's data from anywhere in the alive cluster.
    pub(crate) fn fetch(
        &mut self,
        key: &BlockKey,
    ) -> Option<(WorkerId, BlockData, BlockLocation, u64)> {
        let (wid, _, _) = self.locate(key)?;
        let w = &mut self.workers[wid.0 as usize];
        let (data, loc, bytes) = w.blocks.get(key)?;
        Some((wid, data, loc, bytes))
    }

    /// Fetches a block's data from anywhere in the alive cluster without
    /// mutating LRU state — the read-snapshot analogue of
    /// `Cluster::fetch`, usable from parallel wave threads. Callers
    /// replay the LRU bump afterwards with `Cluster::touch`.
    pub fn peek_fetch(&self, key: &BlockKey) -> Option<(WorkerId, BlockData, BlockLocation, u64)> {
        let (wid, _, _) = self.locate(key)?;
        let w = &self.workers[wid.0 as usize];
        let (data, loc, bytes) = w.blocks.peek_data(key)?;
        Some((wid, data, loc, bytes))
    }

    /// Bumps a block's LRU stamp on one worker (deferred half of a
    /// [`Cluster::peek_fetch`]). No-op if the worker died or dropped the
    /// block since the peek.
    pub(crate) fn touch(&mut self, wid: WorkerId, key: &BlockKey) {
        if let Some(w) = self.workers.get_mut(wid.0 as usize) {
            if w.alive {
                w.blocks.touch(key);
            }
        }
    }

    /// Removes a block from every worker (e.g. when superseded).
    pub fn remove_everywhere(&mut self, key: &BlockKey) {
        let Some(holders) = self.directory.remove(key) else {
            return;
        };
        for wid in holders {
            self.workers[wid.0 as usize].blocks.remove(key);
        }
        self.changed.insert(*key);
    }

    /// Builds a summary of all cached blocks on alive workers.
    pub fn snapshot(&self) -> BlockStoreSnapshot {
        let mut snap = BlockStoreSnapshot {
            mem_bytes: 0,
            disk_bytes: 0,
            blocks: Vec::new(),
        };
        for wid in &self.alive {
            let w = &self.workers[wid.0 as usize];
            snap.mem_bytes += w.blocks.mem_used();
            snap.disk_bytes += w.blocks.disk_used();
            for k in w.blocks.keys() {
                if let Some((_, bytes)) = w.blocks.peek(&k) {
                    snap.blocks.push((w.id, k, bytes));
                }
            }
        }
        snap.blocks.sort_by_key(|(w, k, _)| (*w, *k));
        snap
    }

    /// Total cache memory across alive workers, in virtual bytes.
    pub fn total_cache_capacity(&self) -> u64 {
        self.alive
            .iter()
            .map(|w| self.workers[w.0 as usize].blocks.mem_capacity())
            .sum()
    }

    /// Returns all workers (alive and dead), for accounting.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }
}

/// Drops `wid` from `key`'s holder list; a key that thereby loses its
/// last holder leaves the directory and is recorded as changed.
fn unlist(
    directory: &mut KeyMap<BlockKey, Vec<WorkerId>>,
    changed: &mut BTreeSet<BlockKey>,
    key: BlockKey,
    wid: WorkerId,
) {
    let Entry::Occupied(mut holders) = directory.entry(key) else {
        return;
    };
    holders.get_mut().retain(|h| *h != wid);
    if holders.get().is_empty() {
        holders.remove();
        changed.insert(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdd::RddId;
    use crate::Value;
    use std::sync::Arc;

    fn spec() -> WorkerSpec {
        WorkerSpec {
            cores: 2,
            cache_mem_bytes: 1000,
            disk_bytes: 1000,
        }
    }

    fn key(i: u32) -> BlockKey {
        BlockKey::RddPart {
            rdd: RddId(0),
            part: i,
        }
    }

    #[test]
    fn add_and_remove_workers() {
        let mut c = Cluster::new();
        let a = c.add_worker(100, spec(), SimTime::ZERO);
        let b = c.add_worker(101, spec(), SimTime::ZERO);
        assert_eq!(c.alive(), vec![a, b]);
        assert_eq!(c.remove_by_ext(100), Some(a));
        assert_eq!(c.remove_by_ext(100), None);
        assert_eq!(c.alive(), vec![b]);
        assert!(!c.worker(a).is_alive());
    }

    #[test]
    fn revocation_drops_blocks() {
        let mut c = Cluster::new();
        let a = c.add_worker(1, spec(), SimTime::ZERO);
        c.insert_block(a, key(0), Arc::new(vec![Value::Int(1)]), 10);
        assert!(c.locate(&key(0)).is_some());
        c.remove_by_ext(1);
        assert!(c.locate(&key(0)).is_none());
    }

    #[test]
    fn locate_searches_all_alive_workers() {
        let mut c = Cluster::new();
        let _a = c.add_worker(1, spec(), SimTime::ZERO);
        let b = c.add_worker(2, spec(), SimTime::ZERO);
        c.insert_block(b, key(7), Arc::new(vec![]), 5);
        let (wid, _, bytes) = c.locate(&key(7)).unwrap();
        assert_eq!(wid, b);
        assert_eq!(bytes, 5);
    }

    #[test]
    fn locate_prefers_lowest_alive_holder_and_reports_flips_only() {
        let mut c = Cluster::new();
        let a = c.add_worker(1, spec(), SimTime::ZERO);
        let b = c.add_worker(2, spec(), SimTime::ZERO);
        c.insert_block(b, key(0), Arc::new(vec![]), 5);
        assert_eq!(c.take_changes().into_iter().collect::<Vec<_>>(), [key(0)]);
        // A second copy and an LRU bump change no availability.
        c.insert_block(a, key(0), Arc::new(vec![]), 7);
        c.touch(a, &key(0));
        assert!(c.take_changes().is_empty());
        assert_eq!(c.locate(&key(0)).map(|(w, _, vb)| (w, vb)), Some((a, 7)));
        // Losing one of two holders is not a flip; losing the last is.
        c.remove_by_ext(1);
        assert!(c.take_changes().is_empty());
        assert_eq!(c.locate(&key(0)).map(|(w, _, vb)| (w, vb)), Some((b, 5)));
        c.remove_everywhere(&key(0));
        assert_eq!(c.take_changes().into_iter().collect::<Vec<_>>(), [key(0)]);
        assert!(c.locate(&key(0)).is_none());
    }

    #[test]
    fn pick_worker_breaks_ties_by_id_and_bounds_the_locality_wait() {
        let mut c = Cluster::new();
        assert_eq!(c.pick_worker(SimTime::ZERO, None), None);
        let a = c.add_worker(1, spec(), SimTime::ZERO);
        let b = c.add_worker(2, spec(), SimTime::ZERO);
        assert_eq!(c.pick_worker(SimTime::ZERO, None), Some(a));
        // A busy preferred worker still wins inside the locality wait...
        c.worker_mut(b).cores_busy_until = vec![SimTime::from_millis(2_000); 2];
        assert_eq!(c.pick_worker(SimTime::ZERO, Some(b)), Some(b));
        // ...but not once it is backed up past it, nor when it is dead.
        c.worker_mut(b).cores_busy_until = vec![SimTime::from_millis(4_000); 2];
        assert_eq!(c.pick_worker(SimTime::ZERO, Some(b)), Some(a));
        c.remove_by_ext(2);
        assert_eq!(c.pick_worker(SimTime::ZERO, Some(b)), Some(a));
    }

    #[test]
    fn earliest_free_core_selection() {
        let mut c = Cluster::new();
        let a = c.add_worker(1, spec(), SimTime::ZERO);
        let w = c.worker_mut(a);
        w.cores_busy_until[0] = SimTime::from_millis(100);
        w.cores_busy_until[1] = SimTime::from_millis(50);
        assert_eq!(w.earliest_free_core(), 1);
        assert_eq!(w.earliest_free(SimTime::ZERO), SimTime::from_millis(50));
        assert_eq!(
            w.earliest_free(SimTime::from_millis(70)),
            SimTime::from_millis(70)
        );
    }

    #[test]
    fn peek_fetch_matches_fetch_without_lru_bump() {
        let mut c = Cluster::new();
        let a = c.add_worker(1, spec(), SimTime::ZERO);
        c.insert_block(a, key(3), Arc::new(vec![Value::Int(7)]), 12);
        let (wid, data, loc, vb) = c.peek_fetch(&key(3)).unwrap();
        assert_eq!((wid, loc, vb), (a, crate::BlockLocation::Memory, 12));
        assert_eq!(data.len(), 1);
        // Touch after peek; on a dead worker it is a no-op.
        c.touch(a, &key(3));
        c.remove_by_ext(1);
        c.touch(a, &key(3));
        assert!(c.peek_fetch(&key(3)).is_none());
    }

    #[test]
    fn snapshot_covers_alive_only() {
        let mut c = Cluster::new();
        let a = c.add_worker(1, spec(), SimTime::ZERO);
        let b = c.add_worker(2, spec(), SimTime::ZERO);
        c.insert_block(a, key(0), Arc::new(vec![]), 10);
        c.insert_block(b, key(1), Arc::new(vec![]), 20);
        c.remove_by_ext(1);
        let snap = c.snapshot();
        assert_eq!(snap.mem_bytes, 20);
        assert_eq!(snap.blocks.len(), 1);
        assert_eq!(snap.blocks[0].0, b);
    }
}
