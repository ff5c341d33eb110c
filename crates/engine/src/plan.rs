//! Readiness planning: which tasks of a job can run right now.
//!
//! A job materializes every partition of a target RDD. The *plan* is the
//! closure of tasks still needed for that — one `Output` task per
//! unavailable target partition, plus, recursively, one `ShuffleMap`
//! task per missing map output of every shuffle some task in the closure
//! reads — and the *ready set* is the tasks in it whose shuffle inputs
//! are all present.
//!
//! The planner works at shuffle granularity and carries its plan across
//! scheduler steps:
//!
//! * a task's dependencies are the *shuffle ids* its narrow cone reaches,
//!   not a private list of `(shuffle, map_part)` pairs; the missing map
//!   parts of a shuffle are probed once and shared by all its consumers;
//! * availability of an `(rdd, part)` is decided once and remembered
//!   together with the tasks that read it;
//! * [`Cluster`] and [`CheckpointStore`] report which blocks changed, and
//!   each step re-derives only the tasks that read a changed block.
//!
//! Anything that cannot be pinned on individual blocks — a new target, a
//! replaced store fault policy, the clock crossing an edge of a store read
//! outage — discards the plan and builds it again from the roots. An
//! outage covers the whole store, so a stored block is readable at `t`
//! exactly when it is present, not torn, and `read_unavailable(t)` is
//! false; presence and tearing change only through keys the store
//! reports. The plan therefore carries across any two passes on the same
//! side of every outage edge. The rebuild is the same code the
//! incremental path uses to add a task, so there is one planner, not two.
//!
//! **The oracle.** In debug builds (the profile `cargo test` and a
//! plain `cargo run` use) every pass ends by building a second plan from
//! the roots and asserting that the carried one equals it field for
//! field ([`Planner::plan`]). Release builds skip it:
//! `cfg!(debug_assertions)` is false there and the comparison compiles
//! away, so a release pass does only the incremental work. DESIGN.md §8
//! "Readiness planning" records what the oracle costs.

use std::collections::{BTreeMap, BTreeSet};

use flint_simtime::SimTime;

use crate::block::{BlockKey, KeyMap};
use crate::checkpoint::CheckpointStore;
use crate::cluster::{Cluster, WorkerId};
use crate::driver::TaskKey;
use crate::lineage::Lineage;
use crate::rdd::{RddId, RddOp};
use crate::shuffle::ShuffleId;

/// Work counters of the readiness planner.
///
/// Plain counters kept outside [`crate::RunStats`] and outside the event
/// stream: they describe how much the host worked to schedule, not what
/// the simulated cluster did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Planning passes: one per scheduler step.
    pub passes: u64,
    /// Passes that discarded the plan and built it from the roots, the
    /// first pass of each job included. The oracle's from-scratch build
    /// is not counted, here or below: its counters are discarded.
    pub rebuilds: u64,
    /// Task nodes derived (cone walked) or re-derived.
    pub nodes_visited: u64,
    /// Block availability lookups against the cluster directory and the
    /// checkpoint store.
    pub availability_probes: u64,
}

/// The read-only inputs of one planning pass.
struct World<'a> {
    lineage: &'a Lineage,
    cluster: &'a Cluster,
    ckpt: &'a CheckpointStore,
    now: SimTime,
}

impl World<'_> {
    /// Whether `key` can be read now: its durable checkpoint is
    /// readable, or a live worker holds it.
    fn available(&self, key: &BlockKey) -> bool {
        self.ckpt.readable(key, self.now) || self.cluster.holds(key)
    }
}

/// One task in the closure. The sets here and below are ascending,
/// duplicate-free `Vec`s: they usually hold one or two entries.
#[derive(Debug, PartialEq)]
struct Node {
    /// Shuffles the task's narrow cone reads.
    deps: Vec<ShuffleId>,
    /// `(rdd, part)` availabilities the cone walk consulted.
    reads: Vec<(RddId, u32)>,
    /// How many of `deps` still miss a map output; ready at zero.
    blocked: usize,
}

/// A shuffle some task in the closure reads.
#[derive(Debug, PartialEq)]
struct ShuffleState {
    /// Map parts with no available output. Each is a `ShuffleMap` task in
    /// the closure.
    missing: Vec<u32>,
    /// Tasks in the closure that read this shuffle; never empty.
    dependents: Vec<TaskKey>,
}

/// A remembered `(rdd, part)` availability.
#[derive(Debug, PartialEq)]
struct PartState {
    available: bool,
    /// Tasks whose cone walk consulted it; never empty.
    readers: Vec<TaskKey>,
}

/// The plan itself: a pure function of the target and of what is
/// available, whichever way it was arrived at. The keyed maps are only
/// looked up, and compared whole by the oracle, which does not depend on
/// their order.
#[derive(Debug, Default, PartialEq)]
struct PlanState {
    /// Target partitions not yet available; empty means the job is done.
    target_missing: BTreeSet<u32>,
    nodes: KeyMap<TaskKey, Node>,
    shuffles: BTreeMap<ShuffleId, ShuffleState>,
    parts: KeyMap<(RddId, u32), PartState>,
    /// Ascending: the driver hands tasks out in this order.
    ready: BTreeSet<TaskKey>,
}

/// Inserts `x` into the ascending, duplicate-free `set`; `false` if it
/// was already there.
fn set_insert<T: Ord>(set: &mut Vec<T>, x: T) -> bool {
    match set.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            set.insert(i, x);
            true
        }
    }
}

/// Removes `x` from the ascending `set`; `false` if it was not there.
fn set_remove<T: Ord>(set: &mut Vec<T>, x: &T) -> bool {
    match set.binary_search(x) {
        Ok(i) => {
            set.remove(i);
            true
        }
        Err(_) => false,
    }
}

/// The partition task `t` materializes, where its cone starts.
fn cone_root(lineage: &Lineage, t: TaskKey) -> (RddId, u32) {
    match t {
        TaskKey::Output { rdd, part } => (rdd, part),
        // A map task for an *available* parent partition still has to
        // run (to produce the map output); its cone is then empty.
        TaskKey::ShuffleMap { shuffle, map_part } => (lineage.shuffle(shuffle).parent, map_part),
        TaskKey::Ckpt(_) => unreachable!("checkpoint writes are not planned here"),
    }
}

/// Walks the narrow cone of `t` down to available partitions, source
/// data or shuffle boundaries. Leaves in `deps` the shuffles it ends at
/// and in `reads` every `(rdd, part)` whose availability it consulted,
/// both ascending; `available` is asked once per read.
fn walk_cone(
    lineage: &Lineage,
    t: TaskKey,
    stack: &mut Vec<(RddId, u32)>,
    deps: &mut Vec<ShuffleId>,
    reads: &mut Vec<(RddId, u32)>,
    mut available: impl FnMut((RddId, u32)) -> bool,
) {
    deps.clear();
    reads.clear();
    stack.clear();
    stack.push(cone_root(lineage, t));
    while let Some((rdd, part)) = stack.pop() {
        if !set_insert(reads, (rdd, part)) || available((rdd, part)) {
            continue;
        }
        let meta = lineage.meta(rdd);
        match &meta.op {
            RddOp::Parallelize { .. } => {}
            RddOp::Union => stack.push(lineage.union_source(rdd, part)),
            RddOp::Coalesce { group } => {
                let parent = meta.parents[0];
                let n = lineage.meta(parent).num_partitions;
                let lo = part * group;
                stack.extend((lo..(lo + group).min(n)).map(|pp| (parent, pp)));
            }
            op => {
                let inputs = op.input_shuffles();
                if inputs.is_empty() {
                    // Narrow single-parent ops are partition-aligned.
                    stack.push((meta.parents[0], part));
                } else {
                    for s in inputs {
                        set_insert(deps, *s);
                    }
                }
            }
        }
    }
}

/// Incremental readiness planner for one driver.
#[derive(Debug, Default)]
pub(crate) struct Planner {
    target: Option<RddId>,
    planned_at: SimTime,
    state: PlanState,
    stats: PlanStats,
    /// A cone walk's stack, reused from pass to pass.
    stack: Vec<(RddId, u32)>,
}

impl Planner {
    /// Returns the runnable tasks for `target` in ascending [`TaskKey`]
    /// order (in-flight ones included) and whether the target is fully
    /// available.
    ///
    /// The cluster and the store are taken mutably only to drain their
    /// change records; planning itself reads them.
    pub(crate) fn plan(
        &mut self,
        lineage: &Lineage,
        cluster: &mut Cluster,
        ckpt: &mut CheckpointStore,
        now: SimTime,
        target: RddId,
    ) -> (Vec<TaskKey>, bool) {
        self.stats.passes += 1;
        let moved = cluster.take_changes();
        let stored = ckpt.take_changes();
        let w = World {
            lineage,
            cluster,
            ckpt,
            now,
        };
        let carried = self.target == Some(target)
            && !stored.all
            && w.ckpt.read_unavailable(self.planned_at) == w.ckpt.read_unavailable(now);
        if carried {
            for key in moved.union(&stored.keys) {
                self.refresh(&w, *key);
            }
        } else {
            self.stats.rebuilds += 1;
            self.rebuild(&w, target);
        }
        self.planned_at = now;
        // The oracle, in debug builds (see the module docs).
        if cfg!(debug_assertions) {
            let mut fresh = Planner::default();
            fresh.build(&w, target);
            assert_eq!(
                self.state, fresh.state,
                "carried plan diverged from a from-scratch plan"
            );
        }
        (
            self.state.ready.iter().copied().collect(),
            self.state.target_missing.is_empty(),
        )
    }

    /// The planner's work counters so far.
    pub(crate) fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Discards the plan and builds it from the target's partitions.
    fn rebuild(&mut self, w: &World<'_>, target: RddId) {
        self.state = PlanState::default();
        self.build(w, target);
    }

    /// Builds the plan for `target` into an empty state.
    fn build(&mut self, w: &World<'_>, target: RddId) {
        self.target = Some(target);
        for part in 0..w.lineage.meta(target).num_partitions {
            self.refresh_root(w, target, part);
        }
    }

    /// Re-examines one block whose availability may have changed and
    /// repairs exactly the part of the plan that read it.
    fn refresh(&mut self, w: &World<'_>, key: BlockKey) {
        match key {
            BlockKey::RddPart { rdd, part } => {
                if self.target == Some(rdd) {
                    self.refresh_root(w, rdd, part);
                }
                let Some(st) = self.state.parts.get_mut(&(rdd, part)) else {
                    return; // nothing in the plan read it
                };
                self.stats.availability_probes += 1;
                let available = w.available(&key);
                if st.available == available {
                    return;
                }
                st.available = available;
                for reader in st.readers.clone() {
                    self.rederive(w, reader);
                }
            }
            BlockKey::ShuffleMap { shuffle, map_part } => {
                let PlanState {
                    shuffles,
                    nodes,
                    ready,
                    ..
                } = &mut self.state;
                let Some(st) = shuffles.get_mut(&shuffle) else {
                    return; // no task in the plan reads this shuffle
                };
                self.stats.availability_probes += 1;
                let task = TaskKey::ShuffleMap { shuffle, map_part };
                if w.available(&key) {
                    if !set_remove(&mut st.missing, &map_part) {
                        return;
                    }
                    if st.missing.is_empty() {
                        // The shuffle is complete: its readers lose a blocker.
                        for t in &st.dependents {
                            let node = nodes.get_mut(t).expect("dependents are in the plan");
                            node.blocked -= 1;
                            if node.blocked == 0 {
                                ready.insert(*t);
                            }
                        }
                    }
                    self.remove_node(task);
                } else {
                    if !set_insert(&mut st.missing, map_part) {
                        return;
                    }
                    if st.missing.len() == 1 {
                        // A complete shuffle lost an output: its readers
                        // gain a blocker.
                        for t in &st.dependents {
                            nodes
                                .get_mut(t)
                                .expect("dependents are in the plan")
                                .blocked += 1;
                            ready.remove(t);
                        }
                    }
                    self.add_node(w, task);
                }
            }
        }
    }

    /// Makes the closure agree with whether a target partition is
    /// available: its `Output` task leaves or joins.
    fn refresh_root(&mut self, w: &World<'_>, target: RddId, part: u32) {
        self.stats.availability_probes += 1;
        let available = w.available(&BlockKey::RddPart { rdd: target, part });
        let root = TaskKey::Output { rdd: target, part };
        if available && self.state.target_missing.remove(&part) {
            self.remove_node(root);
        } else if !available && self.state.target_missing.insert(part) {
            self.add_node(w, root);
        }
    }

    /// Adds `task` to the closure, and with it every map task of every
    /// shuffle that thereby gains its first reader.
    fn add_node(&mut self, w: &World<'_>, task: TaskKey) {
        let mut work = vec![task];
        while let Some(t) = work.pop() {
            if self.state.nodes.contains_key(&t) {
                continue;
            }
            let (deps, reads) = self.derive(w, t);
            for s in &deps {
                self.attach(w, t, *s, &mut work);
            }
            self.insert_node(t, deps, reads);
        }
    }

    /// Removes `task` from the closure, and with it every map task of
    /// every shuffle that thereby loses its last reader.
    fn remove_node(&mut self, task: TaskKey) {
        let mut work = vec![task];
        while let Some(t) = work.pop() {
            let Some(node) = self.state.nodes.remove(&t) else {
                continue;
            };
            self.state.ready.remove(&t);
            for key in &node.reads {
                self.forget_read(t, *key);
            }
            for s in node.deps {
                self.detach(t, s, &mut work);
            }
        }
    }

    /// Walks `t`'s cone again after something it read flipped, and moves
    /// it between shuffles accordingly.
    fn rederive(&mut self, w: &World<'_>, t: TaskKey) {
        let Some(old) = self.state.nodes.remove(&t) else {
            return; // left the plan earlier in this pass
        };
        let (deps, reads) = self.derive(w, t);
        for key in old.reads.iter().filter(|k| reads.binary_search(k).is_err()) {
            self.forget_read(t, *key);
        }
        let mut joined = Vec::new();
        for s in deps.iter().filter(|s| !old.deps.contains(s)) {
            self.attach(w, t, *s, &mut joined);
        }
        let mut left = Vec::new();
        for s in old.deps.iter().filter(|s| !deps.contains(s)) {
            self.detach(t, *s, &mut left);
        }
        self.insert_node(t, deps, reads);
        for n in joined {
            self.add_node(w, n);
        }
        for n in left {
            self.remove_node(n);
        }
    }

    fn insert_node(&mut self, t: TaskKey, deps: Vec<ShuffleId>, reads: Vec<(RddId, u32)>) {
        let blocked = deps
            .iter()
            .filter(|s| !self.state.shuffles[s].missing.is_empty())
            .count();
        if blocked == 0 {
            self.state.ready.insert(t);
        } else {
            self.state.ready.remove(&t);
        }
        self.state.nodes.insert(
            t,
            Node {
                deps,
                reads,
                blocked,
            },
        );
    }

    /// Registers `t` as a reader of shuffle `s`. The first reader makes
    /// the planner probe the shuffle's map outputs — once, for all
    /// readers — and queues a task for each missing one on `work`.
    fn attach(&mut self, w: &World<'_>, t: TaskKey, s: ShuffleId, work: &mut Vec<TaskKey>) {
        let stats = &mut self.stats;
        let st = self.state.shuffles.entry(s).or_insert_with(|| {
            let parent = w.lineage.shuffle(s).parent;
            let map_parts = w.lineage.meta(parent).num_partitions;
            stats.availability_probes += u64::from(map_parts);
            let missing: Vec<u32> = (0..map_parts)
                .filter(|&map_part| {
                    !w.available(&BlockKey::ShuffleMap {
                        shuffle: s,
                        map_part,
                    })
                })
                .collect();
            work.extend(missing.iter().map(|mp| TaskKey::ShuffleMap {
                shuffle: s,
                map_part: *mp,
            }));
            ShuffleState {
                missing,
                dependents: Vec::new(),
            }
        });
        set_insert(&mut st.dependents, t);
    }

    /// Unregisters `t` as a reader of `s`. When the last reader goes the
    /// shuffle's map tasks are queued on `work` for removal.
    fn detach(&mut self, t: TaskKey, s: ShuffleId, work: &mut Vec<TaskKey>) {
        let st = self
            .state
            .shuffles
            .get_mut(&s)
            .expect("a dependency is a tracked shuffle");
        set_remove(&mut st.dependents, &t);
        if st.dependents.is_empty() {
            let st = self.state.shuffles.remove(&s).expect("present above");
            work.extend(st.missing.into_iter().map(|mp| TaskKey::ShuffleMap {
                shuffle: s,
                map_part: mp,
            }));
        }
    }

    fn forget_read(&mut self, t: TaskKey, key: (RddId, u32)) {
        if let Some(st) = self.state.parts.get_mut(&key) {
            set_remove(&mut st.readers, &t);
            if st.readers.is_empty() {
                self.state.parts.remove(&key);
            }
        }
    }

    /// Walks the cone of `t` ([`walk_cone`]), remembering each
    /// availability it consults (probed on first sight) with `t` as a
    /// reader. Returns the shuffles it ends at and what it read.
    fn derive(&mut self, w: &World<'_>, t: TaskKey) -> (Vec<ShuffleId>, Vec<(RddId, u32)>) {
        self.stats.nodes_visited += 1;
        let Planner {
            state,
            stats,
            stack,
            ..
        } = self;
        let (mut deps, mut reads) = (Vec::new(), Vec::new());
        walk_cone(w.lineage, t, stack, &mut deps, &mut reads, |(rdd, part)| {
            let st = state.parts.entry((rdd, part)).or_insert_with(|| {
                stats.availability_probes += 1;
                PartState {
                    available: w.available(&BlockKey::RddPart { rdd, part }),
                    readers: Vec::new(),
                }
            });
            set_insert(&mut st.readers, t);
            st.available
        });
        (deps, reads)
    }
}

/// Prefers the worker already caching the narrow-chain input of
/// `(rdd, part)`.
pub(crate) fn preferred_worker(
    lineage: &Lineage,
    cluster: &Cluster,
    rdd: RddId,
    part: u32,
) -> Option<WorkerId> {
    let mut cur = (rdd, part);
    loop {
        if let Some((wid, _, _)) = cluster.locate(&BlockKey::RddPart {
            rdd: cur.0,
            part: cur.1,
        }) {
            return Some(wid);
        }
        let meta = lineage.meta(cur.0);
        match &meta.op {
            RddOp::Union => {
                cur = lineage.union_source(cur.0, cur.1);
            }
            RddOp::Coalesce { group } => {
                cur = (meta.parents[0], cur.1 * group);
            }
            op if op.is_shuffle() || matches!(op, RddOp::Parallelize { .. }) => {
                return None;
            }
            _ => {
                cur = (meta.parents[0], cur.1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{StoreFaultPolicy, WriteFault};
    use crate::cluster::WorkerSpec;
    use crate::context::EngineContext;
    use crate::rdd::RddRef;
    use crate::value::Value;
    use flint_simtime::SimDuration;
    use flint_store::StorageConfig;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// The missing `(shuffle, map_part)` inputs of one node of
    /// [`reference_plan`], probed afresh for every node that asks.
    fn reference_missing_deps(
        w: &World<'_>,
        rdd: RddId,
        part: u32,
        acc: &mut BTreeSet<(ShuffleId, u32)>,
    ) {
        if w.available(&BlockKey::RddPart { rdd, part }) {
            return;
        }
        let meta = w.lineage.meta(rdd);
        match &meta.op {
            RddOp::Parallelize { .. } => {}
            RddOp::Union => {
                let (p, pp) = w.lineage.union_source(rdd, part);
                reference_missing_deps(w, p, pp, acc);
            }
            RddOp::Coalesce { group } => {
                let parent = meta.parents[0];
                let n = w.lineage.meta(parent).num_partitions;
                let lo = part * group;
                let hi = (lo + group).min(n);
                for pp in lo..hi {
                    reference_missing_deps(w, parent, pp, acc);
                }
            }
            op if op.is_shuffle() => {
                for &s in op.input_shuffles() {
                    let parent = w.lineage.shuffle(s).parent;
                    let m = w.lineage.meta(parent).num_partitions;
                    for mp in 0..m {
                        if !w.available(&BlockKey::ShuffleMap {
                            shuffle: s,
                            map_part: mp,
                        }) {
                            acc.insert((s, mp));
                        }
                    }
                }
            }
            _ => reference_missing_deps(w, meta.parents[0], part, acc),
        }
    }

    /// The planner this module replaced, transcribed: a BFS over the
    /// missing cone from the target in which every node collects its own
    /// set of missing `(shuffle, map_part)` pairs. The reference the
    /// shuffle-granular, carried plan must reproduce at every step.
    fn reference_plan(w: &World<'_>, target: RddId) -> (Vec<TaskKey>, bool) {
        let n = w.lineage.meta(target).num_partitions;
        let missing: Vec<u32> = (0..n)
            .filter(|&part| !w.available(&BlockKey::RddPart { rdd: target, part }))
            .collect();
        if missing.is_empty() {
            return (Vec::new(), true);
        }
        let mut ready: BTreeSet<TaskKey> = BTreeSet::new();
        let mut seen: BTreeSet<TaskKey> = BTreeSet::new();
        let mut queue: VecDeque<TaskKey> = missing
            .into_iter()
            .map(|part| TaskKey::Output { rdd: target, part })
            .collect();
        while let Some(task) = queue.pop_front() {
            if !seen.insert(task) {
                continue;
            }
            let (rdd, part) = match task {
                TaskKey::Output { rdd, part } => (rdd, part),
                TaskKey::ShuffleMap { shuffle, map_part } => {
                    (w.lineage.shuffle(shuffle).parent, map_part)
                }
                TaskKey::Ckpt(_) => continue,
            };
            let mut deps = BTreeSet::new();
            reference_missing_deps(w, rdd, part, &mut deps);
            if deps.is_empty() {
                ready.insert(task);
            } else {
                for (s, mp) in deps {
                    queue.push_back(TaskKey::ShuffleMap {
                        shuffle: s,
                        map_part: mp,
                    });
                }
            }
        }
        (ready.into_iter().collect(), false)
    }

    /// Reads fail inside any of the half-open `windows`; every
    /// `torn_every`-th write lands torn (0 = never).
    #[derive(Debug)]
    struct Flaky {
        windows: Vec<(SimTime, SimTime)>,
        torn_every: u32,
        writes: u32,
    }

    impl StoreFaultPolicy for Flaky {
        fn on_write(&mut self, _key: &str, _now: SimTime) -> WriteFault {
            self.writes += 1;
            if self.torn_every > 0 && self.writes.is_multiple_of(self.torn_every) {
                WriteFault::Torn
            } else {
                WriteFault::None
            }
        }

        fn read_unavailable(&self, now: SimTime) -> bool {
            self.windows
                .iter()
                .any(|(from, to)| now >= *from && now < *to)
        }
    }

    struct Fixture {
        ctx: EngineContext,
        cluster: Cluster,
        ckpt: CheckpointStore,
        now: SimTime,
        stages: Vec<RddRef>,
        planner: Planner,
        /// Outage window edges, ascending: where `Step::ToEdge` lands.
        edges: Vec<SimTime>,
    }

    impl Fixture {
        fn new(shape: &[Shape]) -> Self {
            let mut ctx = EngineContext::new();
            let src = ctx.parallelize((0..24).map(Value::from_i64), 4);
            let mut stages = vec![src];
            for (i, sh) in shape.iter().enumerate() {
                let cur = *stages.last().expect("non-empty");
                let earlier = stages[i % stages.len()];
                let next = match *sh {
                    Shape::Map => ctx.map(cur, Value::clone),
                    Shape::Reduce(p) => ctx.reduce_by_key(cur, p, |a, _| a.clone()),
                    Shape::Sort(p) => ctx.sort_by_key(cur, p, true),
                    Shape::Join(p) => ctx.join(cur, earlier, p),
                    Shape::Union => ctx.union(cur, earlier),
                    Shape::Coalesce(p) => ctx.coalesce(cur, p),
                };
                stages.push(next);
            }
            Fixture {
                ctx,
                cluster: Cluster::new(),
                ckpt: CheckpointStore::new(StorageConfig::default()),
                now: SimTime::ZERO,
                stages,
                planner: Planner::default(),
                edges: Vec::new(),
            }
        }

        fn rdd(&self, i: usize) -> RddId {
            RddId((i % self.ctx.lineage().len()) as u32)
        }

        fn rdd_part(&self, i: usize, part: u32) -> (RddId, u32) {
            let rdd = self.rdd(i);
            (rdd, part % self.ctx.lineage().meta(rdd).num_partitions)
        }

        /// Every shuffle of the DAG, ascending.
        fn shuffles(&self) -> Vec<ShuffleId> {
            let l = self.ctx.lineage();
            let mut shuffles: Vec<ShuffleId> = l
                .ids()
                .flat_map(|r| l.meta(r).op.input_shuffles().iter().copied())
                .collect();
            shuffles.sort();
            shuffles
        }

        /// `None` when the DAG has no shuffle.
        fn shuffle_part(&self, i: usize, part: u32) -> Option<(ShuffleId, u32)> {
            let l = self.ctx.lineage();
            let shuffles = self.shuffles();
            let s = *shuffles.get(i % shuffles.len().max(1))?;
            Some((s, part % l.meta(l.shuffle(s).parent).num_partitions))
        }

        fn worker(&self, i: usize) -> Option<WorkerId> {
            let n = self.cluster.workers().len();
            (n > 0).then(|| WorkerId((i % n) as u32))
        }

        /// Plans for `target` and checks the answer against the
        /// reference. (In debug builds the oracle inside `plan`
        /// additionally checks the carried state against a from-scratch
        /// plan.)
        fn plan_and_check(&mut self, target: RddId) {
            let got = self.planner.plan(
                self.ctx.lineage(),
                &mut self.cluster,
                &mut self.ckpt,
                self.now,
                target,
            );
            let w = World {
                lineage: self.ctx.lineage(),
                cluster: &self.cluster,
                ckpt: &self.ckpt,
                now: self.now,
            };
            assert_eq!(got, reference_plan(&w, target));
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Map,
        Reduce(u32),
        Sort(u32),
        Join(u32),
        Union,
        Coalesce(u32),
    }

    fn shape_strategy() -> impl Strategy<Value = Shape> {
        prop_oneof![
            Just(Shape::Map),
            (1u32..5).prop_map(Shape::Reduce),
            (1u32..4).prop_map(Shape::Sort),
            (1u32..5).prop_map(Shape::Join),
            Just(Shape::Union),
            (1u32..4).prop_map(Shape::Coalesce),
        ]
    }

    #[derive(Debug, Clone, Copy)]
    enum Step {
        AddWorker {
            ext: u64,
            mem: u64,
        },
        Revoke {
            ext: u64,
        },
        CachePart {
            rdd: usize,
            part: u32,
            worker: usize,
        },
        CacheMapOutput {
            shuffle: usize,
            part: u32,
            worker: usize,
        },
        Uncache {
            rdd: usize,
            part: u32,
        },
        UncacheMapOutput {
            shuffle: usize,
            part: u32,
        },
        Checkpoint {
            rdd: usize,
            part: u32,
        },
        CheckpointMapOutput {
            shuffle: usize,
            part: u32,
        },
        DropCheckpoints {
            rdd: usize,
        },
        Advance {
            ms: u64,
        },
        /// Moves the clock forward to `nudge` ms off the `skip`-th
        /// outage edge after now: onto it, or just before or past it,
        /// or over whole windows.
        ToEdge {
            skip: usize,
            nudge: i64,
        },
        Degrade {
            from: u64,
            len: u64,
            torn_every: u32,
        },
        Retarget {
            rdd: usize,
        },
    }

    /// Everything but the clock and the fault policy: cache churn,
    /// revocations, checkpoint writes and GC.
    fn churn_arms() -> Vec<BoxedStrategy<Step>> {
        let cache = || {
            (0usize..40, 0u32..8, 0usize..6).prop_map(|(rdd, part, worker)| Step::CachePart {
                rdd,
                part,
                worker,
            })
        };
        let cache_map = || {
            (0usize..12, 0u32..8, 0usize..6).prop_map(|(shuffle, part, worker)| {
                Step::CacheMapOutput {
                    shuffle,
                    part,
                    worker,
                }
            })
        };
        vec![
            (0u64..4, 50u64..400)
                .prop_map(|(ext, mem)| Step::AddWorker { ext, mem })
                .boxed(),
            (0u64..4).prop_map(|ext| Step::Revoke { ext }).boxed(),
            cache().boxed(),
            cache().boxed(),
            cache_map().boxed(),
            cache_map().boxed(),
            cache_map().boxed(),
            (0usize..40, 0u32..8)
                .prop_map(|(rdd, part)| Step::Uncache { rdd, part })
                .boxed(),
            (0usize..12, 0u32..8)
                .prop_map(|(shuffle, part)| Step::UncacheMapOutput { shuffle, part })
                .boxed(),
            (0usize..40, 0u32..8)
                .prop_map(|(rdd, part)| Step::Checkpoint { rdd, part })
                .boxed(),
            (0usize..12, 0u32..8)
                .prop_map(|(shuffle, part)| Step::CheckpointMapOutput { shuffle, part })
                .boxed(),
            (0usize..40)
                .prop_map(|rdd| Step::DropCheckpoints { rdd })
                .boxed(),
        ]
    }

    fn retarget() -> BoxedStrategy<Step> {
        (0usize..40).prop_map(|rdd| Step::Retarget { rdd }).boxed()
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        let mut arms = churn_arms();
        arms.push((0u64..3_000).prop_map(|ms| Step::Advance { ms }).boxed());
        arms.push(
            (0u64..6_000, 0u64..4_000, 0u32..4)
                .prop_map(|(from, len, torn_every)| Step::Degrade {
                    from,
                    len,
                    torn_every,
                })
                .boxed(),
        );
        arms.push(retarget());
        proptest::Union::new(arms)
    }

    /// Churn interleaved with clock steps that hit outage edges
    /// exactly, stop just short of or just past them, jump over whole
    /// windows, or move a little inside one. The fault policy is never
    /// replaced, so only the clock can force a rebuild.
    fn outage_step_strategy() -> impl Strategy<Value = Step> {
        let to_edge = || {
            (0usize..3, -1i64..2)
                .prop_map(|(skip, nudge)| Step::ToEdge { skip, nudge })
                .boxed()
        };
        let mut arms = churn_arms();
        arms.extend([to_edge(), to_edge(), to_edge(), to_edge()]);
        arms.push((0u64..400).prop_map(|ms| Step::Advance { ms }).boxed());
        arms.push(retarget());
        proptest::Union::new(arms)
    }

    /// Half-open outage windows laid out from a cursor: each starts at
    /// the previous end (adjacent), after a gap, or before it
    /// (overlapping), and may be empty.
    fn windows_strategy() -> impl Strategy<Value = Vec<(SimTime, SimTime)>> {
        let len = prop_oneof![Just(0u64), 1u64..1_500];
        proptest::collection::vec((0u8..3, 1u64..1_500, len), 1..6).prop_map(|specs| {
            let mut cursor = 0u64;
            specs
                .into_iter()
                .map(|(kind, shift, len)| {
                    let start = match kind {
                        0 => cursor,
                        1 => cursor + shift,
                        _ => cursor.saturating_sub(shift),
                    };
                    cursor = start + len;
                    (SimTime::from_millis(start), SimTime::from_millis(cursor))
                })
                .collect()
        })
    }

    fn rows() -> Arc<Vec<Value>> {
        Arc::new(vec![Value::Int(0)])
    }

    fn apply(f: &mut Fixture, target: &mut RddId, step: Step) {
        match step {
            Step::AddWorker { ext, mem } => {
                let spec = WorkerSpec {
                    cores: 1,
                    cache_mem_bytes: mem,
                    disk_bytes: mem / 2,
                };
                f.cluster.add_worker(ext, spec, f.now);
            }
            Step::Revoke { ext } => {
                f.cluster.remove_by_ext(ext);
            }
            Step::CachePart { rdd, part, worker } => {
                let (rdd, part) = f.rdd_part(rdd, part);
                if let Some(w) = f.worker(worker) {
                    f.cluster
                        .insert_block(w, BlockKey::RddPart { rdd, part }, rows(), 100);
                }
            }
            Step::CacheMapOutput {
                shuffle,
                part,
                worker,
            } => {
                if let (Some((shuffle, map_part)), Some(w)) =
                    (f.shuffle_part(shuffle, part), f.worker(worker))
                {
                    f.cluster.insert_block(
                        w,
                        BlockKey::ShuffleMap { shuffle, map_part },
                        rows(),
                        100,
                    );
                }
            }
            Step::Uncache { rdd, part } => {
                let (rdd, part) = f.rdd_part(rdd, part);
                f.cluster
                    .remove_everywhere(&BlockKey::RddPart { rdd, part });
            }
            Step::UncacheMapOutput { shuffle, part } => {
                if let Some((shuffle, map_part)) = f.shuffle_part(shuffle, part) {
                    f.cluster
                        .remove_everywhere(&BlockKey::ShuffleMap { shuffle, map_part });
                }
            }
            Step::Checkpoint { rdd, part } => {
                let (rdd, part) = f.rdd_part(rdd, part);
                let n = f.ctx.lineage().meta(rdd).num_partitions;
                f.ckpt.put(rdd, part, n, rows(), 100, f.now);
            }
            Step::CheckpointMapOutput { shuffle, part } => {
                if let Some((s, mp)) = f.shuffle_part(shuffle, part) {
                    f.ckpt.put_shuffle(s, mp, rows(), 100, f.now);
                }
            }
            Step::DropCheckpoints { rdd } => {
                let rdd = f.rdd(rdd);
                f.ckpt.drop_rdd(rdd, f.now);
            }
            Step::Advance { ms } => f.now += SimDuration::from_millis(ms),
            Step::ToEdge { skip, nudge } => {
                let edge = f.edges.iter().filter(|e| **e > f.now).nth(skip);
                if let Some(edge) = edge {
                    let at = edge.since_epoch().as_millis().saturating_add_signed(nudge);
                    f.now = f.now.max(SimTime::from_millis(at));
                }
            }
            Step::Degrade {
                from,
                len,
                torn_every,
            } => f.ckpt.set_fault_policy(Box::new(Flaky {
                windows: vec![(SimTime::from_millis(from), SimTime::from_millis(from + len))],
                torn_every,
                writes: 0,
            })),
            Step::Retarget { rdd } => *target = f.rdd(rdd),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(150))]

        /// Through any sequence of cache churn, revocations, checkpoint
        /// writes and GC, store degradation and clock movement, the
        /// carried shuffle-granular plan answers exactly what the old
        /// per-node BFS answers from scratch.
        #[test]
        fn carried_plan_equals_reference(
            shape in proptest::collection::vec(shape_strategy(), 1..8),
            steps in proptest::collection::vec(step_strategy(), 1..80),
        ) {
            let mut f = Fixture::new(&shape);
            let mut target = f.stages.last().expect("non-empty").id();
            f.plan_and_check(target);
            for step in steps {
                apply(&mut f, &mut target, step);
                f.plan_and_check(target);
            }
        }
    }

    /// Under a fixed set of store outage windows the plan is carried
    /// through every pass that stays on one side of each window edge and
    /// rebuilt exactly when the clock crosses one (or the target
    /// changes), and the answer equals the reference at every step.
    #[test]
    fn carried_plan_equals_reference_across_outage_windows() {
        let mut rng = proptest::rng_for("carried_plan_equals_reference_across_outage_windows");
        let (mut passes, mut carried_inside) = (0u64, 0u64);
        for _ in 0..150 {
            let shape = proptest::collection::vec(shape_strategy(), 1..8).generate(&mut rng);
            let windows = windows_strategy().generate(&mut rng);
            let steps = proptest::collection::vec(outage_step_strategy(), 1..80).generate(&mut rng);
            let mut f = Fixture::new(&shape);
            f.edges = windows.iter().flat_map(|(s, e)| [*s, *e]).collect();
            f.edges.sort();
            f.edges.dedup();
            f.ckpt.set_fault_policy(Box::new(Flaky {
                windows,
                torn_every: 3,
                writes: 0,
            }));
            let mut target = f.stages.last().expect("non-empty").id();
            f.plan_and_check(target);
            let (mut last_target, mut last_now) = (target, f.now);
            for step in steps {
                apply(&mut f, &mut target, step);
                let rebuilds = f.planner.stats().rebuilds;
                f.plan_and_check(target);
                let rebuilt = f.planner.stats().rebuilds > rebuilds;
                let outage = f.ckpt.read_unavailable(f.now);
                let crossed = outage != f.ckpt.read_unavailable(last_now);
                assert_eq!(
                    rebuilt,
                    crossed || target != last_target,
                    "at {:?} after {step:?}",
                    f.now
                );
                passes += 1;
                carried_inside += u64::from(outage && !rebuilt);
                (last_target, last_now) = (target, f.now);
            }
        }
        // Non-vacuous: plans really were carried inside outage windows.
        assert!(
            carried_inside * 20 > passes,
            "{carried_inside} of {passes} passes carried a plan inside a window"
        );
    }

    /// A carried plan that differs from a from-scratch one makes the next
    /// pass panic. The derived `PartialEq` compares every field; this pins
    /// that `plan` runs the comparison.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "carried plan diverged")]
    fn plan_panics_on_a_diverged_carried_plan() {
        // src(4) -> reduce(4) -> map -> reduce(3) with the first shuffle
        // complete, one map partition cached and one map output of the
        // second shuffle present.
        let mut f = Fixture::new(&[Shape::Reduce(4), Shape::Map, Shape::Reduce(3)]);
        let target = f.stages[3].id();
        let w0 = f.cluster.add_worker(
            1,
            WorkerSpec {
                cores: 1,
                cache_mem_bytes: 1 << 30,
                disk_bytes: 0,
            },
            f.now,
        );
        let (shuffles, mapped) = (f.shuffles(), f.stages[2].id());
        let mut cache = |key| f.cluster.insert_block(w0, key, rows(), 10);
        for map_part in 0..4 {
            cache(BlockKey::ShuffleMap {
                shuffle: shuffles[0],
                map_part,
            });
        }
        cache(BlockKey::RddPart {
            rdd: mapped,
            part: 0,
        });
        cache(BlockKey::ShuffleMap {
            shuffle: shuffles[1],
            map_part: 2,
        });
        f.plan_and_check(target);
        let part = f.planner.state.parts.values_mut().next();
        let part = part.expect("the plan read some partition");
        part.available = !part.available;
        f.plan_and_check(target);
    }

    #[test]
    fn monotone_commits_do_not_rewalk_the_cone() {
        // src(4) -> reduce(4) -> reduce(4): fill in map outputs one at a
        // time, the way task commits do, and count the planner's work.
        let mut f = Fixture::new(&[Shape::Reduce(4), Shape::Reduce(4)]);
        let target = f.stages[2].id();
        let w0 = f.cluster.add_worker(
            1,
            WorkerSpec {
                cores: 1,
                cache_mem_bytes: 1 << 30,
                disk_bytes: 0,
            },
            f.now,
        );
        f.plan_and_check(target);
        let after_build = f.planner.stats();
        // 4 outputs + 4 map tasks of each of the two shuffles.
        assert_eq!(after_build.nodes_visited, 12);

        for s in f.shuffles() {
            for mp in 0..4 {
                f.cluster.insert_block(
                    w0,
                    BlockKey::ShuffleMap {
                        shuffle: s,
                        map_part: mp,
                    },
                    rows(),
                    10,
                );
                f.plan_and_check(target);
            }
        }
        for part in 0..4 {
            f.cluster
                .insert_block(w0, BlockKey::RddPart { rdd: target, part }, rows(), 10);
            f.plan_and_check(target);
        }
        let done = f.planner.stats();
        assert_eq!(done.passes, 13);
        // Nothing was re-derived, and each commit cost a constant number
        // of probes (one per changed block; two for a target partition).
        assert_eq!(done.nodes_visited, after_build.nodes_visited);
        assert_eq!(
            done.availability_probes - after_build.availability_probes,
            8 + 4
        );
        assert!(f.planner.state.nodes.is_empty());
        assert!(f.planner.state.target_missing.is_empty());
    }
}
