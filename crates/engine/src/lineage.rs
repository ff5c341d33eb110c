//! The lineage graph: every RDD ever created and how to recreate it.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use crate::column::ColumnBatch;
use crate::rdd::{RddId, RddMeta, RddOp};
use crate::shuffle::{Combine, ShuffleId, ShuffleInfo, ShuffleKind};

/// The directed acyclic graph of RDDs and shuffle edges.
///
/// The lineage graph is the engine's recovery metadata (§2.2): given any
/// lost partition, walking parents (and cached/checkpointed cut points)
/// yields a recomputation plan. It also exposes the *execution frontier*
/// ([`Lineage::execution_frontier`]) — the set Flint's checkpoint policy
/// (Policy 1) marks for checkpointing.
#[derive(Debug, Default)]
pub struct Lineage {
    metas: Vec<RddMeta>,
    shuffles: Vec<ShuffleInfo>,
    /// Children per RDD, indexed by id.
    children: Vec<Vec<RddId>>,
    persisted: HashSet<RddId>,
    /// Known materialized size per partition, indexed by RDD id.
    part_sizes: Vec<Vec<Option<u64>>>,
    /// Partitions with no recorded size yet, per RDD id. Sizes are only
    /// ever set, so an RDD at zero stays fully materialized.
    missing: Vec<u32>,
    /// The execution frontier, kept as sizes are recorded (see
    /// [`Lineage::execution_frontier`]).
    frontier: BTreeSet<RddId>,
    /// Per-partition lazy columnar encodings of `Parallelize` sources:
    /// computed once on first materialization under the columnar path,
    /// shared by every later task (`None` inside the cell = the
    /// partition does not encode).
    source_batches: HashMap<RddId, Vec<OnceLock<Option<Arc<ColumnBatch>>>>>,
}

impl Lineage {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Lineage::default()
    }

    /// Registers a new RDD and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a parent id is unknown or `num_partitions` is zero.
    pub fn add_rdd(
        &mut self,
        name: impl Into<String>,
        op: RddOp,
        parents: Vec<RddId>,
        num_partitions: u32,
    ) -> RddId {
        assert!(num_partitions > 0, "an RDD needs at least one partition");
        for p in &parents {
            assert!(
                (p.0 as usize) < self.metas.len(),
                "unknown parent RDD {p:?}"
            );
        }
        let id = RddId(self.metas.len() as u32);
        for p in &parents {
            self.children[p.0 as usize].push(id);
        }
        if matches!(op, RddOp::Parallelize { .. }) {
            self.source_batches
                .insert(id, (0..num_partitions).map(|_| OnceLock::new()).collect());
        }
        self.metas.push(RddMeta {
            id,
            name: name.into(),
            op,
            parents,
            num_partitions,
        });
        self.children.push(Vec::new());
        self.part_sizes.push(vec![None; num_partitions as usize]);
        self.missing.push(num_partitions);
        id
    }

    /// Registers a shuffle edge reading from `parent`.
    pub fn add_shuffle(&mut self, parent: RddId, kind: ShuffleKind) -> ShuffleId {
        let id = ShuffleId(self.shuffles.len() as u32);
        self.shuffles.push(ShuffleInfo {
            parent,
            kind,
            combine: None,
        });
        id
    }

    /// Registers a hash shuffle into `parts` partitions that folds pairs
    /// by key with `combine` (keyed aggregations, mirroring Spark's
    /// `reduceByKey`). Only a hash shuffle combines: a range shuffle's map
    /// outputs stay the rows its partitioner is sampled from.
    pub(crate) fn add_combining_shuffle(
        &mut self,
        parent: RddId,
        parts: u32,
        combine: Combine,
    ) -> ShuffleId {
        let id = self.add_shuffle(parent, ShuffleKind::Hash { parts });
        self.shuffles[id.0 as usize].combine = Some(combine);
        id
    }

    /// Returns the metadata of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn meta(&self, id: RddId) -> &RddMeta {
        &self.metas[id.0 as usize]
    }

    /// Returns `true` if `id` names a registered RDD.
    pub(crate) fn contains(&self, id: RddId) -> bool {
        (id.0 as usize) < self.metas.len()
    }

    /// Returns the shuffle info for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn shuffle(&self, id: ShuffleId) -> &ShuffleInfo {
        &self.shuffles[id.0 as usize]
    }

    /// The lazily-encoded columnar form of a `Parallelize` partition:
    /// runs `encode` on the first call (per partition) and returns the
    /// shared batch afterwards; `None` when the partition has no
    /// columnar layout. Thread-safe — wave tasks race benignly on the
    /// `OnceLock`.
    pub(crate) fn source_batch(
        &self,
        rdd: RddId,
        part: u32,
        encode: impl FnOnce() -> Option<ColumnBatch>,
    ) -> Option<Arc<ColumnBatch>> {
        self.source_batches
            .get(&rdd)?
            .get(part as usize)?
            .get_or_init(|| encode().map(Arc::new))
            .clone()
    }

    /// Returns the children of `id` (RDDs that list it as a parent).
    pub(crate) fn children(&self, id: RddId) -> &[RddId] {
        self.children.get(id.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Returns the number of registered RDDs.
    pub(crate) fn len(&self) -> usize {
        self.metas.len()
    }

    /// Returns all RDD ids in creation order.
    pub fn ids(&self) -> impl Iterator<Item = RddId> + '_ {
        (0..self.metas.len() as u32).map(RddId)
    }

    /// Marks `id` for in-memory caching, like Spark's `persist()`.
    pub fn persist(&mut self, id: RddId) {
        assert!(self.contains(id), "unknown RDD {id:?}");
        self.persisted.insert(id);
    }

    /// Returns `true` if `id` is marked persistent.
    pub fn is_persisted(&self, id: RddId) -> bool {
        self.persisted.contains(&id)
    }

    /// Records the materialized size of `(rdd, part)` in real bytes.
    /// The first size of an RDD's last missing partition moves the
    /// frontier: the RDD joins it unless a child is already fully
    /// materialized, and its parents leave it.
    pub fn record_partition_size(&mut self, rdd: RddId, part: u32, bytes: u64) {
        let Some(slot) = self
            .part_sizes
            .get_mut(rdd.0 as usize)
            .and_then(|sizes| sizes.get_mut(part as usize))
        else {
            return;
        };
        if slot.replace(bytes).is_some() {
            return;
        }
        let missing = &mut self.missing[rdd.0 as usize];
        *missing -= 1;
        if *missing > 0 {
            return;
        }
        if !self.has_materialized_child(rdd) {
            self.frontier.insert(rdd);
        }
        for p in &self.metas[rdd.0 as usize].parents {
            self.frontier.remove(p);
        }
    }

    /// Returns the total known size of `rdd` in real bytes (sum over
    /// partitions with recorded sizes).
    pub(crate) fn known_size(&self, rdd: RddId) -> u64 {
        self.part_sizes
            .get(rdd.0 as usize)
            .map_or(0, |s| s.iter().flatten().sum())
    }

    /// Returns `true` if every partition of `rdd` has a recorded size,
    /// i.e. the RDD has been fully materialized at least once.
    pub(crate) fn is_fully_materialized(&self, rdd: RddId) -> bool {
        self.missing.get(rdd.0 as usize) == Some(&0)
    }

    /// Returns `true` if any child of `rdd` has been fully materialized.
    pub fn has_materialized_child(&self, rdd: RddId) -> bool {
        self.children(rdd)
            .iter()
            .any(|c| self.is_fully_materialized(*c))
    }

    /// Returns the *execution* frontier: fully-materialized RDDs none of
    /// whose children have been fully materialized yet. This is the
    /// paper's frontier ("the most recent RDDs for which all partitions
    /// have been computed, and whose dependencies have not been fully
    /// generated", §3.1.1) — the set Policy 1 checkpoints. Unlike the
    /// static sink set, it advances stage by stage even when a program's
    /// whole DAG is declared before any action runs. Kept as sizes are
    /// recorded, in id order: no scan of the lineage.
    pub fn execution_frontier(&self) -> Vec<RddId> {
        self.frontier.iter().copied().collect()
    }

    /// Renders the graph in Graphviz DOT format: RDD nodes labelled with
    /// operator kind and partition count, solid edges for narrow
    /// dependencies, bold red edges for shuffles.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph lineage {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for id in self.ids() {
            let m = self.meta(id);
            let style = if self.is_persisted(id) {
                ", style=filled, fillcolor=lightblue"
            } else {
                ""
            };
            out.push_str(&format!(
                "  r{} [label=\"#{} {}\\n{} parts\"{}];\n",
                id.0,
                id.0,
                m.op.kind(),
                m.num_partitions,
                style
            ));
        }
        for id in self.ids() {
            let m = self.meta(id);
            let wide = m.op.is_shuffle();
            for p in &m.parents {
                if wide {
                    out.push_str(&format!(
                        "  r{} -> r{} [color=red, penwidth=2];\n",
                        p.0, id.0
                    ));
                } else {
                    out.push_str(&format!("  r{} -> r{};\n", p.0, id.0));
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// For a `Union` RDD, maps an output partition to the parent RDD and
    /// parent partition it passes through.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a union or `part` is out of range.
    pub(crate) fn union_source(&self, id: RddId, part: u32) -> (RddId, u32) {
        let meta = self.meta(id);
        assert!(matches!(meta.op, RddOp::Union), "not a union RDD");
        let mut offset = 0;
        for parent in &meta.parents {
            let n = self.meta(*parent).num_partitions;
            if part < offset + n {
                return (*parent, part - offset);
            }
            offset += n;
        }
        panic!("union partition {part} out of range for {id:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn map_op() -> RddOp {
        RddOp::Map {
            f: Arc::new(|v| v.clone()),
            kernel: None,
        }
    }

    fn source_op(parts: u32) -> RddOp {
        RddOp::Parallelize {
            data: Arc::new((0..parts).map(|_| Vec::new()).collect()),
        }
    }

    #[test]
    fn build_and_query_graph() {
        let mut l = Lineage::new();
        let a = l.add_rdd("src", source_op(4), vec![], 4);
        let b = l.add_rdd("m1", map_op(), vec![a], 4);
        let c = l.add_rdd("m2", map_op(), vec![b], 4);
        assert_eq!(l.len(), 3);
        assert_eq!(l.children(a), &[b]);
        assert_eq!(l.children(c), &[] as &[RddId]);
    }

    #[test]
    fn size_recording() {
        let mut l = Lineage::new();
        let a = l.add_rdd("src", source_op(2), vec![], 2);
        assert!(!l.is_fully_materialized(a));
        l.record_partition_size(a, 0, 100);
        assert_eq!(l.known_size(a), 100);
        assert!(!l.is_fully_materialized(a));
        l.record_partition_size(a, 1, 50);
        assert_eq!(l.known_size(a), 150);
        assert!(l.is_fully_materialized(a));
    }

    #[test]
    fn union_partition_mapping() {
        let mut l = Lineage::new();
        let a = l.add_rdd("a", source_op(2), vec![], 2);
        let b = l.add_rdd("b", source_op(3), vec![], 3);
        let u = l.add_rdd("u", RddOp::Union, vec![a, b], 5);
        assert_eq!(l.union_source(u, 0), (a, 0));
        assert_eq!(l.union_source(u, 1), (a, 1));
        assert_eq!(l.union_source(u, 2), (b, 0));
        assert_eq!(l.union_source(u, 4), (b, 2));
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn unknown_parent_rejected() {
        let mut l = Lineage::new();
        let _ = l.add_rdd("bad", map_op(), vec![RddId(7)], 1);
    }

    #[test]
    fn persistence_flags() {
        let mut l = Lineage::new();
        let a = l.add_rdd("src", source_op(1), vec![], 1);
        assert!(!l.is_persisted(a));
        l.persist(a);
        assert!(l.is_persisted(a));
    }

    #[test]
    fn dot_export_shape() {
        let mut l = Lineage::new();
        let a = l.add_rdd("src", source_op(2), vec![], 2);
        let b = l.add_rdd("m", map_op(), vec![a], 2);
        let s = l.add_shuffle(b, ShuffleKind::Hash { parts: 2 });
        let c = l.add_rdd("g", RddOp::ShuffleGroup { shuffle: s }, vec![b], 2);
        l.persist(c);
        let dot = l.to_dot();
        assert!(dot.starts_with("digraph lineage {"));
        assert!(dot.contains("r0 -> r1;"), "narrow edge missing: {dot}");
        assert!(dot.contains("r1 -> r2 [color=red"), "shuffle edge missing");
        assert!(
            dot.contains("fillcolor=lightblue"),
            "persisted fill missing"
        );
    }

    #[test]
    fn shuffle_registration() {
        let mut l = Lineage::new();
        let a = l.add_rdd("src", source_op(2), vec![], 2);
        let s = l.add_shuffle(a, ShuffleKind::Hash { parts: 3 });
        assert_eq!(l.shuffle(s).parent, a);
        assert!(matches!(l.shuffle(s).kind, ShuffleKind::Hash { parts: 3 }));
    }

    /// The frontier before it was kept incrementally, transcribed: a
    /// scan over every RDD of a separate size model.
    fn scan_frontier(parents: &[Vec<RddId>], sizes: &[Vec<Option<u64>>]) -> Vec<RddId> {
        let full = |i: usize| sizes[i].iter().all(Option::is_some);
        (0..sizes.len())
            .filter(|&i| {
                full(i)
                    && !(0..sizes.len()).any(|c| full(c) && parents[c].contains(&RddId(i as u32)))
            })
            .map(|i| RddId(i as u32))
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The kept frontier, full-materialization flags and known sizes
        /// equal the transcribed scan after every op of a random build:
        /// RDDs added between size records (a child of an already
        /// materialized parent, repeated parents), sizes recorded twice,
        /// and records naming an unknown RDD or partition.
        #[test]
        fn frontier_matches_transcribed_scan(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..1_000, 0usize..1_000, 0u32..5, 0u64..1_000),
                1..120,
            ),
        ) {
            let mut l = Lineage::new();
            let mut parents: Vec<Vec<RddId>> = Vec::new();
            let mut sizes: Vec<Vec<Option<u64>>> = Vec::new();
            for (kind, a, b, part, bytes) in ops {
                if kind == 0 || sizes.is_empty() {
                    let n = sizes.len();
                    let ps: Vec<RddId> = match n {
                        0 => vec![],
                        _ => [a, b].iter().take(a % 3).map(|x| RddId((x % n) as u32)).collect(),
                    };
                    let parts = part + 1;
                    let op = if ps.is_empty() { source_op(parts) } else { map_op() };
                    l.add_rdd("r", op, ps.clone(), parts);
                    parents.push(ps);
                    sizes.push(vec![None; parts as usize]);
                } else {
                    // Now and then an id or partition past the end.
                    let rdd = a % (sizes.len() + 1);
                    l.record_partition_size(RddId(rdd as u32), part, bytes);
                    if let Some(slot) = sizes.get_mut(rdd).and_then(|s| s.get_mut(part as usize)) {
                        *slot = Some(bytes);
                    }
                }
                prop_assert_eq!(l.execution_frontier(), scan_frontier(&parents, &sizes));
                for (i, s) in sizes.iter().enumerate() {
                    let id = RddId(i as u32);
                    prop_assert_eq!(l.is_fully_materialized(id), s.iter().all(Option::is_some));
                    prop_assert_eq!(l.known_size(id), s.iter().flatten().sum::<u64>());
                }
            }
        }
    }
}
