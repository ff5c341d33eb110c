//! Property test: the cluster's block directory never drifts from what
//! the workers actually hold.
//!
//! Random sequences of worker joins, revocations (including re-joins of
//! a revoked external id), block inserts under capacities small enough
//! to force spills, disk drops and self-drops, and cluster-wide
//! removals. After every operation `locate`, `holds`, `peek_fetch`,
//! `snapshot` and the alive set must equal a linear scan over the alive
//! workers — the definition the directory replaced.

use std::sync::Arc;

use flint_engine::{
    BlockKey, BlockLocation, Cluster, RddId, ShuffleId, Value, WorkerId, WorkerSpec,
};
use flint_simtime::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Join a worker under external id `ext` (a re-join if `ext` was
    /// used before) with the given memory / disk capacity.
    Add {
        ext: u64,
        mem: u64,
        disk: u64,
    },
    /// Insert key `k` on the `w`-th worker ever created (alive or not).
    Insert {
        w: usize,
        k: usize,
        vbytes: u64,
    },
    RemoveEverywhere {
        k: usize,
    },
    Revoke {
        ext: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..5, 0u64..400, 0u64..400).prop_map(|(ext, mem, disk)| Op::Add { ext, mem, disk }),
        (0usize..8, 0usize..10, 1u64..300).prop_map(|(w, k, vbytes)| Op::Insert { w, k, vbytes }),
        (0usize..8, 0usize..10, 1u64..300).prop_map(|(w, k, vbytes)| Op::Insert { w, k, vbytes }),
        (0usize..8, 0usize..10, 1u64..300).prop_map(|(w, k, vbytes)| Op::Insert { w, k, vbytes }),
        (0usize..10).prop_map(|k| Op::RemoveEverywhere { k }),
        (0u64..5).prop_map(|ext| Op::Revoke { ext }),
    ]
}

fn key(i: usize) -> BlockKey {
    if i.is_multiple_of(2) {
        BlockKey::RddPart {
            rdd: RddId(i as u32 / 4),
            part: i as u32 % 4,
        }
    } else {
        BlockKey::ShuffleMap {
            shuffle: ShuffleId(i as u32 / 4),
            map_part: i as u32 % 4,
        }
    }
}

/// What the pre-directory `Cluster::locate` computed: the first alive
/// worker, in id order, whose store holds the key.
fn scan_locate(c: &Cluster, k: &BlockKey) -> Option<(WorkerId, BlockLocation, u64)> {
    c.workers()
        .iter()
        .filter(|w| w.is_alive())
        .find_map(|w| w.blocks().peek(k).map(|(loc, vb)| (w.id, loc, vb)))
}

fn check(c: &Cluster) {
    let alive: Vec<WorkerId> = c
        .workers()
        .iter()
        .filter(|w| w.is_alive())
        .map(|w| w.id)
        .collect();
    assert_eq!(c.alive(), alive);
    assert_eq!(c.alive_count(), alive.len());

    for i in 0..10 {
        let k = key(i);
        let want = scan_locate(c, &k);
        assert_eq!(c.locate(&k), want, "locate({k})");
        assert_eq!(c.holds(&k), want.is_some(), "holds({k})");
        let got = c
            .peek_fetch(&k)
            .map(|(wid, data, loc, vb)| (wid, loc, vb, data.len()));
        let want = want.map(|(wid, loc, vb)| {
            let (data, _, _) = c.worker(wid).blocks().peek_data(&k).expect("located");
            (wid, loc, vb, data.len())
        });
        assert_eq!(got, want, "peek_fetch({k})");
    }

    let snap = c.snapshot();
    let mut blocks = Vec::new();
    let (mut mem, mut disk) = (0, 0);
    for w in c.workers().iter().filter(|w| w.is_alive()) {
        mem += w.blocks().mem_used();
        disk += w.blocks().disk_used();
        for k in w.blocks().keys() {
            let (_, vb) = w.blocks().peek(&k).expect("listed key is held");
            blocks.push((w.id, k, vb));
        }
    }
    blocks.sort();
    assert_eq!(snap.blocks, blocks);
    assert_eq!((snap.mem_bytes, snap.disk_bytes), (mem, disk));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn directory_equals_linear_scan(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut c = Cluster::new();
        let mut payload = 0i64;
        for op in ops {
            match op {
                Op::Add { ext, mem, disk } => {
                    let spec = WorkerSpec { cores: 1, cache_mem_bytes: mem, disk_bytes: disk };
                    c.add_worker(ext, spec, SimTime::ZERO);
                }
                Op::Insert { w, k, vbytes } => {
                    let n = c.workers().len();
                    if n == 0 {
                        continue;
                    }
                    let wid = WorkerId((w % n) as u32);
                    payload += 1;
                    let data = Arc::new(vec![Value::Int(payload); (payload % 3) as usize]);
                    let alive = c.worker(wid).is_alive();
                    let out = c.insert_block(wid, key(k), data, vbytes);
                    if !alive {
                        prop_assert!(!out.stored && out.spilled.is_empty() && out.dropped.is_empty());
                    }
                }
                Op::RemoveEverywhere { k } => {
                    c.remove_everywhere(&key(k));
                    prop_assert!(c.locate(&key(k)).is_none());
                }
                Op::Revoke { ext } => {
                    c.remove_by_ext(ext);
                }
            }
            check(&c);
        }
    }
}
