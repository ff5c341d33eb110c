//! Synthetic power-law web-graph generation (a LiveJournal-like shape).

use flint_simtime::rng::stream;
use rand::Rng;

/// Shape of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Number of vertices.
    pub nodes: u32,
    /// Average out-degree.
    pub avg_degree: u32,
    /// Seed.
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            nodes: 2_000,
            avg_degree: 8,
            seed: 7,
        }
    }
}

/// Generates adjacency lists `(src, Vec<dst>)` with a power-law-ish
/// in-degree distribution via preferential attachment sampling.
///
/// Real social/web graphs (the paper's LiveJournal input) are heavy-
/// tailed; the tail matters here because PageRank's shuffle volume per
/// key is skewed, stressing the shuffle path non-uniformly.
///
/// # Examples
///
/// ```
/// use flint_workloads::{power_law_graph, GraphConfig};
///
/// let g = power_law_graph(&GraphConfig { nodes: 100, avg_degree: 4, seed: 1 });
/// assert_eq!(g.len(), 100);
/// let edges: usize = g.iter().map(|(_, d)| d.len()).sum();
/// assert!(edges >= 300 && edges <= 500);
/// ```
pub fn power_law_graph(cfg: &GraphConfig) -> Vec<(u32, Vec<u32>)> {
    let mut rng = stream(cfg.seed, "graph");
    let n = cfg.nodes.max(2);
    let mut out: Vec<(u32, Vec<u32>)> = (0..n).map(|v| (v, Vec::new())).collect();
    // Preferential attachment: destinations are sampled from a growing
    // pool where popular nodes repeat, yielding heavy-tailed in-degree.
    let mut pool: Vec<u32> = (0..n.min(16)).collect();
    for src in 0..n {
        let degree = 1 + rng.gen_range(0..cfg.avg_degree.max(1) * 2);
        let mut dsts = Vec::with_capacity(degree as usize);
        for _ in 0..degree {
            let dst = if rng.gen_bool(0.7) && !pool.is_empty() {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(0..n)
            };
            if dst != src {
                dsts.push(dst);
                pool.push(dst);
            }
        }
        dsts.sort_unstable();
        dsts.dedup();
        // Guarantee no dangling nodes (simplifies PageRank).
        if dsts.is_empty() {
            dsts.push((src + 1) % n);
        }
        out[src as usize].1 = dsts;
        // Keep the pool bounded.
        if pool.len() > 4096 {
            let excess = pool.len() - 4096;
            pool.drain(0..excess);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GraphConfig::default();
        assert_eq!(power_law_graph(&cfg), power_law_graph(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = power_law_graph(&GraphConfig {
            seed: 1,
            ..GraphConfig::default()
        });
        let b = power_law_graph(&GraphConfig {
            seed: 2,
            ..GraphConfig::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = power_law_graph(&GraphConfig {
            nodes: 5_000,
            avg_degree: 8,
            seed: 3,
        });
        let mut indeg = vec![0u32; 5_000];
        for (_, dsts) in &g {
            for d in dsts {
                indeg[*d as usize] += 1;
            }
        }
        let max = *indeg.iter().max().unwrap();
        let mean = indeg.iter().sum::<u32>() as f64 / indeg.len() as f64;
        assert!(
            f64::from(max) > 10.0 * mean,
            "max in-degree {max} should dwarf mean {mean:.1}"
        );
    }

    #[test]
    fn no_self_loops_or_empty_adjacency() {
        let g = power_law_graph(&GraphConfig {
            nodes: 500,
            avg_degree: 4,
            seed: 9,
        });
        for (src, dsts) in &g {
            assert!(!dsts.is_empty());
            assert!(!dsts.contains(src));
        }
    }
}
