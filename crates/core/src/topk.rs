//! Per-node top-K graph formation (§2.5).
//!
//! "By changing the graph-formation objective from that of a graph-wide
//! global threshold to a per-node top-K, a tool like PLASMA-HD can help
//! within the database and IR communities with NN and Reverse NN search
//! as well as help with identifying good parameters for indexing."
//!
//! The builder reuses BayesLSH estimates: each record keeps its K best
//! estimated neighbors (optionally exact-verified), yielding the KNN
//! graph; reverse-NN queries read the transpose.

use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::{BayesLsh, PairDecision};
use plasma_lsh::family::LshFamily;

use crate::apss::{build_sketches, ApssConfig};

/// A K-nearest-neighbor graph over a record set.
#[derive(Debug, Clone)]
pub struct KnnGraph {
    k: usize,
    /// `neighbors[v]` = up to K `(neighbor, similarity)` pairs, best first.
    neighbors: Vec<Vec<(u32, f64)>>,
    /// Transpose: who lists `v` among their top-K.
    reverse: Vec<Vec<u32>>,
}

impl KnnGraph {
    /// Builds the top-K graph with BayesLSH candidate filtering.
    ///
    /// `floor` is the minimum similarity worth keeping (pairs the engine
    /// prunes below it never enter any top-K list); use the lowest
    /// threshold of interest, e.g. 0.1.
    pub fn build(
        records: &[SparseVector],
        measure: Similarity,
        k: usize,
        floor: f64,
        cfg: &ApssConfig,
    ) -> KnnGraph {
        let n = records.len();
        let (sketches, _) = build_sketches(records, measure, cfg);
        let engine = BayesLsh::new(LshFamily::for_measure(measure), cfg.bayes);
        // Every shard decides from one table, filling each cell once.
        let cells = engine.decision_cells(floor, sketches.n_hashes());
        let total_pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
        let threads = crate::apss::eval_threads(cfg, total_pairs);
        // One shard streams each surviving pair of its rows straight
        // into n × capped-k lists. With several workers, contiguous row
        // shards (balanced by pair count so late shards aren't starved by
        // the triangular loop) each keep their own lists under the
        // identical push rule, folded in shard order afterwards. The
        // fold is bit-identical to the one-shard pass: for any row `v`,
        // its pairs arrive in (i, j) order grouped by owning shard (shard
        // rows are contiguous), a shard-local list preserves that order
        // among the survivors it keeps, and an entry a shard's cap drops
        // loses to k earlier-or-equal entries that also precede it in the
        // global order — so it could never enter the global top-K either.
        // Peak memory is O(threads · n · k) instead of the pair count.
        let eval_rows = |rows: std::ops::Range<usize>| -> Vec<Vec<(u32, f64)>> {
            let mut table = engine.table_over(&cells);
            let mut local: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
            for i in rows {
                for j in (i + 1)..n {
                    let est = table.evaluate_pair(&sketches, i, j);
                    if est.decision == PairDecision::Pruned {
                        continue;
                    }
                    let s = if cfg.exact_on_accept {
                        measure.compute(&records[i], &records[j])
                    } else {
                        est.map_similarity
                    };
                    push_capped(&mut local, k, i, j as u32, s);
                    push_capped(&mut local, k, j, i as u32, s);
                }
            }
            local
        };
        let neighbors = if threads <= 1 {
            eval_rows(0..n)
        } else {
            let shard_lists: Vec<Vec<Vec<(u32, f64)>>> = rayon::scope(|s| {
                let mut handles = Vec::with_capacity(threads);
                for range in balanced_row_shards(n, threads) {
                    let eval_rows = &eval_rows;
                    handles.push(s.spawn(move || eval_rows(range)));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("knn shard panicked"))
                    .collect()
            });
            let mut neighbors: Vec<Vec<(u32, f64)>> = vec![Vec::with_capacity(k + 1); n];
            for local in shard_lists {
                for (v, list) in local.into_iter().enumerate() {
                    for (u, s) in list {
                        push_capped(&mut neighbors, k, v, u, s);
                    }
                }
            }
            neighbors
        };

        let mut reverse: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, list) in neighbors.iter().enumerate() {
            for &(u, _) in list {
                reverse[u as usize].push(v as u32);
            }
        }
        for r in &mut reverse {
            r.sort_unstable();
        }
        KnnGraph {
            k,
            neighbors,
            reverse,
        }
    }

    /// K requested at build time.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True when the graph covers no records.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// `v`'s nearest neighbors, best first.
    pub fn nearest(&self, v: u32) -> &[(u32, f64)] {
        &self.neighbors[v as usize]
    }

    /// Reverse nearest neighbors: records listing `v` in their top-K.
    pub fn reverse_nearest(&self, v: u32) -> &[u32] {
        &self.reverse[v as usize]
    }

    /// The undirected KNN graph (edge when either endpoint lists the
    /// other), for handing to the graph-measure suite.
    pub fn to_graph(&self) -> plasma_graph::Graph {
        let mut edges = Vec::new();
        for (v, list) in self.neighbors.iter().enumerate() {
            for &(u, _) in list {
                edges.push((v as u32, u));
            }
        }
        plasma_graph::Graph::from_edges(self.len(), &edges)
    }

    /// The per-node threshold realized by the top-K lists: `v`'s weakest
    /// kept similarity. §2.5's indexing guidance reads this distribution
    /// to pick global thresholds that approximate a KNN graph.
    pub fn kth_similarity(&self, v: u32) -> Option<f64> {
        self.neighbors[v as usize].last().map(|&(_, s)| s)
    }
}

/// Inserts `(u, s)` into row `v`'s best-first list, keeping at most `k`
/// entries. Ties on `s` preserve insertion order (stable), which is what
/// makes the sharded build's fold reproduce the sequential pass exactly.
fn push_capped(lists: &mut [Vec<(u32, f64)>], k: usize, v: usize, u: u32, s: f64) {
    let list = &mut lists[v];
    let pos = list.partition_point(|&(_, ls)| ls >= s);
    if pos < k {
        list.insert(pos, (u, s));
        list.truncate(k);
    }
}

/// Splits rows `0..n` of a triangular pair loop into up to `shards`
/// contiguous ranges with roughly equal pair counts (`Σ (n−1−i)`).
fn balanced_row_shards(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let total = n.saturating_mul(n.saturating_sub(1)) / 2;
    let target = total.div_ceil(shards.max(1)).max(1);
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut acc = 0usize;
    for i in 0..n {
        acc += n - 1 - i;
        if acc >= target {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_data::datasets::gaussian::GaussianSpec;
    use plasma_data::similarity::Similarity;

    #[test]
    fn balanced_shards_cover_all_rows() {
        for (n, shards) in [(10usize, 3usize), (1, 4), (100, 8), (0, 2), (5, 10)] {
            let ranges = balanced_row_shards(n, shards);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be contiguous");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, n, "ranges must cover 0..{n}");
        }
    }

    #[test]
    fn knn_graph_is_thread_count_invariant() {
        let records = dataset();
        let reference = KnnGraph::build(
            &records,
            Similarity::Cosine,
            4,
            0.1,
            &ApssConfig {
                parallelism: Some(1),
                ..cfg()
            },
        );
        let par = KnnGraph::build(
            &records,
            Similarity::Cosine,
            4,
            0.1,
            &ApssConfig {
                parallelism: Some(4),
                ..cfg()
            },
        );
        for v in 0..reference.len() as u32 {
            assert_eq!(par.nearest(v), reference.nearest(v), "node {v}");
            assert_eq!(par.reverse_nearest(v), reference.reverse_nearest(v));
        }
    }

    fn dataset() -> Vec<SparseVector> {
        GaussianSpec {
            separation: 4.0,
            spread: 0.6,
            ..GaussianSpec::new("t", 60, 8, 3)
        }
        .generate(17)
        .records
    }

    fn cfg() -> ApssConfig {
        ApssConfig {
            exact_on_accept: true,
            ..ApssConfig::default()
        }
    }

    #[test]
    fn lists_are_sorted_and_capped() {
        let records = dataset();
        let g = KnnGraph::build(&records, Similarity::Cosine, 5, 0.1, &cfg());
        for v in 0..g.len() as u32 {
            let list = g.nearest(v);
            assert!(list.len() <= 5);
            for w in list.windows(2) {
                assert!(w[0].1 >= w[1].1, "list must be best-first");
            }
        }
    }

    #[test]
    fn knn_matches_exact_topk_mostly() {
        let records = dataset();
        let k = 4;
        let g = KnnGraph::build(&records, Similarity::Cosine, k, 0.1, &cfg());
        // Exact top-k for a few probes.
        let mut agree = 0usize;
        let mut total = 0usize;
        for v in [0usize, 10, 30, 55] {
            let mut sims: Vec<(u32, f64)> = (0..records.len())
                .filter(|&u| u != v)
                .map(|u| {
                    (
                        u as u32,
                        Similarity::Cosine.compute(&records[v], &records[u]),
                    )
                })
                .collect();
            sims.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            let expected: std::collections::HashSet<u32> =
                sims[..k].iter().map(|&(u, _)| u).collect();
            for &(u, _) in g.nearest(v as u32) {
                total += 1;
                if expected.contains(&u) {
                    agree += 1;
                }
            }
        }
        assert!(
            agree as f64 / total as f64 > 0.7,
            "KNN overlap with exact top-k too low: {agree}/{total}"
        );
    }

    #[test]
    fn reverse_nearest_is_transpose() {
        let records = dataset();
        let g = KnnGraph::build(&records, Similarity::Cosine, 3, 0.1, &cfg());
        for v in 0..g.len() as u32 {
            for &(u, _) in g.nearest(v) {
                assert!(
                    g.reverse_nearest(u).contains(&v),
                    "transpose missing {v} → {u}"
                );
            }
        }
    }

    #[test]
    fn to_graph_has_bounded_degree_sum() {
        let records = dataset();
        let k = 3;
        let g = KnnGraph::build(&records, Similarity::Cosine, k, 0.1, &cfg());
        let graph = g.to_graph();
        // Each node contributes ≤ k directed edges → m ≤ n·k.
        assert!(graph.m() <= g.len() * k);
        assert_eq!(graph.n(), records.len());
    }

    #[test]
    fn kth_similarity_distribution_informs_thresholds() {
        let records = dataset();
        let g = KnnGraph::build(&records, Similarity::Cosine, 4, 0.1, &cfg());
        let kths: Vec<f64> = (0..g.len() as u32)
            .filter_map(|v| g.kth_similarity(v))
            .collect();
        assert!(!kths.is_empty());
        // In clustered data, most nodes' 4th neighbor is still similar.
        let median = plasma_data::stats::median(&kths).expect("non-empty kth similarities");
        assert!(median > 0.3, "median kth similarity {median}");
    }
}
