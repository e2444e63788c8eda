//! The benchmark's inputs, owned here.
//!
//! The three generators port the *shapes* of the workspace's
//! `CorpusSpec` (Zipf topic text, near-duplicates, TF-IDF),
//! `GaussianSpec` (z-normed Gaussian clusters) and unweighted
//! `SocialSpec` (preferential attachment with cloned follower lists) onto
//! the private PRNG, and go straight to wire frames. The server sees only
//! those frames, so a change to `plasma_data` cannot move a benchmark
//! input.
//!
//! Where the originals draw a Bernoulli per record (is this a
//! near-duplicate? which topic?), these place an exact share at seeded
//! positions: every seed then has the same amount of each kind of record,
//! and the run-to-run spread of a latency is the machine's and not the
//! draw's.

use std::fmt::Write as _;

use crate::prng::{SplitMix64, Zipf};

/// One sparse record: `(dimension, weight)` sorted by dimension, each
/// dimension once, no zero weight — the form `SparseVector::from_pairs`
/// leaves untouched, so the ground truth is computed over exactly what
/// the server stores.
pub type Record = Vec<(u32, f64)>;

/// The similarity family a corpus is published under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    Cosine,
    Jaccard,
}

impl Measure {
    pub fn wire_name(self) -> &'static str {
        match self {
            Measure::Cosine => "cosine",
            Measure::Jaccard => "jaccard",
        }
    }
}

fn from_terms(mut terms: Vec<u32>) -> Record {
    terms.sort_unstable();
    let mut out: Record = Vec::new();
    for t in terms {
        match out.last_mut() {
            Some((d, w)) if *d == t => *w += 1.0,
            _ => out.push((t, 1.0)),
        }
    }
    out
}

/// Marks `share` of the positions `from..n`, chosen without replacement.
fn seeded_positions(rng: &mut SplitMix64, n: usize, from: usize, share: f64) -> Vec<bool> {
    let mut order: Vec<usize> = (from..n).collect();
    rng.shuffle(&mut order);
    let count = (order.len() as f64 * share).round() as usize;
    let mut chosen = vec![false; n];
    for &p in order.iter().take(count) {
        chosen[p] = true;
    }
    chosen
}

/// Shape of the topic-model text corpus.
#[derive(Debug, Clone, Copy)]
pub struct TextShape {
    pub docs: usize,
    pub vocab: usize,
    pub topics: usize,
    pub doc_len_mean: usize,
    pub zipf_s: f64,
    pub near_dup_share: f64,
}

/// Topic-model text with TF-IDF weights, for cosine.
pub fn text_corpus(seed: u64, shape: &TextShape) -> Vec<Record> {
    let mut rng = SplitMix64::stream(seed, 0);
    let zipf = Zipf::new(shape.vocab, shape.zipf_s);
    // Each topic ranks the vocabulary its own way, so topic heads differ.
    let topic_perms: Vec<Vec<u32>> = (0..shape.topics)
        .map(|t| {
            let mut perm: Vec<u32> = (0..shape.vocab as u32).collect();
            SplitMix64::stream(seed, 1 + t as u64).shuffle(&mut perm);
            perm
        })
        .collect();
    let is_dup = seeded_positions(&mut rng, shape.docs, 1, shape.near_dup_share);
    let mut topic_of: Vec<usize> = (0..shape.docs).map(|i| i % shape.topics).collect();
    rng.shuffle(&mut topic_of);

    let mut term_lists: Vec<Vec<u32>> = Vec::with_capacity(shape.docs);
    for i in 0..shape.docs {
        if is_dup[i] {
            let src = rng.below(i);
            let mut dup = term_lists[src].clone();
            topic_of[i] = topic_of[src];
            for _ in 0..3 {
                dup.push(topic_perms[topic_of[src]][zipf.sample(&mut rng)]);
            }
            term_lists.push(dup);
            continue;
        }
        let (lo, hi) = ((shape.doc_len_mean / 2).max(1), shape.doc_len_mean * 3 / 2);
        let len = lo + rng.below(hi - lo + 1);
        let terms = (0..len)
            .map(|_| {
                let rank = zipf.sample(&mut rng);
                // 85 % topic terms, 15 % background (identity ranking).
                if rng.unit() < 0.85 {
                    topic_perms[topic_of[i]][rank]
                } else {
                    rank as u32
                }
            })
            .collect();
        term_lists.push(terms);
    }
    tf_idf(term_lists.into_iter().map(from_terms).collect())
}

/// `tf · ln(N / df)`; a term in every document weighs 0 and drops out.
pub fn tf_idf(docs: Vec<Record>) -> Vec<Record> {
    let n = docs.len() as f64;
    let dims = docs
        .iter()
        .flat_map(|d| d.iter().map(|&(t, _)| t as usize + 1))
        .max()
        .unwrap_or(0);
    let mut df = vec![0u32; dims];
    for d in &docs {
        for &(t, _) in d {
            df[t as usize] += 1;
        }
    }
    docs.into_iter()
        .map(|d| {
            d.into_iter()
                .map(|(t, tf)| (t, tf * (n / f64::from(df[t as usize])).ln()))
                .filter(|&(_, w)| w != 0.0)
                .collect()
        })
        .collect()
}

/// Shape of the Gaussian-cluster table.
#[derive(Debug, Clone, Copy)]
pub struct GaussianShape {
    pub n: usize,
    pub dim: usize,
    pub clusters: usize,
    pub separation: f64,
    pub spread: f64,
}

/// Equal-sized, equidistant Gaussian clusters, columns z-normed, dense
/// records for cosine.
pub fn gaussian_clusters(seed: u64, shape: &GaussianShape) -> Vec<Record> {
    let mut rng = SplitMix64::stream(seed, 0);
    // Centres are rows of a Walsh–Hadamard matrix: mutually orthogonal,
    // of the length a Gaussian centre would have on average, and spread
    // over every column. The geometry is the same on every seed — the
    // seed draws the points, not the clusters — so how much of the ladder
    // an answer covers depends on `spread` and not on where the centres
    // happened to fall.
    assert!(
        shape.dim.is_power_of_two() && shape.clusters < shape.dim,
        "Walsh rows need a power-of-two dim above the cluster count"
    );
    let centers: Vec<Vec<f64>> = (1..=shape.clusters)
        .map(|k| {
            (0..shape.dim)
                .map(|j| {
                    if (k & j).count_ones() % 2 == 0 {
                        shape.separation
                    } else {
                        -shape.separation
                    }
                })
                .collect()
        })
        .collect();
    let mut cluster_of: Vec<usize> = (0..shape.n).map(|i| i % shape.clusters).collect();
    rng.shuffle(&mut cluster_of);
    let mut rows: Vec<Vec<f64>> = cluster_of
        .iter()
        .map(|&c| {
            centers[c]
                .iter()
                .map(|&m| m + rng.gaussian() * shape.spread)
                .collect()
        })
        .collect();
    for col in 0..shape.dim {
        let mean = rows.iter().map(|r| r[col]).sum::<f64>() / shape.n as f64;
        let var = rows.iter().map(|r| (r[col] - mean).powi(2)).sum::<f64>() / shape.n as f64;
        let sd = var.sqrt();
        for r in &mut rows {
            r[col] = if sd > 0.0 { (r[col] - mean) / sd } else { 0.0 };
        }
    }
    rows.into_iter()
        .map(|r| {
            r.into_iter()
                .enumerate()
                .filter(|&(_, v)| v != 0.0)
                .map(|(d, v)| (d as u32, v))
                .collect()
        })
        .collect()
}

/// Shape of the follower graph.
#[derive(Debug, Clone, Copy)]
pub struct SocialShape {
    pub nodes: usize,
    /// Accounts each node follows.
    pub follows_per_node: usize,
    pub communities: usize,
    /// Share of follows that stay inside the node's own community.
    pub homophily: f64,
    /// Zipf exponent of popularity over node ids (node 0 most followed).
    /// 0.5 is what preferential attachment tends to: degree ∝ 1/√rank.
    pub popularity_s: f64,
    /// Share of nodes that copy an earlier node's follows, ~10 % mutated.
    pub clone_share: f64,
}

/// A follower graph with power-law popularity, planted communities and
/// cloned follow lists. Record `i` is the set of accounts node `i`
/// follows, unweighted, for Jaccard.
///
/// `SocialSpec` grows its graph by preferential attachment, where which
/// early nodes become hubs is luck, and the hubs decide how many pairs
/// share a band: two seeds differ by half in candidate count. Here every
/// follow is drawn from one fixed popularity law, so every seed has the
/// same degree profile and differs only in who follows whom.
pub fn follower_sets(seed: u64, shape: &SocialShape) -> Vec<Record> {
    let mut rng = SplitMix64::stream(seed, 0);
    let (n, communities) = (shape.nodes, shape.communities);
    let global = Zipf::new(n, shape.popularity_s);
    // Community `c` holds nodes c, c + communities, ...; inside it the
    // same law ranks members by id.
    let local = Zipf::new(n.div_ceil(communities), shape.popularity_s);
    let is_clone = seeded_positions(&mut rng, n, communities.min(n), shape.clone_share);
    let mut follows: Vec<Vec<u32>> = Vec::with_capacity(n);
    for v in 0..n {
        if is_clone[v] {
            let proto: &Vec<u32> = &follows[rng.below(v)];
            let kept: Vec<u32> = proto
                .iter()
                .copied()
                .filter(|&t| t != v as u32 && rng.unit() < 0.9)
                .collect();
            if !kept.is_empty() {
                follows.push(kept);
                continue;
            }
        }
        let mut mine: Vec<u32> = Vec::with_capacity(shape.follows_per_node);
        let mut tries = 0;
        while mine.len() < shape.follows_per_node.min(n - 1) && tries < shape.follows_per_node * 30
        {
            tries += 1;
            let target = if rng.unit() < shape.homophily {
                v % communities + local.sample(&mut rng) * communities
            } else {
                global.sample(&mut rng)
            };
            if target < n && target != v && !mine.contains(&(target as u32)) {
                mine.push(target as u32);
            }
        }
        follows.push(mine);
    }
    follows
        .into_iter()
        .map(|mut ns| {
            ns.sort_unstable();
            ns.into_iter().map(|t| (t, 1.0)).collect()
        })
        .collect()
}

/// The `cfg` member of a publish frame.
#[derive(Debug, Clone, Copy)]
pub struct PublishCfg {
    pub bands: (usize, usize),
    /// `None` leaves the engine default (all cores).
    pub parallelism: Option<usize>,
}

fn push_records(out: &mut String, records: &[Record]) {
    out.push('[');
    for (r, record) in records.iter().enumerate() {
        if r > 0 {
            out.push(',');
        }
        out.push('[');
        for (e, (dim, weight)) in record.iter().enumerate() {
            if e > 0 {
                out.push(',');
            }
            // `{}` on an f64 is the shortest form that parses back to the
            // same bits, so the server holds the weights the ground truth
            // was computed over.
            write!(out, "[{dim},{weight}]").expect("writing to a String");
        }
        out.push(']');
    }
    out.push(']');
}

/// Frames carry no trailing newline; the connection adds it.
pub fn publish_frame(name: &str, measure: Measure, records: &[Record], cfg: &PublishCfg) -> String {
    let mut out =
        String::with_capacity(records.iter().map(|r| 24 * r.len() + 2).sum::<usize>() + 128);
    write!(
        out,
        "{{\"verb\":\"publish\",\"name\":\"{name}\",\"measure\":\"{}\",\"records\":",
        measure.wire_name()
    )
    .expect("writing to a String");
    push_records(&mut out, records);
    write!(
        out,
        ",\"cfg\":{{\"bands\":[{},{}]",
        cfg.bands.0, cfg.bands.1
    )
    .expect("writing to a String");
    if let Some(p) = cfg.parallelism {
        write!(out, ",\"parallelism\":{p}").expect("writing to a String");
    }
    out.push_str("}}");
    out
}

pub fn ingest_frame(records: &[Record]) -> String {
    let mut out = String::from("{\"verb\":\"ingest\",\"records\":");
    push_records(&mut out, records);
    out.push('}');
    out
}

pub fn attach_frame(fingerprint: &str) -> String {
    format!("{{\"verb\":\"attach\",\"fingerprint\":\"{fingerprint}\",\"pinned\":false}}")
}

pub fn probe_frame(threshold: f64) -> String {
    format!("{{\"verb\":\"probe\",\"threshold\":{threshold}}}")
}

pub fn watch_frame(threshold: f64) -> String {
    format!("{{\"verb\":\"watch\",\"threshold\":{threshold}}}")
}

pub fn verb_frame(verb: &str) -> String {
    format!("{{\"verb\":\"{verb}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{cosine, jaccard};

    const TEXT: TextShape = TextShape {
        docs: 120,
        vocab: 1500,
        topics: 4,
        doc_len_mean: 60,
        zipf_s: 1.05,
        near_dup_share: 0.05,
    };

    fn well_formed(records: &[Record]) {
        for r in records {
            assert!(r.windows(2).all(|w| w[0].0 < w[1].0), "sorted, unique dims");
            assert!(r.iter().all(|&(_, w)| w != 0.0 && w.is_finite()));
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        let cfg = PublishCfg {
            bands: (32, 8),
            parallelism: Some(1),
        };
        let frame = |seed| publish_frame("t", Measure::Cosine, &text_corpus(seed, &TEXT), &cfg);
        assert_eq!(frame(42), frame(42));
        assert_ne!(frame(42), frame(43));
        let g = GaussianShape {
            n: 90,
            dim: 8,
            clusters: 3,
            separation: 4.0,
            spread: 0.5,
        };
        assert_eq!(gaussian_clusters(5, &g), gaussian_clusters(5, &g));
        let s = SocialShape {
            nodes: 300,
            follows_per_node: 6,
            communities: 10,
            homophily: 0.7,
            popularity_s: 0.5,
            clone_share: 0.25,
        };
        assert_eq!(
            ingest_frame(&follower_sets(9, &s)[200..203]),
            ingest_frame(&follower_sets(9, &s)[200..203])
        );
    }

    #[test]
    fn text_has_the_planted_near_duplicates() {
        let docs = text_corpus(1, &TEXT);
        well_formed(&docs);
        assert_eq!(docs.len(), TEXT.docs);
        let mut high = 0;
        for i in 0..docs.len() {
            for j in (i + 1)..docs.len() {
                if cosine(&docs[i], &docs[j]) >= 0.9 {
                    high += 1;
                }
            }
        }
        assert!(
            high >= 6,
            "6 planted near-duplicates, found {high} pairs >= 0.9"
        );
    }

    #[test]
    fn gaussian_clusters_are_tight_and_equal_sized() {
        let shape = GaussianShape {
            n: 90,
            dim: 8,
            clusters: 3,
            separation: 4.0,
            spread: 0.3,
        };
        let rows = gaussian_clusters(2, &shape);
        well_formed(&rows);
        let close = (0..90)
            .flat_map(|i| ((i + 1)..90).map(move |j| (i, j)))
            .filter(|&(i, j)| cosine(&rows[i], &rows[j]) >= 0.5)
            .count();
        // 3 clusters of 30 hold 3 * C(30, 2) = 1305 within-cluster pairs:
        // nearly all of them are close, and no cross-cluster pair is.
        assert!((1100..=1305).contains(&close), "{close}");
    }

    #[test]
    fn follower_sets_carry_cloned_lists() {
        let shape = SocialShape {
            nodes: 400,
            follows_per_node: 6,
            communities: 10,
            homophily: 0.7,
            popularity_s: 0.5,
            clone_share: 0.25,
        };
        let sets = follower_sets(3, &shape);
        well_formed(&sets);
        assert!(sets.iter().all(|s| !s.is_empty()));
        let similar = (0..400)
            .flat_map(|i| ((i + 1)..400).map(move |j| (i, j)))
            .filter(|&(i, j)| jaccard(&sets[i], &sets[j]) >= 0.6)
            .count();
        assert!(
            similar >= 20,
            "cloned lists should leave similar pairs, found {similar}"
        );
    }

    #[test]
    fn frames_have_the_wire_shape() {
        let records = vec![vec![(0, 1.0), (3, 0.5)], vec![(1, 2.25)]];
        let cfg = PublishCfg {
            bands: (16, 4),
            parallelism: None,
        };
        assert_eq!(
            publish_frame("demo", Measure::Jaccard, &records, &cfg),
            "{\"verb\":\"publish\",\"name\":\"demo\",\"measure\":\"jaccard\",\
             \"records\":[[[0,1],[3,0.5]],[[1,2.25]]],\"cfg\":{\"bands\":[16,4]}}"
        );
        assert_eq!(probe_frame(0.85), "{\"verb\":\"probe\",\"threshold\":0.85}");
        assert_eq!(
            ingest_frame(&records[1..]),
            "{\"verb\":\"ingest\",\"records\":[[[1,2.25]]]}"
        );
    }
}
