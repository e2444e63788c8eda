//! Named dataset catalog mirroring the paper's evaluation tables.
//!
//! Each entry maps a dataset named in the dissertation (Tables 2.1, 3.1,
//! 4.3, 4.4, 4.6, 5.1) to a seeded synthetic generator with matching shape
//! (rows × dims × classes) and character (sparsity, duplicates, imbalance).
//!
//! Generators accept a `scale ∈ (0, 1]` multiplier on the row count so the
//! full reproduction can run on one core in minutes; `paper_n` records the
//! original size for the table printouts. Scaling down row counts shifts
//! absolute numbers but preserves every *shape* claim (who wins, where the
//! knees fall), which is what EXPERIMENTS.md compares.

use crate::datasets::corpus::CorpusSpec;
use crate::datasets::gaussian::GaussianSpec;
use crate::datasets::social::SocialSpec;
use crate::datasets::transactions::{CategoricalSpec, QuestSpec, Transactions};
use crate::datasets::webgraph::WebGraphSpec;
use crate::datasets::Dataset;

/// Applies a scale factor with a floor so tiny scales stay meaningful.
pub fn scaled(paper_n: usize, scale: f64) -> usize {
    ((paper_n as f64 * scale).round() as usize).clamp(64.min(paper_n), paper_n)
}

// ---------------------------------------------------------------------
// Chapter 2 (Table 2.1) + §2.3 datasets
// ---------------------------------------------------------------------

/// The 50-record toy dataset of Fig. 2.2 (5 planted clusters; parameters
/// chosen so the similarity graph is fragmented at t₁ = 0.8, shows clear
/// community structure at 0.5, and drowns in noise edges at 0.2 — the
/// figure's three columns).
pub fn toy_d1(seed: u64) -> Dataset {
    GaussianSpec {
        separation: 1.5,
        spread: 1.0,
        ..GaussianSpec::new("d1", 50, 6, 5)
    }
    .generate(seed)
}

/// UCI `wine`: 178 wines × 13 chemical attributes, 3 classes.
pub fn wine_like(seed: u64) -> Dataset {
    GaussianSpec {
        separation: 2.5,
        spread: 1.0,
        ..GaussianSpec::new("wine-like", 178, 13, 3)
    }
    .generate(seed)
}

/// UCI `credit` (Table 2.1): 690 × 39 one-hot-ish, moderate clusters.
pub fn credit_like(seed: u64) -> Dataset {
    GaussianSpec {
        separation: 1.8,
        spread: 1.0,
        ..GaussianSpec::new("credit-like", 690, 39, 2)
    }
    .generate(seed)
}

/// Twitter follower vectors (146,170 users in the paper; scaled).
pub fn twitter_like(scale: f64, seed: u64) -> Dataset {
    let n = scaled(146_170, scale / 60.0); // large graph: heavy extra scaling
    SocialSpec {
        communities: 25,
        clone_rate: 0.25,
        ..SocialSpec::new("twitter-like", n.max(800), 8)
    }
    .generate(seed)
}

/// RCV1 Reuters articles (804,414 in the paper; scaled).
pub fn rcv1_like(scale: f64, seed: u64) -> Dataset {
    let n = scaled(804_414, scale / 300.0);
    CorpusSpec {
        near_dup_rate: 0.04,
        ..CorpusSpec::new("rcv1-like", n.max(1_000), 8_000, 12)
    }
    .generate(seed)
}

/// Four sketch-cost datasets of Fig. 2.9, in paper order.
pub fn fig2_9_datasets(scale: f64, seed: u64) -> Vec<Dataset> {
    let mk_corpus = |name: &'static str, n: usize, vocab: usize, len: usize| CorpusSpec {
        doc_len_mean: len,
        ..CorpusSpec::new(name, n, vocab, 10)
    };
    vec![
        mk_corpus("rcv1-3k-like", scaled(3_000, scale.max(0.34)), 4_000, 70).generate(seed),
        SocialSpec {
            clone_rate: 0.25,
            ..SocialSpec::new(
                "twitterlinks-like",
                scaled(146_170, scale / 60.0).max(800),
                10,
            )
        }
        .generate(seed + 1),
        mk_corpus(
            "wikiwords100k-like",
            scaled(100_528, scale / 60.0).max(900),
            6_000,
            120,
        )
        .generate(seed + 2),
        mk_corpus(
            "wikilinks-like",
            scaled(1_815_914, scale / 600.0).max(1_200),
            10_000,
            24,
        )
        .generate(seed + 3),
    ]
}

// ---------------------------------------------------------------------
// Chapter 3 (Table 3.1): 11 UCI-like numeric tables
// ---------------------------------------------------------------------

/// One row of Table 3.1 plus its generator parameters.
pub struct GrowthEntry {
    /// Paper dataset name.
    pub name: &'static str,
    /// Attribute count in the paper.
    pub attributes: usize,
    /// Row count in the paper (after its own 8000-row subsampling).
    pub paper_n: usize,
    /// Generator spec.
    spec: GaussianSpec,
}

impl GrowthEntry {
    /// Generates the dataset at the given scale.
    pub fn generate(&self, scale: f64, seed: u64) -> Dataset {
        let mut spec = self.spec.clone();
        spec.n = scaled(self.paper_n, scale);
        spec.generate(seed)
    }
}

/// The 11 datasets of Table 3.1 with shapes and quirks from the paper
/// (Spambase carries the duplicate injection the paper blames for its
/// outlier error; class counts follow the real UCI sources).
pub fn growth_catalog() -> Vec<GrowthEntry> {
    fn spec(
        name: &'static str,
        n: usize,
        d: usize,
        k: usize,
        sep: f64,
        dup: f64,
        imb: f64,
    ) -> GaussianSpec {
        GaussianSpec {
            separation: sep,
            spread: 1.0,
            duplicate_rate: dup,
            imbalance: imb,
            ..GaussianSpec::new(name, n, d, k)
        }
    }
    vec![
        GrowthEntry {
            name: "abalone",
            attributes: 8,
            paper_n: 4177,
            spec: spec("abalone-like", 4177, 8, 3, 1.2, 0.0, 0.3),
        },
        GrowthEntry {
            name: "adult",
            attributes: 5,
            paper_n: 8000,
            spec: spec("adult-like", 8000, 5, 2, 1.5, 0.02, 0.6),
        },
        GrowthEntry {
            name: "image-segmentation",
            attributes: 18,
            paper_n: 2100,
            spec: spec("image-seg-like", 2100, 18, 7, 3.0, 0.0, 0.0),
        },
        GrowthEntry {
            name: "letter-recognition",
            attributes: 16,
            paper_n: 8000,
            spec: spec("letter-like", 8000, 16, 26, 2.2, 0.0, 0.0),
        },
        GrowthEntry {
            name: "mushroom",
            attributes: 21,
            paper_n: 8000,
            spec: spec("mushroom-like", 8000, 21, 2, 2.8, 0.01, 0.1),
        },
        GrowthEntry {
            name: "online-news",
            attributes: 57,
            paper_n: 8000,
            spec: spec("news-like", 8000, 57, 5, 1.4, 0.0, 0.5),
        },
        GrowthEntry {
            name: "spambase",
            attributes: 57,
            paper_n: 4601,
            spec: spec("spambase-like", 4601, 57, 2, 1.6, 0.08, 0.4),
        },
        GrowthEntry {
            name: "statlog",
            attributes: 36,
            paper_n: 4435,
            spec: spec("statlog-like", 4435, 36, 6, 2.4, 0.0, 0.2),
        },
        GrowthEntry {
            name: "waveform-v1",
            attributes: 21,
            paper_n: 5000,
            spec: spec("waveform-like", 5000, 21, 3, 1.8, 0.0, 0.0),
        },
        GrowthEntry {
            name: "wine-quality-red",
            attributes: 11,
            paper_n: 1599,
            spec: spec("wine-red-like", 1599, 11, 6, 1.3, 0.01, 0.5),
        },
        GrowthEntry {
            name: "wine-quality-white",
            attributes: 11,
            paper_n: 4898,
            spec: spec("wine-white-like", 4898, 11, 7, 1.3, 0.01, 0.5),
        },
        GrowthEntry {
            name: "yeast",
            attributes: 8,
            paper_n: 1484,
            spec: spec("yeast-like", 1484, 8, 10, 1.7, 0.0, 0.7),
        },
    ]
}

// ---------------------------------------------------------------------
// Chapter 4: web graphs (Table 4.3), transactional (Table 4.4),
// similarity-graph sources (Table 4.6)
// ---------------------------------------------------------------------

/// One web-crawl stand-in from Table 4.3.
pub struct WebEntry {
    /// Paper dataset name.
    pub name: &'static str,
    /// Vertex count in the paper.
    pub paper_vertices: u64,
    /// Edge count in the paper.
    pub paper_edges: u64,
    /// Generator.
    pub spec: WebGraphSpec,
}

/// The five LAW crawls of Table 4.3, scaled by relative size.
pub fn web_catalog(scale: f64) -> Vec<WebEntry> {
    let base = (10_000.0 * scale.max(0.08)) as usize;
    let mk = |name: &'static str, pv: u64, pe: u64, rel: f64, deg: usize| WebEntry {
        name,
        paper_vertices: pv,
        paper_edges: pe,
        spec: WebGraphSpec::new(name, ((base as f64 * rel) as usize).max(600), deg),
    };
    vec![
        mk("it2004-like", 41_291_594, 1_150_725_436, 0.8, 26),
        mk("arabic2005-like", 22_744_080, 639_999_458, 0.5, 26),
        mk("eu2005-like", 862_664, 19_235_140, 0.25, 20),
        mk("sk2005-like", 50_636_154, 1_949_412_601, 1.0, 36),
        mk("uk2006-like", 77_741_046, 2_965_043_000, 1.2, 36),
    ]
}

/// One transactional stand-in from Table 4.4.
pub struct TxEntry {
    /// Paper dataset name.
    pub name: &'static str,
    /// Density tag the paper assigns ("sparse" / "moderate" / "dense").
    pub density: &'static str,
    /// Paper transaction count.
    pub paper_n: usize,
    /// Generator (closure so Quest and Categorical coexist).
    gen: TxGen,
}

enum TxGen {
    Quest(QuestSpec),
    Categorical(CategoricalSpec),
}

impl TxEntry {
    /// Generates the transactions (labels dropped for unlabeled families).
    pub fn generate(&self, scale: f64, seed: u64) -> Transactions {
        self.generate_labeled(scale, seed).0
    }

    /// Generates transactions plus class labels (empty when unlabeled).
    pub fn generate_labeled(&self, scale: f64, seed: u64) -> (Transactions, Vec<u32>) {
        match &self.gen {
            TxGen::Quest(q) => {
                let mut q = q.clone();
                q.transactions = scaled(self.paper_n, scale);
                (q.generate(seed), Vec::new())
            }
            TxGen::Categorical(c) => {
                let mut c = c.clone();
                c.rows = scaled(self.paper_n, scale);
                c.generate(seed)
            }
        }
    }

    /// True when the generator plants class labels (usable for Fig. 4.9).
    pub fn labeled(&self) -> bool {
        matches!(self.gen, TxGen::Categorical(_))
    }
}

/// The ten transactional datasets of Table 4.4.
pub fn tx_catalog() -> Vec<TxEntry> {
    vec![
        TxEntry {
            name: "accidents",
            density: "sparse",
            paper_n: 340_183,
            gen: TxGen::Quest(QuestSpec {
                pattern_len: 10,
                patterns_per_tx: 4,
                ..QuestSpec::new("accidents-like", 340_183, 460)
            }),
        },
        TxEntry {
            name: "adult",
            density: "moderate",
            paper_n: 48_842,
            gen: TxGen::Categorical(CategoricalSpec {
                values_per_attr: 8,
                classes: 2,
                coherence: 0.65,
                ..CategoricalSpec::new("adult-like", 48_842, 14)
            }),
        },
        TxEntry {
            name: "anneal",
            density: "moderate",
            paper_n: 898,
            gen: TxGen::Categorical(CategoricalSpec {
                values_per_attr: 5,
                classes: 5,
                coherence: 0.75,
                ..CategoricalSpec::new("anneal-like", 898, 38)
            }),
        },
        TxEntry {
            name: "breast",
            density: "dense",
            paper_n: 699,
            gen: TxGen::Categorical(CategoricalSpec {
                values_per_attr: 10,
                classes: 2,
                coherence: 0.8,
                ..CategoricalSpec::new("breast-like", 699, 9)
            }),
        },
        TxEntry {
            name: "mushroom",
            density: "dense",
            paper_n: 8124,
            gen: TxGen::Categorical(CategoricalSpec {
                values_per_attr: 6,
                classes: 2,
                coherence: 0.85,
                ..CategoricalSpec::new("mushroom-like", 8124, 21)
            }),
        },
        TxEntry {
            name: "kosarak",
            density: "sparse",
            paper_n: 990_002,
            gen: TxGen::Quest(QuestSpec {
                pattern_len: 5,
                patterns_per_tx: 2,
                noise_items: 3,
                ..QuestSpec::new("kosarak-like", 990_002, 2_000)
            }),
        },
        TxEntry {
            name: "iris",
            density: "dense",
            paper_n: 150,
            gen: TxGen::Categorical(CategoricalSpec {
                values_per_attr: 4,
                classes: 3,
                coherence: 0.85,
                ..CategoricalSpec::new("iris-like", 150, 4)
            }),
        },
        TxEntry {
            name: "pageblocks",
            density: "moderate",
            paper_n: 5473,
            gen: TxGen::Categorical(CategoricalSpec {
                values_per_attr: 6,
                classes: 5,
                coherence: 0.9,
                ..CategoricalSpec::new("pageblocks-like", 5473, 10)
            }),
        },
        TxEntry {
            name: "twitter-wcs",
            density: "sparse",
            paper_n: 1264,
            gen: TxGen::Quest(QuestSpec {
                pattern_len: 4,
                patterns_per_tx: 2,
                noise_items: 4,
                ..QuestSpec::new("twitter-wcs-like", 1264, 1_200)
            }),
        },
        TxEntry {
            name: "tictactoe",
            density: "moderate",
            paper_n: 958,
            gen: TxGen::Categorical(CategoricalSpec {
                values_per_attr: 3,
                classes: 2,
                coherence: 0.6,
                ..CategoricalSpec::new("tictactoe-like", 958, 9)
            }),
        },
    ]
}

/// The six similarity-graph source datasets of Table 4.6 (for Fig. 4.14).
pub fn compression_catalog(scale: f64, seed: u64) -> Vec<Dataset> {
    vec![
        SocialSpec {
            clone_rate: 0.3,
            ..SocialSpec::new(
                "twitterlinks-like",
                scaled(146_170, scale / 60.0).max(700),
                10,
            )
        }
        .generate(seed),
        CorpusSpec {
            doc_len_mean: 90,
            near_dup_rate: 0.05,
            ..CorpusSpec::new(
                "wikiwords200-like",
                scaled(494_244, scale / 250.0).max(800),
                6_000,
                10,
            )
        }
        .generate(seed + 1),
        CorpusSpec {
            doc_len_mean: 160,
            near_dup_rate: 0.05,
            ..CorpusSpec::new(
                "wikiwords500-like",
                scaled(100_528, scale / 60.0).max(700),
                6_000,
                10,
            )
        }
        .generate(seed + 2),
        SocialSpec {
            weighted: false,
            clone_rate: 0.2,
            ..SocialSpec::new("orkut-like", scaled(3_072_626, scale / 1500.0).max(900), 8)
        }
        .generate(seed + 3),
        CorpusSpec {
            near_dup_rate: 0.04,
            ..CorpusSpec::new(
                "rcv1-like",
                scaled(804_414, scale / 400.0).max(800),
                5_000,
                12,
            )
        }
        .generate(seed + 4),
        CorpusSpec {
            doc_len_mean: 24,
            near_dup_rate: 0.02,
            ..CorpusSpec::new(
                "wikilinks-like",
                scaled(1_815_914, scale / 900.0).max(900),
                8_000,
                14,
            )
        }
        .generate(seed + 5),
    ]
}

// ---------------------------------------------------------------------
// Chapter 5 (Table 5.1): medium-dimensional cluster-viz datasets
// ---------------------------------------------------------------------

/// One parallel-coordinates dataset: raw rows, labels, display cluster
/// count from the corresponding paper figure.
pub struct ParcoordsEntry {
    /// Paper dataset name.
    pub name: &'static str,
    /// Rows in the paper.
    pub paper_n: usize,
    /// Attribute count in the paper.
    pub attributes: usize,
    /// Cluster count used in the paper's figure.
    pub figure_clusters: usize,
    spec: GaussianSpec,
}

impl ParcoordsEntry {
    /// Generates raw (z-normed) dense rows plus labels.
    pub fn generate_rows(&self, seed: u64) -> (Vec<Vec<f64>>, Vec<u32>) {
        self.spec.generate_rows(seed)
    }
}

/// The seven datasets of Figs. 5.4–5.10 / Table 5.1.
pub fn parcoords_catalog() -> Vec<ParcoordsEntry> {
    fn entry(name: &'static str, n: usize, d: usize, figk: usize, sep: f64) -> ParcoordsEntry {
        ParcoordsEntry {
            name,
            paper_n: n,
            attributes: d,
            figure_clusters: figk,
            spec: GaussianSpec {
                separation: sep,
                spread: 1.0,
                ..GaussianSpec::new(name, n, d, figk)
            },
        }
    }
    vec![
        entry("forestfires", 517, 13, 6, 2.0),
        entry("water-treatment", 527, 38, 3, 2.5),
        entry("wdbc", 569, 30, 4, 2.2),
        entry("parkinsons", 195, 22, 4, 2.0),
        entry("pima-indians-diabetes", 768, 8, 10, 1.6),
        entry("wine", 178, 13, 4, 2.5),
        entry("eighthr", 2534, 72, 2, 1.8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_has_floor_and_cap() {
        assert_eq!(scaled(8000, 1.0), 8000);
        assert_eq!(scaled(8000, 0.5), 4000);
        assert!(scaled(8000, 0.0001) >= 64);
        assert_eq!(scaled(30, 0.001), 30); // floor capped at paper_n
    }

    #[test]
    fn wine_matches_paper_shape() {
        let ds = wine_like(1);
        assert_eq!(ds.len(), 178);
        assert_eq!(ds.dim, 13);
        assert_eq!(ds.num_classes(), Some(3));
    }

    #[test]
    fn growth_catalog_has_eleven_plus_one() {
        // Table 3.1 lists 12 rows (11 datasets + adult variant); we keep 12.
        let cat = growth_catalog();
        assert_eq!(cat.len(), 12);
        let ds = cat[2].generate(0.1, 3);
        assert_eq!(ds.dim, 18);
        assert!(ds.len() >= 64);
    }

    #[test]
    fn tx_catalog_matches_table_4_4() {
        let cat = tx_catalog();
        assert_eq!(cat.len(), 10);
        let (txs, labels) = cat[4].generate_labeled(0.05, 1); // mushroom-like
        assert!(!txs.is_empty());
        assert_eq!(txs.len(), labels.len());
        assert!(cat[4].labeled());
        assert!(!cat[0].labeled()); // accidents (quest) unlabeled
    }

    #[test]
    fn web_catalog_five_entries() {
        let cat = web_catalog(0.05);
        assert_eq!(cat.len(), 5);
        let adj = cat[2].spec.generate(1);
        assert!(adj.len() >= 400);
    }

    #[test]
    fn parcoords_catalog_matches_figures() {
        let cat = parcoords_catalog();
        assert_eq!(cat.len(), 7);
        let (rows, labels) = cat[5].generate_rows(2); // wine
        assert_eq!(rows.len(), 178);
        assert_eq!(labels.len(), 178);
        assert_eq!(rows[0].len(), 13);
    }

    #[test]
    fn compression_catalog_six_datasets() {
        let sets = compression_catalog(0.02, 9);
        assert_eq!(sets.len(), 6);
        assert!(sets.iter().all(|d| d.len() >= 500));
    }
}
