//! All-pairs similarity search (APSS) over BayesLSH.
//!
//! One probe at threshold `t`: generate candidate pairs, evaluate each with
//! BayesLSH's incremental pruning/concentration, and return the surviving
//! pairs plus every memoized estimate (fuel for the knowledge cache and the
//! Cumulative APSS Graph). Timing is split into *sketching* and
//! *processing* because Fig. 2.9's point is exactly that split.
//!
//! # Pair evaluation
//!
//! Cold APSS, cached probes, watch deltas, and incremental runs (one call
//! per block of joined pairs) all go through one loop: `evaluate` chunks
//! the candidate list across [`ApssConfig::parallelism`] workers, each
//! stepping a private `PairEvaluator` whose memo source is an
//! `Option<&SharedKnowledgeCache>` (`None` = cold). All workers decide
//! from one [`DecisionCells`] table: the cache's table for the threshold
//! when there is a cache, a table local to the call when cold. Pairs,
//! estimates, and counters are bit-identical at every thread count and
//! cache warmth: per-pair evaluation is independent, chunk outputs
//! concatenate back into candidate order, and each decision cell is
//! filled once whichever worker reaches it first.

use std::time::Instant;

use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::{
    BayesLsh, DecisionCells, MatchProfile, PairDecision, PairEstimate, ProbeTable,
};
use plasma_lsh::candidates;
use plasma_lsh::family::LshFamily;
use plasma_lsh::resolve_parallelism;
use plasma_lsh::sketch::{SketchSet, Sketcher};
use plasma_lsh::BayesParams;
use rayon::prelude::*;

use crate::cache::{MemoRead, SharedKnowledgeCache};

/// How candidate pairs are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStrategy {
    /// All `n·(n−1)/2` pairs — exact recall, used for small data and
    /// ground-truth comparisons.
    Exhaustive,
    /// Banded LSH join: `bands` bands of `width` hashes.
    Banded {
        /// Number of bands.
        bands: usize,
        /// Hashes per band.
        width: usize,
    },
}

/// APSS configuration.
#[derive(Debug, Clone, Copy)]
pub struct ApssConfig {
    /// Hashes per sketch.
    pub n_hashes: usize,
    /// BayesLSH stopping parameters.
    pub bayes: BayesParams,
    /// Candidate generation strategy.
    pub candidates: CandidateStrategy,
    /// When true, accepted pairs get their similarity recomputed exactly
    /// (BayesLSH; false = BayesLSH-Lite style estimates only).
    pub exact_on_accept: bool,
    /// RNG/hash seed.
    pub seed: u64,
    /// Worker threads for sketching and pair evaluation: `None` = all
    /// cores, `Some(1)` = sequential. Results are bit-identical regardless,
    /// so experiments stay reproducible at any setting.
    pub parallelism: Option<usize>,
}

impl Default for ApssConfig {
    fn default() -> Self {
        Self {
            n_hashes: 256,
            bayes: BayesParams::default(),
            candidates: CandidateStrategy::Exhaustive,
            exact_on_accept: false,
            seed: 0x9D_5A,
            parallelism: None,
        }
    }
}

/// A reported similar pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarPair {
    /// Record indices, `i < j`.
    pub i: u32,
    /// Second record index.
    pub j: u32,
    /// Similarity (estimate, or exact when `exact_on_accept`).
    pub similarity: f64,
}

/// Outcome of one APSS probe.
#[derive(Debug, Clone)]
pub struct ApssResult {
    /// The probe threshold.
    pub threshold: f64,
    /// Pairs whose (estimated or exact) similarity meets the threshold.
    pub pairs: Vec<SimilarPair>,
    /// Every candidate evaluated, with its memoized estimate — the
    /// knowledge-cache payload.
    pub estimates: Vec<(u32, u32, PairEstimate)>,
    /// Counters and timings.
    pub stats: ApssStats,
}

impl ApssResult {
    /// An empty result with room for `candidates` estimates.
    fn with_capacity(threshold: f64, candidates: usize) -> Self {
        Self {
            threshold,
            pairs: Vec::new(),
            estimates: Vec::with_capacity(candidates),
            stats: ApssStats::default(),
        }
    }
}

/// Probe statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApssStats {
    /// Candidate pairs generated.
    pub candidates: u64,
    /// Candidates pruned by Eq. 2.1.
    pub pruned: u64,
    /// Candidates accepted by Eq. 2.2 (estimate concentrated).
    pub accepted: u64,
    /// Candidates that exhausted their sketches undecided.
    pub exhausted: u64,
    /// Total hashes compared.
    pub hashes_compared: u64,
    /// Seconds spent generating sketches.
    pub sketch_seconds: f64,
    /// Seconds spent generating + evaluating candidates.
    pub process_seconds: f64,
    /// Pair evaluations answered *entirely* from a knowledge cache's
    /// memoized match profiles — zero new hash comparisons. Partially
    /// covered pairs (profile resumed, then deepened) count toward
    /// `hashes_compared` only. Always 0 for cache-less probes.
    pub cache_hits: u64,
    /// Posterior evaluations: decision cells this probe filled. A probe
    /// at a threshold its cache has already decided at fills none of the
    /// cells the earlier probes filled, so a re-probe counts 0. The same
    /// at every thread count.
    pub posterior_evals: u64,
    /// Non-empty match profiles this probe copied out of a knowledge
    /// cache: one per partial hit, resumed outside the stripe guard. A
    /// full hit reads its profile in place and copies nothing, so a
    /// re-probe at an already-probed threshold counts 0.
    pub memo_clones: u64,
}

impl ApssStats {
    /// Folds another partial's counters into this one (timings are owned
    /// by the caller driving the probe, not the partials).
    pub fn absorb(&mut self, other: &ApssStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.accepted += other.accepted;
        self.exhausted += other.exhausted;
        self.hashes_compared += other.hashes_compared;
        self.cache_hits += other.cache_hits;
        self.posterior_evals += other.posterior_evals;
        self.memo_clones += other.memo_clones;
    }
}

/// Builds sketches for a record set under a similarity measure.
pub fn build_sketches(
    records: &[SparseVector],
    measure: Similarity,
    cfg: &ApssConfig,
) -> (SketchSet, f64) {
    let start = Instant::now();
    let family = LshFamily::for_measure(measure);
    let sketcher = Sketcher::new(family, cfg.n_hashes, cfg.seed).with_parallelism(cfg.parallelism);
    let sketches = sketcher.sketch_all(records);
    (sketches, start.elapsed().as_secs_f64())
}

/// Generates candidate pairs per the configured strategy.
pub fn generate_candidates(sketches: &SketchSet, cfg: &ApssConfig) -> Vec<(u32, u32)> {
    match cfg.candidates {
        CandidateStrategy::Exhaustive => candidates::exhaustive(sketches.len()),
        CandidateStrategy::Banded { bands, width } => {
            candidates::banded_join(sketches, bands, width, 0)
        }
    }
}

/// Below this many candidates per worker, chunking costs more than it
/// saves and evaluation stays sequential.
const MIN_PAIRS_PER_WORKER: usize = 64;

/// Worker count for evaluating `pairs` candidates under `cfg`: never so
/// many that a worker gets fewer than [`MIN_PAIRS_PER_WORKER`] pairs.
pub(crate) fn eval_threads(cfg: &ApssConfig, pairs: usize) -> usize {
    resolve_parallelism(cfg.parallelism).min((pairs / MIN_PAIRS_PER_WORKER).max(1))
}

/// Runs a full APSS probe from scratch (sketch + candidates + evaluate).
pub fn apss(
    records: &[SparseVector],
    measure: Similarity,
    threshold: f64,
    cfg: &ApssConfig,
) -> ApssResult {
    let (sketches, sketch_seconds) = build_sketches(records, measure, cfg);
    let mut result = apss_with_sketches(records, measure, &sketches, threshold, cfg);
    result.stats.sketch_seconds = sketch_seconds;
    result
}

/// Runs a probe reusing prebuilt sketches (the knowledge-cache fast path
/// charges zero sketch time).
pub fn apss_with_sketches(
    records: &[SparseVector],
    measure: Similarity,
    sketches: &SketchSet,
    threshold: f64,
    cfg: &ApssConfig,
) -> ApssResult {
    let start = Instant::now();
    let cands = generate_candidates(sketches, cfg);
    let mut result = evaluate(records, measure, sketches, threshold, cfg, &cands, None);
    result.stats.process_seconds = start.elapsed().as_secs_f64();
    result
}

/// One worker's pair evaluator: a `ProbeTable` over the call's shared
/// decision cells plus the memo source its walks read and publish
/// through (`None` = cold).
struct PairEvaluator<'a> {
    table: ProbeTable<'a>,
    sketches: &'a SketchSet,
    memos: Option<&'a SharedKnowledgeCache>,
    /// Whether the memoized profiles are indexed by this walk's batch
    /// schedule; a mismatched walk runs cold but still reuses (and
    /// publishes) exact similarities.
    profiled: bool,
    /// Non-empty profiles copied out of the cache (partial hits).
    memo_clones: u64,
}

/// What one pair evaluation produced.
struct PairOutcome {
    estimate: PairEstimate,
    /// Hash positions newly compared (0 = answered entirely from memos).
    new_hashes: u32,
    /// The similarity to report, `None` for a pruned pair.
    similarity: Option<f64>,
}

impl<'a> PairEvaluator<'a> {
    fn new(
        engine: &'a BayesLsh,
        cells: &'a DecisionCells,
        sketches: &'a SketchSet,
        memos: Option<&'a SharedKnowledgeCache>,
    ) -> Self {
        Self {
            table: engine.table_over(cells),
            sketches,
            memos,
            profiled: memos.is_some_and(|c| c.schedule_accepts(engine.params().batch)),
            memo_clones: 0,
        }
    }

    /// Evaluates one pair: memo read → decision walk → similarity →
    /// publish. A full hit decides from the resident profile under the
    /// stripe's shared guard; any other walk resumes from a copy (or from
    /// nothing) outside it. `exact` carries the records and measure when
    /// accepted pairs get their similarity recomputed exactly. The
    /// estimate is bit-identical whatever the memos hold; only
    /// `new_hashes` varies.
    // `#[inline]` here and on `replay`/`publish`: out-of-line
    // per-candidate calls cost ~5 % of a contended warm probe.
    #[inline]
    fn step(
        &mut self,
        i: u32,
        j: u32,
        exact: Option<(&[SparseVector], Similarity)>,
    ) -> PairOutcome {
        let (key, a, b) = ((i, j), i as usize, j as usize);
        let table = self.profiled.then_some(&mut self.table);
        let (read, known_exact) = match self.memos {
            Some(cache) => cache.replay(key, table, self.sketches.n_hashes()),
            None => (MemoRead::Resume(MatchProfile::new()), None),
        };
        // Compare hashes without holding any lock.
        let (estimate, new_hashes, profile) = match read {
            MemoRead::Decided(estimate) => (estimate, 0, None),
            MemoRead::Resume(mut profile) if self.profiled => {
                if !profile.is_empty() {
                    self.memo_clones += 1;
                }
                // The guarded replay walked the covered steps already.
                let out = self.table.resume(self.sketches, a, b, &mut profile);
                (out.estimate, out.new_hashes, Some(profile))
            }
            MemoRead::Resume(_) => {
                let est = self.table.evaluate_pair(self.sketches, a, b);
                (est, est.hashes, None)
            }
        };
        let mut fresh_exact = None;
        let similarity = (estimate.decision != PairDecision::Pruned).then(|| match exact {
            Some((records, measure)) => known_exact.unwrap_or_else(|| {
                let s = measure.compute(&records[a], &records[b]);
                fresh_exact = Some(s);
                s
            }),
            None => estimate.map_similarity,
        });
        if let Some(cache) = self.memos {
            // A full cache hit publishes no profile — it re-derived only
            // already-published knowledge.
            cache.publish(key, profile, fresh_exact);
        }
        PairOutcome {
            estimate,
            new_hashes,
            similarity,
        }
    }
}

/// The one evaluation loop behind every probe: cold APSS and incremental
/// blocks (`memos: None`), cached probes and watch deltas (`Some`).
/// Chunks `cands` across [`eval_threads`] workers, each with a private
/// [`PairEvaluator`] and stats partial over one shared decision table,
/// and concatenates chunk outputs back into candidate order — so pairs,
/// estimates, and decision counters are bit-identical at every thread
/// count and cache warmth. The caller owns the timings.
pub(crate) fn evaluate(
    records: &[SparseVector],
    measure: Similarity,
    sketches: &SketchSet,
    threshold: f64,
    cfg: &ApssConfig,
    cands: &[(u32, u32)],
    memos: Option<&SharedKnowledgeCache>,
) -> ApssResult {
    let engine = BayesLsh::new(sketches.family(), cfg.bayes);
    let cells = match memos {
        Some(cache) => cache.decision_table(&engine, threshold, sketches.n_hashes()),
        None => std::sync::Arc::new(engine.decision_cells(threshold, sketches.n_hashes())),
    };
    let exact = cfg.exact_on_accept.then_some((records, measure));
    let eval_chunk = |chunk: &[(u32, u32)]| {
        let mut eval = PairEvaluator::new(&engine, &cells, sketches, memos);
        let mut out = ApssResult::with_capacity(threshold, chunk.len());
        out.stats.candidates = chunk.len() as u64;
        for &(i, j) in chunk {
            let pair = eval.step(i, j, exact);
            out.stats.hashes_compared += pair.new_hashes as u64;
            if memos.is_some() && pair.new_hashes == 0 {
                out.stats.cache_hits += 1;
            }
            match pair.estimate.decision {
                PairDecision::Pruned => out.stats.pruned += 1,
                PairDecision::Accepted => out.stats.accepted += 1,
                PairDecision::Exhausted => out.stats.exhausted += 1,
            }
            if let Some(similarity) = pair.similarity.filter(|&s| s >= threshold) {
                out.pairs.push(SimilarPair { i, j, similarity });
            }
            out.estimates.push((i, j, pair.estimate));
        }
        out.stats.posterior_evals = eval.table.cells_filled();
        out.stats.memo_clones = eval.memo_clones;
        out
    };
    let threads = eval_threads(cfg, cands.len());
    if threads <= 1 {
        return eval_chunk(cands);
    }
    let chunks: Vec<ApssResult> = cands
        .par_chunks(cands.len().div_ceil(threads))
        .map(eval_chunk)
        .collect();
    let mut result = ApssResult::with_capacity(threshold, cands.len());
    for out in chunks {
        result.stats.absorb(&out.stats);
        result.pairs.extend(out.pairs);
        result.estimates.extend(out.estimates);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_data::datasets::gaussian::GaussianSpec;
    use plasma_data::similarity::all_pairs_exact;

    fn small_dataset() -> Vec<SparseVector> {
        GaussianSpec {
            separation: 4.0,
            spread: 0.6,
            ..GaussianSpec::new("t", 60, 8, 3)
        }
        .generate(11)
        .records
    }

    #[test]
    fn apss_recall_and_precision_against_exact() {
        let records = small_dataset();
        let t = 0.7;
        let cfg = ApssConfig {
            exact_on_accept: true,
            ..ApssConfig::default()
        };
        let result = apss(&records, Similarity::Cosine, t, &cfg);
        let truth = all_pairs_exact(&records, Similarity::Cosine, t);
        let found: std::collections::HashSet<(u32, u32)> =
            result.pairs.iter().map(|p| (p.i, p.j)).collect();
        let truth_set: std::collections::HashSet<(u32, u32)> =
            truth.iter().map(|&(i, j, _)| (i, j)).collect();
        // Precision is exact (exact_on_accept); recall bounded by ε misses.
        assert!(found.is_subset(&truth_set), "no false positives allowed");
        let recall = found.len() as f64 / truth_set.len().max(1) as f64;
        assert!(recall > 0.9, "recall {recall} too low");
    }

    #[test]
    fn pruning_reduces_hash_comparisons() {
        let records = small_dataset();
        let cfg = ApssConfig::default();
        let result = apss(&records, Similarity::Cosine, 0.9, &cfg);
        let max_possible = result.stats.candidates * cfg.n_hashes as u64;
        assert!(
            result.stats.hashes_compared < max_possible / 2,
            "pruning should compare far fewer hashes ({} of {max_possible})",
            result.stats.hashes_compared
        );
        assert!(result.stats.pruned > 0);
    }

    #[test]
    fn estimates_cover_all_candidates() {
        let records = small_dataset();
        let result = apss(&records, Similarity::Cosine, 0.8, &ApssConfig::default());
        assert_eq!(result.estimates.len() as u64, result.stats.candidates);
        assert_eq!(
            result.stats.pruned + result.stats.accepted + result.stats.exhausted,
            result.stats.candidates
        );
    }

    #[test]
    fn banded_strategy_cuts_candidates() {
        let records = small_dataset();
        let exh = apss(&records, Similarity::Cosine, 0.9, &ApssConfig::default());
        let banded = apss(
            &records,
            Similarity::Cosine,
            0.9,
            &ApssConfig {
                candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
                ..ApssConfig::default()
            },
        );
        assert!(banded.stats.candidates < exh.stats.candidates);
    }

    #[test]
    fn posterior_evals_do_not_depend_on_the_thread_count() {
        let records = small_dataset();
        let run = |parallelism| {
            let cfg = ApssConfig {
                parallelism: Some(parallelism),
                ..ApssConfig::default()
            };
            apss(&records, Similarity::Cosine, 0.7, &cfg).stats
        };
        let (one, four) = (run(1), run(4));
        // Workers share one table, so each visited cell is filled once.
        assert!(one.posterior_evals > 0);
        assert_eq!(one.posterior_evals, four.posterior_evals);
        assert_eq!(one.hashes_compared, four.hashes_compared);
    }

    #[test]
    fn sketch_time_recorded() {
        let records = small_dataset();
        let result = apss(&records, Similarity::Cosine, 0.5, &ApssConfig::default());
        assert!(result.stats.sketch_seconds > 0.0);
        assert!(result.stats.process_seconds > 0.0);
    }
}
