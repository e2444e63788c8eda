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
//! `Option<&SharedKnowledgeCache>` (`None` = cold). With a cache, a
//! worker hands its candidates to the cache one row run (the consecutive
//! pairs of one first record) at a time: full hits are recorded under
//! one shared stripe guard, and the evaluator steps only the pairs that
//! need work, after the guard dropped. All workers decide from one
//! [`DecisionCells`] table: the cache's table for the threshold when
//! there is a cache, a table local to the call when cold. Pairs,
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

    /// Books one evaluated pair: its decision and work, its estimate, and
    /// the pair itself when `similarity` meets the threshold. `cached`:
    /// the probe has a memo source, so a pair that compared no hash is a
    /// cache hit.
    #[inline]
    fn record(
        &mut self,
        (i, j): (u32, u32),
        estimate: PairEstimate,
        new_hashes: u32,
        similarity: Option<f64>,
        cached: bool,
    ) {
        self.stats.hashes_compared += new_hashes as u64;
        if cached && new_hashes == 0 {
            self.stats.cache_hits += 1;
        }
        match estimate.decision {
            PairDecision::Pruned => self.stats.pruned += 1,
            PairDecision::Accepted => self.stats.accepted += 1,
            PairDecision::Exhausted => self.stats.exhausted += 1,
        }
        if let Some(similarity) = similarity.filter(|&s| s >= self.threshold) {
            self.pairs.push(SimilarPair { i, j, similarity });
        }
        self.estimates.push((i, j, estimate));
    }
}

/// The similarity to report for a decided pair when it needs no work:
/// `Some(None)` for a pruned pair, the estimate's, or the `known` exact
/// one under `exact_on_accept`. `None` when the exact similarity must
/// still be computed.
#[inline]
fn settled_similarity(
    estimate: &PairEstimate,
    exact_on_accept: bool,
    known: Option<f64>,
) -> Option<Option<f64>> {
    match estimate.decision {
        PairDecision::Pruned => Some(None),
        _ if exact_on_accept => known.map(Some),
        _ => Some(Some(estimate.map_similarity)),
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
    /// at every thread count. Decision cells only: the posteriors a
    /// session's curve fold evaluates are counted by
    /// [`ProbeReport::curve_rows`](crate::streaming::ProbeReport::curve_rows).
    pub posterior_evals: u64,
    /// Non-empty match profiles this probe copied out of a knowledge
    /// cache: one per partial hit, resumed outside the stripe guard. A
    /// full hit reads its profile in place and copies nothing, so a
    /// re-probe at an already-probed threshold counts 0.
    pub memo_clones: u64,
    /// Shared stripe guards this probe's memo walks took: one per row run
    /// (a row's consecutive candidates), plus one each time a walk
    /// re-enters the run after a pair that needed work outside the guard.
    /// A re-probe at an already-probed threshold takes exactly one per
    /// distinct first record among its candidates. Always 0 for
    /// cache-less probes.
    pub row_guards: u64,
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
        self.row_guards += other.row_guards;
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

    /// Evaluates one pair from what its memo walk read, outside any
    /// guard: decision walk → similarity → publish. A `Decided` read only
    /// still needs its exact similarity; a `Resume` read walks on from
    /// its copy of the resident profile (or from nothing), comparing
    /// hashes. `known_exact` is the memo's exact similarity, and `exact`
    /// carries the records and measure when accepted pairs get their
    /// similarity recomputed exactly. The estimate is bit-identical
    /// whatever the memos hold; only `new_hashes` varies.
    // `#[inline]` here and on `replay_run`/`publish`: out-of-line
    // per-candidate calls cost ~5 % of a contended warm probe.
    #[inline]
    fn step(
        &mut self,
        (i, j): (u32, u32),
        read: MemoRead,
        known_exact: Option<f64>,
        exact: Option<(&[SparseVector], Similarity)>,
    ) -> PairOutcome {
        let (a, b) = (i as usize, j as usize);
        let (estimate, new_hashes, profile) = match read {
            MemoRead::Decided(estimate) => (estimate, 0, None),
            MemoRead::Resume(mut profile) if self.profiled => {
                if !profile.is_empty() {
                    self.memo_clones += 1;
                }
                // The guarded walk replayed the covered steps already.
                let out = self.table.resume(self.sketches, a, b, &mut profile);
                (out.estimate, out.new_hashes, Some(profile))
            }
            MemoRead::Resume(_) => {
                let est = self.table.evaluate_pair(self.sketches, a, b);
                (est, est.hashes, None)
            }
        };
        let mut fresh_exact = None;
        let similarity = settled_similarity(&estimate, exact.is_some(), known_exact)
            .unwrap_or_else(|| {
                let (records, measure) = exact.expect("only an exact probe computes");
                let s = measure.compute(&records[a], &records[b]);
                fresh_exact = Some(s);
                Some(s)
            });
        if let Some(cache) = self.memos {
            // A full cache hit publishes no profile — it re-derived only
            // already-published knowledge.
            cache.publish((i, j), profile, fresh_exact);
        }
        PairOutcome {
            estimate,
            new_hashes,
            similarity,
        }
    }
}

/// Splits `cands` into at most `threads` chunks of about equal length,
/// moving each cut forward to the next row start (a change of the first
/// record `i`), so one worker evaluates — and publishes — all of a row's
/// candidates and no two workers write one memo row.
fn row_chunks(cands: &[(u32, u32)], threads: usize) -> Vec<&[(u32, u32)]> {
    let per = cands.len().div_ceil(threads);
    let mut chunks = Vec::with_capacity(threads);
    let mut rest = cands;
    while !rest.is_empty() {
        let mut cut = per.min(rest.len());
        while cut < rest.len() && rest[cut].0 == rest[cut - 1].0 {
            cut += 1;
        }
        let (chunk, tail) = rest.split_at(cut);
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

/// The one evaluation loop behind every probe: cold APSS and incremental
/// blocks (`memos: None`), cached probes and watch deltas (`Some`).
/// Chunks `cands` across [`eval_threads`] workers at row starts
/// ([`row_chunks`]), each with a private [`PairEvaluator`] and stats
/// partial over one shared decision table, and concatenates chunk
/// outputs back into candidate order — so pairs, estimates, and decision
/// counters are bit-identical at every thread count and cache warmth.
/// The caller owns the timings.
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
    let max_n = sketches.n_hashes();
    let eval_chunk = |chunk: &[(u32, u32)]| {
        let mut eval = PairEvaluator::new(&engine, &cells, sketches, memos);
        let mut out = ApssResult::with_capacity(threshold, chunk.len());
        out.stats.candidates = chunk.len() as u64;
        // Row runs never cross a chunk cut: `row_chunks` cuts at row starts.
        for run in chunk.chunk_by(|a, b| a.0 == b.0) {
            let i = run[0].0;
            let mut rest = run;
            while !rest.is_empty() {
                let (at, read, known_exact) = match memos {
                    None => (0, MemoRead::Resume(MatchProfile::new()), None),
                    Some(cache) => {
                        out.stats.row_guards += 1;
                        let table = eval.profiled.then_some(&mut eval.table);
                        let hit = |j, estimate, known| {
                            let settled = settled_similarity(&estimate, exact.is_some(), known);
                            let Some(similarity) = settled else {
                                return false;
                            };
                            out.record((i, j), estimate, 0, similarity, true);
                            true
                        };
                        match cache.replay_run(rest, table, max_n, hit) {
                            Some(stop) => stop,
                            None => break,
                        }
                    }
                };
                let key = rest[at];
                let pair = eval.step(key, read, known_exact, exact);
                let cached = memos.is_some();
                out.record(key, pair.estimate, pair.new_hashes, pair.similarity, cached);
                rest = &rest[at + 1..];
            }
        }
        out.stats.posterior_evals = eval.table.cells_filled();
        out.stats.memo_clones = eval.memo_clones;
        out
    };
    let threads = eval_threads(cfg, cands.len());
    if threads <= 1 {
        return eval_chunk(cands);
    }
    let chunks: Vec<ApssResult> = row_chunks(cands, threads)
        .par_chunks(1)
        .map(|chunk| eval_chunk(chunk[0]))
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
    fn chunks_cut_at_row_starts() {
        let cands = candidates::exhaustive(60);
        for threads in 2..=4 {
            let chunks = row_chunks(&cands, threads);
            assert!(chunks.len() <= threads, "{threads} workers");
            assert_eq!(chunks.concat(), cands, "{threads} workers");
            let mut start = 0;
            for pair in chunks.windows(2) {
                start += pair[0].len();
                assert_ne!(
                    cands[start - 1].0,
                    cands[start].0,
                    "{threads} workers cut inside row {}",
                    cands[start].0
                );
            }
        }
        // One row cannot be split.
        let row: Vec<(u32, u32)> = (1..500).map(|j| (0, j)).collect();
        assert_eq!(row_chunks(&row, 4).len(), 1);
    }

    #[test]
    fn sketch_time_recorded() {
        let records = small_dataset();
        let result = apss(&records, Similarity::Cosine, 0.5, &ApssConfig::default());
        assert!(result.stats.sketch_seconds > 0.0);
        assert!(result.stats.process_seconds > 0.0);
    }
}
