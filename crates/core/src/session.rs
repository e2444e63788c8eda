//! The interactive session driver (Fig. 2.1's workflow).
//!
//! A [`Session`] owns a dataset and (a handle to) its knowledge cache.
//! Each [`probe`](Session::probe) runs BayesLSH APSS at a threshold,
//! memoizes everything, and returns a [`ProbeReport`] carrying the pair
//! count, the updated Cumulative APSS Graph (with error bars), the
//! triangle/density cues, and timing — the full feedback loop a user
//! iterates on. Probes after the first reuse sketches and pair memos, so
//! they are cheap; that asymmetry is the knowledge-caching result of
//! §2.3.3.
//!
//! # Multi-session probing
//!
//! The cache behind a session is a [`SharedKnowledgeCache`]: hand its
//! `Arc` to [`Session::with_shared_cache`] (or open sessions through a
//! [`crate::cache::CacheRegistry`]) and any number of sessions — on any
//! number of threads — probe the same corpus while sharing one sketch set
//! and one memo pool. Each session keeps its *own* cumulative curve and
//! threshold grid; only the expensive knowledge is shared. Probe results
//! are bit-identical to what a private cache would return (see
//! [`SharedKnowledgeCache::probe`]), and stay so when the pool is
//! memory-bounded ([`Session::with_cache_capacity`],
//! [`crate::cache::CacheCapacity`]) — eviction trades cache hits for
//! memory, never results.
//!
//! A `Session` serves a corpus that is fixed for its lifetime; when
//! records arrive *while* users probe, use the epoch-versioned streaming
//! driver ([`crate::streaming::StreamingSession`]), which interleaves
//! `ingest`/`probe` over a growing corpus and carries old-pair memos
//! across every growth epoch.

use std::sync::Arc;
use std::time::Instant;

use plasma_data::datasets::Dataset;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::family::LshFamily;

use crate::apss::{build_sketches, ApssConfig, SimilarPair};
use crate::cache::{CacheCapacity, SharedKnowledgeCache};
use crate::cues::{self, DensityPlot, TriangleCue};
use crate::cumulative::CumulativeCurve;

/// An interactive PLASMA-HD session over one dataset.
///
/// ```
/// use plasma_core::{ApssConfig, Session};
/// use plasma_data::datasets::gaussian::GaussianSpec;
///
/// let ds = GaussianSpec::new("doc", 40, 6, 2).generate(7);
/// let mut session = Session::new(&ds, ApssConfig::default());
///
/// // The first probe pays for sketching; re-probes ride the cache.
/// let first = session.probe(0.8);
/// assert!(first.sketch_seconds > 0.0);
///
/// // Re-probing the same threshold is answered entirely from the
/// // knowledge cache: zero new hash comparisons, identical pairs.
/// let again = session.probe(0.8);
/// assert_eq!(again.sketch_seconds, 0.0);
/// assert_eq!(again.hashes_compared, 0);
/// assert_eq!(again.cache_hits, again.candidates);
/// assert_eq!(again.pairs, first.pairs);
/// ```
pub struct Session {
    records: Vec<SparseVector>,
    measure: Similarity,
    cfg: ApssConfig,
    cache: Option<Arc<SharedKnowledgeCache>>,
    /// Memory policy for the cache this session builds on first probe
    /// (ignored when a shared cache is attached — the pool's owner chose).
    cache_capacity: CacheCapacity,
    grid: Vec<f64>,
    sketch_seconds: f64,
    curve: Option<CumulativeCurve>,
}

/// What one probe returns to the user.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The probed threshold.
    pub threshold: f64,
    /// Pairs meeting the threshold.
    pub pairs: Vec<SimilarPair>,
    /// Updated Cumulative APSS Graph estimate (merged across probes).
    pub curve: CumulativeCurve,
    /// Seconds spent on this probe (sketching charged to the first).
    pub seconds: f64,
    /// Sketch seconds charged to this probe (non-zero only on the first).
    pub sketch_seconds: f64,
    /// Candidates evaluated / pruned / cache hits.
    pub candidates: u64,
    /// Candidates pruned by Eq. 2.1.
    pub pruned: u64,
    /// Pair evaluations answered entirely from the knowledge cache
    /// (zero new hash comparisons for that pair).
    pub cache_hits: u64,
    /// Hashes compared during this probe.
    pub hashes_compared: u64,
}

impl Session {
    /// Opens a session over a dataset.
    pub fn new(dataset: &Dataset, cfg: ApssConfig) -> Self {
        Self::from_records(dataset.records.clone(), dataset.measure, cfg)
    }

    /// Opens a session over raw records.
    pub fn from_records(records: Vec<SparseVector>, measure: Similarity, cfg: ApssConfig) -> Self {
        let lo = match measure {
            Similarity::Jaccard => 0.05,
            Similarity::Cosine => 0.05,
        };
        Self {
            records,
            measure,
            cfg,
            cache: None,
            cache_capacity: CacheCapacity::unbounded(),
            grid: crate::cumulative::default_grid(lo),
            sketch_seconds: 0.0,
            curve: None,
        }
    }

    /// Overrides the threshold grid for the cumulative curve.
    pub fn with_grid(mut self, grid: Vec<f64>) -> Self {
        self.grid = grid;
        self
    }

    /// Pins the worker-thread count for this session's probes (`None` =
    /// all cores, `Some(1)` = sequential). Probe results are bit-identical
    /// at every setting; only latency changes.
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Bounds the memo pool of the knowledge cache this session builds on
    /// its first probe. Probe reports are bit-identical at every capacity
    /// — eviction only trades cache hits for memory (see
    /// [`CacheCapacity`]). No effect on a cache attached via
    /// [`with_shared_cache`](Self::with_shared_cache): a shared pool's
    /// policy belongs to whoever built it.
    ///
    /// ```
    /// use plasma_core::cache::CacheCapacity;
    /// use plasma_core::{ApssConfig, Session};
    /// use plasma_data::datasets::gaussian::GaussianSpec;
    ///
    /// let ds = GaussianSpec::new("doc", 40, 6, 2).generate(7);
    /// let mut bounded = Session::new(&ds, ApssConfig::default())
    ///     .with_cache_capacity(CacheCapacity::bounded(32 << 10));
    /// let mut unbounded = Session::new(&ds, ApssConfig::default());
    /// let a = bounded.probe(0.8);
    /// let b = unbounded.probe(0.8);
    /// assert_eq!(a.pairs, b.pairs, "capacity never changes results");
    /// let stats = bounded.cache().expect("probed").memory_stats();
    /// assert!(stats.memo_bytes <= 32 << 10);
    /// ```
    pub fn with_cache_capacity(mut self, capacity: CacheCapacity) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Attaches this session to an existing shared knowledge cache, so it
    /// joins every other session holding the same `Arc` in one sketch set
    /// and one memo pool — the multi-user serving shape. The first probe
    /// then pays **no** sketch cost.
    ///
    /// The cache must have been built over this session's dataset: same
    /// record count and a hash family matching the session's similarity
    /// measure (use [`crate::cache::CacheRegistry`] to get this pairing
    /// by construction).
    ///
    /// # Panics
    ///
    /// Panics when the cache's sketch count or hash family disagrees with
    /// the session's records and measure.
    ///
    /// ```
    /// use plasma_core::{ApssConfig, Session};
    /// use plasma_data::datasets::gaussian::GaussianSpec;
    ///
    /// let ds = GaussianSpec::new("doc", 40, 6, 2).generate(7);
    /// let mut first = Session::new(&ds, ApssConfig::default());
    /// first.probe(0.8);
    ///
    /// // A second user opens a session over the same corpus, sharing the
    /// // first session's cache: no sketching, and the 0.8 re-probe is
    /// // answered without comparing a single hash.
    /// let cache = first.shared_cache().expect("probed above");
    /// let mut second = Session::new(&ds, ApssConfig::default()).with_shared_cache(cache);
    /// let report = second.probe(0.8);
    /// assert_eq!(report.sketch_seconds, 0.0);
    /// assert_eq!(report.hashes_compared, 0);
    /// ```
    pub fn with_shared_cache(mut self, cache: Arc<SharedKnowledgeCache>) -> Self {
        let sketched = cache.sketches().len();
        assert!(
            sketched == self.records.len(),
            "shared cache sketches {} records, session has {}{}",
            sketched,
            self.records.len(),
            if cache.epoch() > 0 {
                " — the cache has grown past this session's corpus (streamed \
                 ingest); open a crate::streaming::StreamingSession over the \
                 grown corpus instead of a batch Session over a stale prefix"
            } else {
                ""
            }
        );
        assert_eq!(
            cache.sketches().family(),
            LshFamily::for_measure(self.measure),
            "shared cache hash family does not serve this session's measure"
        );
        self.cache = Some(cache);
        self
    }

    /// Number of records in the session's dataset.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The similarity measure in use.
    pub fn measure(&self) -> Similarity {
        self.measure
    }

    /// The records (read-only).
    pub fn records(&self) -> &[SparseVector] {
        &self.records
    }

    /// Probes the data at `threshold`, reusing the knowledge cache.
    ///
    /// Every layer of reuse lives in the cache, not the session: pair
    /// memos deepen across thresholds, and a banded probe's band
    /// buckets are built once per corpus and carried in the cache —
    /// a second identical-shape probe (this session or any sibling on
    /// the same shared cache) builds zero buckets, which the
    /// `bucket_build_records` counter in
    /// [`crate::cache::CacheMemoryStats`] exposes and the watch
    /// differential suite pins.
    pub fn probe(&mut self, threshold: f64) -> ProbeReport {
        let start = Instant::now();
        let mut sketch_secs = 0.0;
        if self.cache.is_none() {
            let (sketches, secs) = build_sketches(&self.records, self.measure, &self.cfg);
            sketch_secs = secs;
            self.sketch_seconds = secs;
            self.cache = Some(Arc::new(SharedKnowledgeCache::with_capacity(
                sketches,
                self.cache_capacity,
            )));
        }
        let cache = self.cache.as_ref().expect("cache initialized above");
        let result = cache.probe(&self.records, self.measure, threshold, &self.cfg);
        fold_probe_report(
            self.measure,
            self.cfg.bayes,
            &self.grid,
            &mut self.curve,
            result,
            start.elapsed().as_secs_f64(),
            sketch_secs,
        )
    }

    /// The current Cumulative APSS Graph, if any probe has run.
    pub fn curve(&self) -> Option<&CumulativeCurve> {
        self.curve.as_ref()
    }

    /// Suggests the next threshold to probe: the knee of the current curve
    /// (§2.2.2's "the user then notices the knee … and investigating it,
    /// selects a new similarity threshold").
    pub fn suggest_next_threshold(&self) -> Option<f64> {
        let curve = self.curve.as_ref()?;
        curve.knee().map(|k| curve.thresholds[k])
    }

    /// Triangle cue for the graph induced by a probe's pairs.
    pub fn triangle_cue(&self, pairs: &[SimilarPair]) -> TriangleCue {
        cues::triangle_cue(&cues::pairs_to_graph(self.records.len(), pairs))
    }

    /// Density plot for the graph induced by a probe's pairs.
    pub fn density_plot(&self, pairs: &[SimilarPair]) -> DensityPlot {
        cues::density_plot(&cues::pairs_to_graph(self.records.len(), pairs))
    }

    /// Seconds spent building sketches (0 until the first probe).
    pub fn sketch_seconds(&self) -> f64 {
        self.sketch_seconds
    }

    /// The knowledge cache, if initialized (by a probe or by
    /// [`with_shared_cache`](Self::with_shared_cache)).
    pub fn cache(&self) -> Option<&SharedKnowledgeCache> {
        self.cache.as_deref()
    }

    /// A shareable handle to this session's knowledge cache, for opening
    /// further sessions over the same corpus
    /// ([`with_shared_cache`](Self::with_shared_cache)). `None` until the
    /// first probe initializes the cache.
    pub fn shared_cache(&self) -> Option<Arc<SharedKnowledgeCache>> {
        self.cache.clone()
    }
}

/// Folds one probe's estimates into a session's cumulative curve and
/// assembles the user-facing [`ProbeReport`] — the shared tail of
/// [`Session::probe`] and the streaming driver's
/// [`crate::streaming::StreamingSession::probe`], so both report the
/// exact same shape from the same probe result.
pub(crate) fn fold_probe_report(
    measure: Similarity,
    bayes: plasma_lsh::BayesParams,
    grid: &[f64],
    curve: &mut Option<CumulativeCurve>,
    result: crate::apss::ApssResult,
    seconds: f64,
    sketch_seconds: f64,
) -> ProbeReport {
    let family = LshFamily::for_measure(measure);
    let ests = result.estimates.iter().map(|(_, _, e)| e);
    let probe_curve = CumulativeCurve::from_estimates(family, bayes, ests, grid);
    let merged = match curve.as_ref() {
        Some(prev) => prev.merge_min_variance(&probe_curve),
        None => probe_curve,
    };
    *curve = Some(merged.clone());
    ProbeReport {
        threshold: result.threshold,
        pairs: result.pairs,
        curve: merged,
        seconds,
        sketch_seconds,
        candidates: result.stats.candidates,
        pruned: result.stats.pruned,
        cache_hits: result.stats.cache_hits,
        hashes_compared: result.stats.hashes_compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_data::datasets::gaussian::GaussianSpec;
    use plasma_data::similarity::pair_counts_at_thresholds;

    fn dataset() -> Dataset {
        GaussianSpec {
            separation: 4.0,
            spread: 0.6,
            ..GaussianSpec::new("session-test", 60, 8, 3)
        }
        .generate(41)
    }

    #[test]
    fn first_probe_pays_sketch_cost_later_probes_do_not() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        let r1 = s.probe(0.9);
        let r2 = s.probe(0.7);
        assert!(r1.sketch_seconds > 0.0);
        assert_eq!(r2.sketch_seconds, 0.0);
        assert!(r2.cache_hits > 0);
    }

    #[test]
    fn curve_estimate_tracks_ground_truth_at_probed_threshold() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        let r = s.probe(0.7);
        // Ground truth at the probed threshold.
        let truth = pair_counts_at_thresholds(&ds.records, ds.measure, &[0.7])[0];
        let idx = r
            .curve
            .thresholds
            .iter()
            .position(|&t| (t - 0.7).abs() < 0.026)
            .expect("grid covers 0.7");
        let est = r.curve.expected[idx];
        let rel = (est - truth as f64).abs() / (truth as f64).max(1.0);
        assert!(rel < 0.35, "estimate {est} vs truth {truth} (rel {rel})");
    }

    #[test]
    fn suggestion_points_at_knee() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        s.probe(0.8);
        let next = s.suggest_next_threshold();
        assert!(next.is_some());
        let t = next.expect("some");
        assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn cues_computed_from_pairs() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        let r = s.probe(0.6);
        let cue = s.triangle_cue(&r.pairs);
        // Well-separated clusters at threshold 0.6 → triangles exist.
        assert!(cue.total_triangles > 0);
        let dp = s.density_plot(&r.pairs);
        assert!(dp.max_clique >= 3);
    }

    #[test]
    fn merged_curve_tightens_with_second_probe() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        let r1 = s.probe(0.9);
        let sum_sd_before: f64 = r1.curve.std_dev.iter().sum();
        let r2 = s.probe(0.5);
        let sum_sd_after: f64 = r2.curve.std_dev.iter().sum();
        assert!(
            sum_sd_after <= sum_sd_before + 1e-9,
            "min-variance merge can only tighten: {sum_sd_before} → {sum_sd_after}"
        );
    }
}
