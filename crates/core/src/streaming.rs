//! The interactive session driver (Fig. 2.1's workflow), over a corpus
//! that may grow while sessions run.
//!
//! A [`StreamingSession`] interleaves [`ingest`](StreamingSession::ingest)
//! (append a batch of records) and [`probe`](StreamingSession::probe)
//! (BayesLSH APSS at a threshold) over one shared corpus. Each probe
//! memoizes everything in the knowledge cache and returns a
//! [`ProbeReport`]: the pairs, the session's merged Cumulative APSS Graph
//! (with error bars), work counters and the epoch it ran at. Probes after
//! the first reuse sketches and pair memos, so they are cheap — the
//! knowledge-caching result of §2.3.3. A corpus that never grows is just
//! a session that never calls `ingest`.
//!
//! # Epoch lineage
//!
//! Each non-empty ingested batch is sketched with
//! [`Sketcher::extend_batch`] — the amortized parallel form of
//! record-at-a-time appends — producing a sketch set that extends the
//! previous one byte for byte at a bumped [`SketchSet::epoch`]. The
//! session's [`SharedKnowledgeCache`] adopts it via
//! [`SharedKnowledgeCache::grow`], and because old sketch bytes are
//! unchanged, **every memo over pairs of old records carries over the
//! epoch bump**: after growth, re-probing a previously probed threshold
//! pays hash comparisons only for pairs touching the new records.
//!
//! Ingest cost is O(batch), not O(corpus): the sketch store is segmented
//! ([`SketchSet`]'s sealed `Arc` segments plus one mutable tail), so the
//! pre-growth snapshot clone copies only the tail and the segment pointer
//! list ([`IngestReport::snapshot_clone_bytes`]), `extend_batch` appends
//! without moving old words, and the banded candidate buckets persist
//! across the bump (only new records get hashed into them at the next
//! probe).
//!
//! # Equivalence guarantee
//!
//! A streamed history `ingest(b₁); probe(t); ingest(b₂); probe(t'); …` is
//! **bit-identical**, probe for probe, to running each probe cold over
//! the corpus as of that epoch — same pairs, same estimates, same
//! decision counters — at every thread count and session count. Carried
//! memos change only the work counters (`hashes_compared` shrinks,
//! `cache_hits` grows), exactly like any warm cache.
//! `crates/core/tests/streaming_differential.rs` pins the guarantee over
//! batch-split × parallelism × session grids.
//!
//! # Multi-session streaming
//!
//! [`StreamingSession::fork`] opens another session over the same
//! corpus: records live behind one `RwLock` shared by all forks, and the
//! knowledge cache is the same `Arc`. Any fork may ingest; every fork's
//! next probe sees the grown corpus and the carried memos. In-flight
//! probes pin a consistent `(records, sketches)` snapshot under the
//! corpus read lock, so ingest (which takes the write lock) simply waits
//! for them rather than tearing them.
//!
//! [`StreamingSession::with_shared_cache`] instead opens a session with
//! its *own* records over an existing cache (typically from a
//! [`crate::cache::CacheRegistry`]): sessions on any number of threads
//! then share one sketch set and one memo pool, each keeping its own
//! curve and threshold grid. Another session's ingest does not grow such
//! a session's records; once the cache grows past them, its probes fail
//! with a re-sync panic rather than answer over records it lacks.

use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use plasma_data::datasets::Dataset;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::family::LshFamily;
use plasma_lsh::sketch::{SketchSet, Sketcher};

use crate::apss::{build_sketches, ApssConfig, SimilarPair};
use crate::cache::{CacheCapacity, SharedKnowledgeCache};
use crate::cues::{self, DensityPlot, TriangleCue};
use crate::cumulative::{CumulativeCurve, TailRows};
use crate::watch::{WatchHandle, WatchRegistry};

/// Lowest threshold of a session's default cumulative-curve grid.
const GRID_LO: f64 = 0.05;

/// The growth state every fork of a streaming session shares: the record
/// store (authoritative, behind one lock) and the knowledge cache whose
/// sketches track it epoch for epoch.
struct StreamingCorpus {
    measure: Similarity,
    /// The sketch/schedule configuration pinned at corpus creation; forks
    /// may override the probe-time parallelism on their own copies, but
    /// `n_hashes`/`seed`/`bayes.batch` are corpus-wide.
    cfg: ApssConfig,
    /// Memory policy for the cache built on first use (ignored once a
    /// cache is attached or built).
    capacity: RwLock<CacheCapacity>,
    /// The records ingested so far. Probes hold the read lock for their
    /// whole evaluation; ingest takes the write lock, so a probe's view
    /// of `(records, cache sketches)` is always one consistent epoch.
    records: RwLock<Vec<SparseVector>>,
    /// Built lazily on the first ingest/probe (or seeded by
    /// [`StreamingSession::with_shared_cache`]), then grown in place.
    cache: OnceLock<Arc<SharedKnowledgeCache>>,
    /// Live threshold watches over this corpus, shared by every fork:
    /// whichever fork's `ingest` adopts a batch notifies all of them.
    watches: WatchRegistry,
}

impl StreamingCorpus {
    /// The cache over the current records, building sketches on first
    /// call; returns the sketch seconds charged (non-zero only when this
    /// call performed the build).
    fn ensure_cache(&self, records: &[SparseVector]) -> (Arc<SharedKnowledgeCache>, f64) {
        let mut sketch_secs = 0.0;
        let cache = self
            .cache
            .get_or_init(|| {
                let (sketches, secs) = build_sketches(records, self.measure, &self.cfg);
                sketch_secs = secs;
                let capacity = *self.capacity.read().expect("capacity lock");
                Arc::new(SharedKnowledgeCache::with_capacity(sketches, capacity))
            })
            .clone();
        (cache, sketch_secs)
    }
}

/// What one [`StreamingSession::ingest`] call did.
#[derive(Debug, Clone, Copy)]
pub struct IngestReport {
    /// Records appended by this call (0 for an empty batch).
    pub records_added: usize,
    /// Corpus size after the ingest.
    pub total_records: usize,
    /// The corpus epoch after the ingest. An empty batch leaves it
    /// unchanged; a non-empty batch is exactly one bump.
    pub epoch: u64,
    /// Seconds spent sketching (the batch, plus the epoch-0 build when
    /// this was the first touch of the corpus).
    pub sketch_seconds: f64,
    /// Pair memos resident in the cache at the moment of the bump — the
    /// knowledge that survived, since growth never evicts a memo.
    pub carried_memos: usize,
    /// Bytes the epoch snapshot clone actually copied: the mutable tail
    /// segment plus one `Arc` pointer per sealed segment of the segmented
    /// sketch store — O(segments), not O(corpus). The sealed sketch words
    /// themselves are shared, never copied (0 for an empty batch).
    pub snapshot_clone_bytes: usize,
}

/// What one probe returns to the user.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The probed threshold.
    pub threshold: f64,
    /// The corpus epoch the probe ran at: the growth epoch of the sketch
    /// snapshot it pinned.
    pub epoch: u64,
    /// Pairs meeting the threshold.
    pub pairs: Vec<SimilarPair>,
    /// Updated Cumulative APSS Graph estimate (merged across this
    /// session's probes at this epoch).
    pub curve: CumulativeCurve,
    /// Tail rows this probe's curve fold computed: the `(m, n)` cells no
    /// earlier probe of this session met on its grid (each one posterior
    /// and one sweep). A repeated probe computes none. Not on the wire.
    pub curve_rows: u64,
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

/// An interactive PLASMA-HD session over a corpus that may grow.
///
/// `ingest` appends a batch of records (amortized parallel sketching, one
/// epoch bump), `probe` runs BayesLSH APSS over everything ingested so
/// far, and the knowledge cache carries every old-pair memo across each
/// epoch. Probe outputs are bit-identical to a cold APSS run over the
/// same corpus; only the work counters show the carried knowledge.
///
/// ```
/// use plasma_core::apss::apss;
/// use plasma_core::{ApssConfig, StreamingSession};
/// use plasma_data::datasets::gaussian::GaussianSpec;
///
/// let ds = GaussianSpec::new("doc", 60, 6, 2).generate(7);
/// let (head, tail) = ds.records.split_at(40);
/// let cfg = ApssConfig::default();
///
/// // The first probe pays for sketching; a re-probe of the same
/// // threshold is answered from the cache without comparing a hash.
/// let mut s = StreamingSession::from_records(head.to_vec(), ds.measure, cfg);
/// let first = s.probe(0.8);
/// assert!(first.sketch_seconds > 0.0);
/// let again = s.probe(0.8);
/// assert_eq!((again.hashes_compared, again.pairs), (0, first.pairs));
///
/// // Records arrive while the session is live: one epoch bump.
/// let grew = s.ingest(tail);
/// assert_eq!((grew.records_added, grew.epoch), (tail.len(), 1));
/// assert!(grew.carried_memos > 0, "old-pair memos survive the bump");
///
/// // The grown probe equals a cold APSS run over the full corpus…
/// let after = s.probe(0.8);
/// assert_eq!(after.epoch, 1);
/// assert_eq!(after.pairs, apss(&ds.records, ds.measure, 0.8, &cfg).pairs);
/// // …and the carried memos answered every old pair without hashing.
/// assert!(after.cache_hits > 0);
/// ```
pub struct StreamingSession {
    corpus: Arc<StreamingCorpus>,
    /// Per-fork probe configuration (parallelism may diverge;
    /// sketch-relevant knobs are shared with the corpus).
    cfg: ApssConfig,
    /// The threshold grid of this session's curve, with the tail row of
    /// every `(m, n)` cell a probe has folded on it. Per session: a fork
    /// starts empty and `with_grid` starts over.
    tail_rows: TailRows,
    /// The curve merged across this session's probes at one epoch, over
    /// the same grid, with that epoch.
    curve: Option<(u64, CumulativeCurve)>,
}

impl StreamingSession {
    /// Opens a session seeded with a dataset's records.
    pub fn new(dataset: &Dataset, cfg: ApssConfig) -> Self {
        Self::from_records(dataset.records.clone(), dataset.measure, cfg)
    }

    /// Opens a session over raw records — pass an empty `Vec`
    /// to start from nothing and build the corpus entirely by ingest.
    /// Sketches are built lazily on the first ingest or probe.
    pub fn from_records(records: Vec<SparseVector>, measure: Similarity, cfg: ApssConfig) -> Self {
        Self {
            corpus: Arc::new(StreamingCorpus {
                measure,
                cfg,
                capacity: RwLock::new(CacheCapacity::unbounded()),
                records: RwLock::new(records),
                cache: OnceLock::new(),
                watches: WatchRegistry::new(),
            }),
            cfg,
            tail_rows: TailRows::new(
                LshFamily::for_measure(measure),
                cfg.bayes,
                crate::cumulative::default_grid(GRID_LO),
            ),
            curve: None,
        }
    }

    /// Overrides the threshold grid for this session's cumulative curve.
    /// The session's curve and tail rows start over on the new grid.
    pub fn with_grid(mut self, grid: Vec<f64>) -> Self {
        self.tail_rows = self.fresh_tail_rows(grid);
        self.curve = None;
        self
    }

    /// An empty tail-row memo over `grid` for this session's family and
    /// BayesLSH parameters.
    fn fresh_tail_rows(&self, grid: Vec<f64>) -> TailRows {
        let family = LshFamily::for_measure(self.corpus.measure);
        TailRows::new(family, self.cfg.bayes, grid)
    }

    /// Pins the worker-thread count for this session's ingests and probes
    /// (`None` = all cores, `Some(1)` = sequential). Sketches, probe
    /// outputs, and carried memos are bit-identical at every setting.
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Bounds the memo pool of the cache this corpus builds on first use.
    /// Carried memos obey the cap like any others: an epoch bump never
    /// evicts by itself, but a tiny cap may evict carried memos at the
    /// next publication — changing work counters, never probe outputs.
    ///
    /// # Panics
    ///
    /// Panics if the corpus cache already exists (set the capacity before
    /// the first ingest/probe, and before attaching a shared cache).
    pub fn with_cache_capacity(self, capacity: CacheCapacity) -> Self {
        assert!(
            self.corpus.cache.get().is_none(),
            "set the cache capacity before the corpus cache is built"
        );
        *self.corpus.capacity.write().expect("capacity lock") = capacity;
        self
    }

    /// Attaches an existing shared cache (typically obtained from a
    /// [`crate::cache::CacheRegistry`]) instead of building a fresh one.
    /// The cache must cover exactly the records ingested so far, with a
    /// hash family, hash count, and **hash seed** matching the session's
    /// measure and config — ingest extends the cache's sketches with this
    /// session's sketcher, and mixing hash universes would silently
    /// poison every cross-batch pair estimate. Subsequent ingests grow
    /// the cache in place, so the registry keeps serving the same
    /// lineage.
    ///
    /// # Panics
    ///
    /// Panics when the cache's sketch count, family, hash count, or seed
    /// disagrees with the session's records and config, or when this
    /// corpus already has a cache.
    pub fn with_shared_cache(self, cache: Arc<SharedKnowledgeCache>) -> Self {
        {
            let records = self.corpus.records.read().expect("corpus lock");
            let sketches = cache.sketches();
            assert!(
                sketches.len() == records.len(),
                "shared cache sketches {} records, session has {}{}",
                sketches.len(),
                records.len(),
                if sketches.epoch() > 0 {
                    " — the cache has grown past this session's corpus \
                     (streamed ingest); open the session over the grown \
                     corpus, or fork the session that ingested"
                } else {
                    ""
                }
            );
            assert_eq!(
                sketches.family(),
                LshFamily::for_measure(self.corpus.measure),
                "shared cache hash family does not serve this session's measure"
            );
            assert_eq!(
                sketches.n_hashes(),
                self.cfg.n_hashes,
                "shared cache sketches {} hashes per record, session config wants {}",
                sketches.n_hashes(),
                self.cfg.n_hashes
            );
            assert_eq!(
                sketches.seed(),
                self.cfg.seed,
                "shared cache was sketched with hash seed {} but this session \
                 would ingest with seed {} — mixing hash universes would \
                 silently corrupt cross-batch estimates",
                sketches.seed(),
                self.cfg.seed
            );
        }
        assert!(
            self.corpus.cache.set(cache).is_ok(),
            "this streaming corpus already has a cache"
        );
        self
    }

    /// Opens another session over the **same** growing corpus and cache —
    /// the multi-user shape. The fork shares records, sketches, and the
    /// memo pool, but keeps its own cumulative curve, threshold grid, and
    /// probe knobs. Ingest through any fork; every fork's next probe sees
    /// the grown corpus.
    pub fn fork(&self) -> StreamingSession {
        StreamingSession {
            corpus: self.corpus.clone(),
            cfg: self.cfg,
            tail_rows: self.fresh_tail_rows(self.tail_rows.thresholds().to_vec()),
            curve: None,
        }
    }

    /// Appends a batch of records to the corpus. The batch is sketched
    /// with [`Sketcher::extend_batch`] (parallel, bit-identical to
    /// one-at-a-time appends), the knowledge cache adopts the grown
    /// sketches ([`SharedKnowledgeCache::grow`]) carrying every old-pair
    /// memo, and the corpus epoch advances by one. An empty batch is a
    /// no-op: no growth, no epoch bump.
    ///
    /// Blocks until in-flight probes (which pin the current epoch under
    /// the corpus read lock) finish.
    pub fn ingest(&mut self, batch: &[SparseVector]) -> IngestReport {
        let corpus = self.corpus.clone();
        let mut records: RwLockWriteGuard<'_, Vec<SparseVector>> =
            corpus.records.write().expect("corpus lock");
        let (cache, build_secs) = corpus.ensure_cache(&records);
        if batch.is_empty() {
            return IngestReport {
                records_added: 0,
                total_records: records.len(),
                epoch: cache.epoch(),
                sketch_seconds: build_secs,
                carried_memos: cache.memory_stats().entries,
                snapshot_clone_bytes: 0,
            };
        }
        let start = Instant::now();
        let snapshot = cache.sketches();
        let snapshot_clone_bytes = snapshot.snapshot_clone_bytes();
        let mut grown = (*snapshot).clone();
        let sketcher = Sketcher::new(snapshot.family(), self.cfg.n_hashes, self.cfg.seed)
            .with_parallelism(self.cfg.parallelism);
        sketcher.extend_batch(batch, &mut grown);
        let epoch = grown.epoch();
        let carried_memos = cache.memory_stats().entries;
        let old_len = records.len();
        cache.grow(grown);
        records.extend_from_slice(batch);
        // Deliver this epoch's delta to every live watch while still
        // holding the corpus write guard: the (records, sketches) pair is
        // one consistent epoch, and no fork can slip a second ingest in
        // between — each watch sees each epoch exactly once.
        corpus
            .watches
            .notify_ingest(&cache, &records, corpus.measure, old_len);
        IngestReport {
            records_added: batch.len(),
            total_records: records.len(),
            epoch,
            sketch_seconds: build_secs + start.elapsed().as_secs_f64(),
            carried_memos,
            snapshot_clone_bytes,
        }
    }

    /// Probes everything ingested so far at `threshold`, reusing carried
    /// memos for every pair of pre-growth records, and folds the probe's
    /// estimates into this session's curve, computing a tail row only for
    /// the `(m, n)` cells the session has not folded before
    /// ([`ProbeReport::curve_rows`]). The pairs, estimates and decision
    /// counters are bit-identical to a fresh session probing the same
    /// corpus cold; carried knowledge shows up only in `cache_hits` and
    /// `hashes_compared`.
    ///
    /// The curve is merged ([`CumulativeCurve::merge_min_variance`]) only
    /// across probes at one epoch. A probe at another epoch starts the
    /// curve over from its own fold, so after an ingest the curve is
    /// bit-identical to a fresh session's first curve on the grown
    /// corpus, and later probes at that epoch merge into it as a fresh
    /// session's would.
    ///
    /// The report's `epoch` is read under the corpus read guard, before
    /// the cache pins its snapshot. A fork's cache grows only under the
    /// write guard, so the label is exact. A session over its own records
    /// ([`with_shared_cache`](Self::with_shared_cache)) never grows them,
    /// so a probe that succeeds pinned a snapshot of exactly that length,
    /// which is the labelled epoch.
    ///
    /// # Panics
    ///
    /// Panics with a re-sync message when the cache has grown past this
    /// session's records.
    pub fn probe(&mut self, threshold: f64) -> ProbeReport {
        let start = Instant::now();
        let corpus = self.corpus.clone();
        let records: RwLockReadGuard<'_, Vec<SparseVector>> =
            corpus.records.read().expect("corpus lock");
        let (cache, sketch_seconds) = corpus.ensure_cache(&records);
        let epoch = cache.epoch();
        let result = cache.probe(&records, corpus.measure, threshold, &self.cfg);
        drop(records);
        let seconds = start.elapsed().as_secs_f64();
        let ests = result.estimates.iter().map(|(_, _, e)| e);
        let (probe_curve, curve_rows) = self.tail_rows.fold(ests);
        let curve = match self.curve.take() {
            Some((at, prev)) if at == epoch => prev.merge_min_variance(&probe_curve),
            _ => probe_curve,
        };
        self.curve = Some((epoch, curve.clone()));
        ProbeReport {
            threshold: result.threshold,
            epoch,
            pairs: result.pairs,
            curve,
            curve_rows,
            seconds,
            sketch_seconds,
            candidates: result.stats.candidates,
            pruned: result.stats.pruned,
            cache_hits: result.stats.cache_hits,
            hashes_compared: result.stats.hashes_compared,
        }
    }

    /// Registers a continuous probe at `threshold`: the returned handle
    /// immediately holds one [`crate::watch::WatchDelta`] with the full
    /// answer at the current epoch (bit-identical to a cold probe), and
    /// every subsequent non-empty `ingest` — through *any* fork — queues
    /// one more delta holding exactly the pairs that epoch added.
    /// Concatenating a watch's deltas reproduces a cold probe of the
    /// full corpus at every epoch, whatever the parallelism, shard
    /// policy, segment geometry, or cache capacity (pinned by
    /// `crates/core/tests/watch_differential.rs`). Dropping the handle
    /// cancels the watch.
    ///
    /// The session's probe configuration is pinned into the watch at
    /// registration; reconfiguring the session afterwards does not
    /// affect it.
    ///
    /// ```
    /// use plasma_core::streaming::StreamingSession;
    /// use plasma_core::ApssConfig;
    /// use plasma_data::datasets::gaussian::GaussianSpec;
    ///
    /// let ds = GaussianSpec::new("doc", 60, 6, 2).generate(7);
    /// let (head, tail) = ds.records.split_at(40);
    /// let mut s = StreamingSession::from_records(head.to_vec(), ds.measure, ApssConfig::default());
    ///
    /// let watch = s.watch(0.8);
    /// let first = watch.poll().expect("registration delivers the full answer");
    /// assert_eq!(first.epoch, 0);
    ///
    /// s.ingest(tail);
    /// let delta = watch.poll().expect("every adopted ingest delivers a delta");
    /// assert_eq!(delta.epoch, 1);
    /// // Old pairs never re-appear: the delta touches only new records.
    /// assert!(delta.new_pairs.iter().all(|p| p.j as usize >= head.len()));
    /// ```
    pub fn watch(&self, threshold: f64) -> WatchHandle {
        let corpus = self.corpus.clone();
        let records: RwLockReadGuard<'_, Vec<SparseVector>> =
            corpus.records.read().expect("corpus lock");
        let (cache, _) = corpus.ensure_cache(&records);
        corpus
            .watches
            .register(&cache, &records, corpus.measure, threshold, &self.cfg)
    }

    /// Live watches registered on this corpus (across all forks).
    pub fn watch_count(&self) -> usize {
        self.corpus.watches.len()
    }

    /// Number of records ingested so far.
    pub fn len(&self) -> usize {
        self.corpus.records.read().expect("corpus lock").len()
    }

    /// True when nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The corpus growth epoch: 0 until the first non-empty ingest after
    /// the cache exists, then one per adopted batch.
    pub fn epoch(&self) -> u64 {
        self.corpus.cache.get().map_or(0, |c| c.epoch())
    }

    /// The similarity measure in use.
    pub fn measure(&self) -> Similarity {
        self.corpus.measure
    }

    /// `(len, epoch)` read under one corpus read guard, so both describe
    /// the same epoch: [`ingest`](Self::ingest) grows records and cache
    /// under the write guard, which two separate reads could straddle.
    pub fn len_and_epoch(&self) -> (usize, u64) {
        let records = self.corpus.records.read().expect("corpus lock");
        (records.len(), self.epoch())
    }

    /// One consistent `(records, sketches, epoch)` view for persistence,
    /// taken under a single corpus read guard. Because
    /// [`ingest`](Self::ingest) holds the *write* guard across its whole
    /// mutation (sketch extension, cache growth, record append), this
    /// view can never observe a half-applied batch — exactly what the
    /// durable snapshot writer needs. `None` until the cache exists (no
    /// ingest or probe has run and no shared cache was attached).
    pub fn persist_view(&self) -> Option<(Vec<SparseVector>, Arc<SketchSet>, u64)> {
        let records = self.corpus.records.read().expect("corpus lock");
        let cache = self.corpus.cache.get()?;
        Some((records.clone(), cache.sketches(), cache.epoch()))
    }

    /// The shared knowledge cache, once built (by the first ingest/probe
    /// or [`with_shared_cache`](Self::with_shared_cache)).
    pub fn shared_cache(&self) -> Option<Arc<SharedKnowledgeCache>> {
        self.corpus.cache.get().cloned()
    }

    /// The session's current Cumulative APSS Graph, if any probe has run.
    pub fn curve(&self) -> Option<&CumulativeCurve> {
        self.curve.as_ref().map(|(_, curve)| curve)
    }

    /// Suggests the next threshold to probe: the knee of the current curve
    /// (§2.2.2's "the user then notices the knee … and investigating it,
    /// selects a new similarity threshold").
    pub fn suggest_next_threshold(&self) -> Option<f64> {
        let curve = self.curve()?;
        curve.knee().map(|k| curve.thresholds[k])
    }

    /// Triangle cue for the graph induced by a probe's pairs.
    pub fn triangle_cue(&self, pairs: &[SimilarPair]) -> TriangleCue {
        cues::triangle_cue(&cues::pairs_to_graph(self.len(), pairs))
    }

    /// Density plot for the graph induced by a probe's pairs.
    pub fn density_plot(&self, pairs: &[SimilarPair]) -> DensityPlot {
        cues::density_plot(&cues::pairs_to_graph(self.len(), pairs))
    }

    /// A snapshot of the corpus sketches at the current epoch, once the
    /// cache exists.
    pub fn sketches(&self) -> Option<Arc<SketchSet>> {
        self.corpus.cache.get().map(|c| c.sketches())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apss::apss;
    use plasma_data::datasets::gaussian::GaussianSpec;
    use plasma_data::similarity::pair_counts_at_thresholds;

    fn dataset(n: usize) -> Vec<SparseVector> {
        GaussianSpec {
            separation: 4.0,
            spread: 0.6,
            ..GaussianSpec::new("stream", n, 8, 3)
        }
        .generate(17)
        .records
    }

    fn session_dataset() -> Dataset {
        GaussianSpec {
            separation: 4.0,
            spread: 0.6,
            ..GaussianSpec::new("session-test", 60, 8, 3)
        }
        .generate(41)
    }

    #[test]
    fn streamed_probe_matches_cold_batch_run_at_every_epoch() {
        let records = dataset(60);
        let cfg = ApssConfig::default();
        let mut streaming =
            StreamingSession::from_records(records[..25].to_vec(), Similarity::Cosine, cfg);
        streaming.ingest(&records[25..45]);
        streaming.ingest(&records[45..]);
        assert_eq!(streaming.epoch(), 2);
        let streamed = streaming.probe(0.7);
        let cold = apss(&records, Similarity::Cosine, 0.7, &cfg);
        assert_eq!(streamed.pairs, cold.pairs);
        assert_eq!(streamed.candidates, cold.stats.candidates);
        assert_eq!(streamed.pruned, cold.stats.pruned);
    }

    #[test]
    fn empty_ingest_is_a_noop() {
        let records = dataset(30);
        let mut s =
            StreamingSession::from_records(records, Similarity::Cosine, ApssConfig::default());
        s.probe(0.8);
        let before = s.epoch();
        let report = s.ingest(&[]);
        assert_eq!(report.records_added, 0);
        assert_eq!(report.epoch, before);
        assert_eq!(s.epoch(), before);
        assert_eq!(s.len(), 30);
    }

    #[test]
    fn fork_sees_growth_and_carried_memos() {
        let records = dataset(50);
        let cfg = ApssConfig::default();
        let mut a = StreamingSession::from_records(records[..30].to_vec(), Similarity::Cosine, cfg);
        a.probe(0.7);
        let mut b = a.fork();
        // Fork B ingests; fork A's next probe sees the grown corpus.
        b.ingest(&records[30..]);
        assert_eq!(a.len(), 50);
        assert_eq!(a.epoch(), 1);
        let grown = a.probe(0.7);
        assert!(grown.cache_hits > 0, "carried memos must produce hits");
        assert_eq!(
            grown.pairs,
            apss(&records, Similarity::Cosine, 0.7, &cfg).pairs
        );
    }

    #[test]
    fn starts_from_an_empty_corpus() {
        let records = dataset(24);
        let cfg = ApssConfig::default();
        let mut s = StreamingSession::from_records(Vec::new(), Similarity::Cosine, cfg);
        assert!(s.is_empty());
        let empty_probe = s.probe(0.8);
        assert_eq!(empty_probe.candidates, 0);
        s.ingest(&records[..10]);
        s.ingest(&records[10..]);
        assert_eq!(s.epoch(), 2);
        let streamed = s.probe(0.8);
        assert_eq!(
            streamed.pairs,
            apss(&records, Similarity::Cosine, 0.8, &cfg).pairs
        );
    }

    #[test]
    fn probe_reports_the_epoch_it_pinned() {
        const HEAD: usize = 16;
        const BATCH: usize = 8;
        const BATCHES: u64 = 6;
        let len_at = |epoch: u64| HEAD + BATCH * epoch as usize;
        let records = dataset(len_at(BATCHES));
        let cfg = ApssConfig::default();
        let cold: Vec<_> = (0..=BATCHES)
            .map(|e| apss(&records[..len_at(e)], Similarity::Cosine, 0.7, &cfg).pairs)
            .collect();

        let mut writer =
            StreamingSession::from_records(records[..HEAD].to_vec(), Similarity::Cosine, cfg);
        writer.probe(0.7);
        // A pinned-style session: its own epoch-0 records over the shared
        // cache, labelled with the epoch its probe pinned.
        let cache = writer.shared_cache().expect("probed");
        let mut pinned =
            StreamingSession::from_records(records[..HEAD].to_vec(), Similarity::Cosine, cfg)
                .with_shared_cache(cache);
        assert_eq!(pinned.probe(0.7).epoch, 0);

        // One fork ingests while another probes in a loop: every report's
        // pairs must be the cold answer at the epoch it is labelled with.
        let mut reader = writer.fork();
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        let reports = std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for b in 0..BATCHES {
                    writer.ingest(&records[len_at(b)..len_at(b + 1)]);
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            let mut reports = Vec::new();
            start.wait();
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                reports.push(reader.probe(0.7));
            }
            reports.push(reader.probe(0.7));
            reports
        });
        assert_eq!(reports.last().expect("probed").epoch, BATCHES);
        for report in &reports {
            assert_eq!(
                report.pairs, cold[report.epoch as usize],
                "epoch {}",
                report.epoch
            );
        }
    }

    #[test]
    fn first_probe_pays_sketch_cost_later_probes_do_not() {
        let ds = session_dataset();
        let mut s = StreamingSession::new(&ds, ApssConfig::default());
        let r1 = s.probe(0.9);
        let r2 = s.probe(0.7);
        assert!(r1.sketch_seconds > 0.0);
        assert_eq!(r2.sketch_seconds, 0.0);
        assert!(r2.cache_hits > 0);
    }

    #[test]
    fn curve_estimate_tracks_ground_truth_at_probed_threshold() {
        let ds = session_dataset();
        let mut s = StreamingSession::new(&ds, ApssConfig::default());
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
        let ds = session_dataset();
        let mut s = StreamingSession::new(&ds, ApssConfig::default());
        s.probe(0.8);
        let next = s.suggest_next_threshold();
        assert!(next.is_some());
        let t = next.expect("some");
        assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn cues_computed_from_pairs() {
        let ds = session_dataset();
        let mut s = StreamingSession::new(&ds, ApssConfig::default());
        let r = s.probe(0.6);
        let cue = s.triangle_cue(&r.pairs);
        // Well-separated clusters at threshold 0.6 → triangles exist.
        assert!(cue.total_triangles > 0);
        let dp = s.density_plot(&r.pairs);
        assert!(dp.max_clique >= 3);
    }

    #[test]
    fn merged_curve_tightens_with_second_probe() {
        let ds = session_dataset();
        let mut s = StreamingSession::new(&ds, ApssConfig::default());
        let r1 = s.probe(0.9);
        let sum_sd_before: f64 = r1.curve.std_dev.iter().sum();
        let r2 = s.probe(0.5);
        let sum_sd_after: f64 = r2.curve.std_dev.iter().sum();
        assert!(
            sum_sd_after <= sum_sd_before + 1e-9,
            "min-variance merge can only tighten: {sum_sd_before} → {sum_sd_after}"
        );
    }

    /// The uncached fold, written out: a cold APSS run at `threshold`
    /// over `records`, its `(m, n)` cells counted in candidate order, each
    /// cell's posterior swept backward over `grid`.
    fn cold_fold(records: &[SparseVector], threshold: f64, grid: &[f64]) -> CumulativeCurve {
        let cfg = ApssConfig::default();
        let cold = apss(records, Similarity::Cosine, threshold, &cfg);
        let engine =
            plasma_lsh::bayes::BayesLsh::new(LshFamily::for_measure(Similarity::Cosine), cfg.bayes);
        let points = engine.grid_points();
        let mut counts: plasma_data::hash::FxHashMap<(u32, u32), u64> = Default::default();
        for (_, _, e) in &cold.estimates {
            *counts.entry((e.matches, e.hashes)).or_insert(0) += 1;
        }
        let mut expected = vec![0.0f64; grid.len()];
        let mut var = vec![0.0f64; grid.len()];
        for ((m, n), count) in counts {
            let post = engine.posterior(m, n);
            let mut acc = 0.0;
            let mut gi = points.len();
            for (ti, &t) in grid.iter().enumerate().rev() {
                while gi > 0 && points[gi - 1] >= t {
                    gi -= 1;
                    acc += post[gi];
                }
                let p = acc.clamp(0.0, 1.0);
                expected[ti] += count as f64 * p;
                var[ti] += count as f64 * p * (1.0 - p);
            }
        }
        CumulativeCurve {
            thresholds: grid.to_vec(),
            expected,
            std_dev: var.into_iter().map(f64::sqrt).collect(),
        }
    }

    #[test]
    fn memoized_curves_equal_the_cold_fold_bit_for_bit() {
        let records = dataset(60);
        let cfg = ApssConfig::default();
        let custom = vec![0.3, 0.45, 0.6, 0.72, 0.8, 0.9, 0.97];
        let head = StreamingSession::from_records(records[..40].to_vec(), Similarity::Cosine, cfg);
        // A probe on the default grid before the switch leaves rows that
        // the new grid must not read.
        let mut regridded = head.fork();
        regridded.probe(0.8);
        let regridded = regridded.with_grid(custom.clone());
        let fork = head.fork();
        let default = crate::cumulative::default_grid(GRID_LO);
        let mut sessions = [
            (head, default.clone()),
            (fork, default),
            (regridded, custom),
        ];
        // Each session's oracle, merged across the probes over one corpus
        // length (one epoch), with that length.
        let mut merged: [Option<(usize, CumulativeCurve)>; 3] = [None, None, None];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Probes every session at `t` over the first `len` records; checks
        // each curve against its session's merged oracle and returns the
        // rows each fold computed.
        let mut probe_all = |sessions: &mut [(StreamingSession, Vec<f64>)], t: f64, len: usize| {
            let mut rows = Vec::new();
            for (k, (session, grid)) in sessions.iter_mut().enumerate() {
                let report = session.probe(t);
                let oracle = cold_fold(&records[..len], t, grid);
                let want = match merged[k].take() {
                    Some((at, prev)) if at == len => prev.merge_min_variance(&oracle),
                    _ => oracle,
                };
                let got = &report.curve;
                let label = format!("session {k} at {t} over {len} records");
                assert_eq!(bits(&got.thresholds), bits(&want.thresholds), "{label}");
                assert_eq!(bits(&got.expected), bits(&want.expected), "{label}");
                assert_eq!(bits(&got.std_dev), bits(&want.std_dev), "{label}");
                merged[k] = Some((len, want));
                rows.push(report.curve_rows);
            }
            rows
        };
        for t in [0.9, 0.7] {
            let rows = probe_all(&mut sessions, t, 40);
            assert!(rows.iter().all(|&r| r > 0), "{t}: {rows:?}");
        }
        assert_eq!(probe_all(&mut sessions, 0.9, 40), [0, 0, 0], "a repeat");
        probe_all(&mut sessions, 0.5, 40);
        sessions[0].0.ingest(&records[40..]);
        probe_all(&mut sessions, 0.7, 60);
        probe_all(&mut sessions, 0.9, 60);
    }

    #[test]
    fn curve_after_an_ingest_equals_a_fresh_sessions_on_the_grown_corpus() {
        let records = dataset(60);
        let cfg = ApssConfig::default();
        let mut grown =
            StreamingSession::from_records(records[..20].to_vec(), Similarity::Cosine, cfg);
        grown.probe(0.8);
        grown.probe(0.5);
        grown.ingest(&records[20..]);
        let mut fresh = StreamingSession::from_records(records.clone(), Similarity::Cosine, cfg);
        let bits = |c: &CumulativeCurve| {
            [&c.thresholds, &c.expected, &c.std_dev]
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        // The first probe after the ingest starts the curve over; the next
        // one at the same epoch merges into it, as a fresh session's does.
        for t in [0.8, 0.6] {
            let after = grown.probe(t);
            let first = fresh.probe(t);
            assert_eq!(after.epoch, 1);
            assert_eq!(bits(&after.curve), bits(&first.curve), "probe at {t}");
            assert_eq!(bits(grown.curve().expect("probed")), bits(&first.curve));
        }
    }
}
