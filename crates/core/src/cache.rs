//! The knowledge cache — one shared, concurrent form.
//!
//! §2.2.1: "The memoization can also be viewed as a knowledge cache,
//! enabling one to speed up subsequent iterations of the algorithm by
//! re-using previously computed and memoized information." Four layers
//! are cached:
//!
//! 1. **Sketches** — built once per dataset; §2.3.3 shows initial sketch
//!    generation dominates perceived latency, so skipping it on re-probes
//!    is the big win.
//! 2. **Pair memos** — the per-pair hash-comparison knowledge. The memo is
//!    a [`MatchProfile`]: the match count at every batch boundary of the
//!    canonical evaluation schedule, up to the deepest step any probe has
//!    compared. A re-probe replays the schedule reading memoized counts
//!    (free) and compares hashes only past the deepest covered step.
//! 3. **Band buckets** — for the banded candidate strategy, the per-band
//!    bucket maps and canonical pair set persist across probes *and*
//!    growth epochs ([`plasma_lsh::candidates::BandBuckets`]): a record's
//!    band keys never change after ingest, so a post-ingest probe hashes
//!    only the new records against the cached buckets instead of
//!    rebuilding `O(corpus × bands)` state. Like every cached layer this
//!    is pure recomputable acceleration — the candidate set it yields is
//!    bit-identical to a cold rebuild, and dropping it (a strategy-shape
//!    change) only costs a cold rebuild.
//! 4. **Decision tables** — the Eq. 2.1/2.2 stopping-rule cells of each
//!    probed threshold ([`DecisionCells`]), at most [`DECISION_TABLES`]
//!    of them, least recently used dropped first. Every probe and watch
//!    evaluation at a threshold decides from the same table, so each
//!    posterior is evaluated once per corpus; a dropped table refills.
//!
//! # Sharing and determinism
//!
//! [`SharedKnowledgeCache`] is the concurrent form: the pair memos are
//! **lock-striped** across [`STRIPES`] reader-writer shards by first
//! record (stripe `i % STRIPES` holds record `i`'s row, its memos sorted
//! by the second record `j`), probes take `&self`, and workers publish
//! memos into their rows as they evaluate — there is no global lock and
//! no single-threaded fold. Candidates come sorted by `(i, j)` and each
//! evaluation worker takes whole rows, so one row's candidates are
//! consecutive slots of one row under a stripe guard that no other worker
//! writes. Many sessions probing the same corpus at different thresholds
//! share one sketch set and one memo pool
//! ([`StreamingSession::with_shared_cache`], [`CacheRegistry`]).
//!
//! A re-probe takes one *shared* stripe guard per row run — all of a
//! row's consecutive candidates — and walks the sorted row with a cursor
//! that tries the next slot before it searches
//! (`SharedKnowledgeCache::replay_run`). It writes nothing shared: a
//! full hit decides from the resident profile in place, with no copy. The
//! walk stops at the first pair that needs work; only a partial hit
//! copies its profile out, and only a walk that learned something takes
//! the exclusive guard to publish it, after its shared guard dropped.
//! Hash comparison never runs under any guard.
//!
//! Sharing does not cost reproducibility, because profile-backed
//! evaluation is *confluent*: a probe's pairs, estimates, and decision
//! counters are bit-identical to the from-scratch sequential path no
//! matter the thread count, the number of concurrent sessions, or how
//! their probes interleave. Cache warmth only changes how much work
//! (`hashes_compared`, `cache_hits`) a probe pays, never what it returns.
//! See `tests/parallel_determinism.rs` for the property pins.
//!
//! # Memory
//!
//! A pair memo is one row slot with no heap block of its own: the
//! profile's counts sit inline under the default schedule, and only a
//! deeper profile spills (see [`MatchProfile`]). Every memo is
//! byte-accounted as its slot plus a spilled profile's heap
//! ([`SharedKnowledgeCache::memory_stats`]). A cache never evicts a memo:
//! a publication only ever deepens a profile, so a corpus's memo bytes
//! only grow. Memory is bounded one level up, where serving traffic
//! lives: a [`CacheRegistry`] with a [`RegistryCapacity`] caps how many
//! dataset caches stay resident and their total bytes (sketches + memos
//! + band buckets), dropping whole least-recently-used caches.
//!
//! # Streamed growth (epoch carry-over)
//!
//! A cache is no longer pinned to one frozen corpus: streaming ingest
//! ([`crate::streaming::StreamingSession`]) grows the sketch set with
//! `Sketcher::extend_batch` and publishes it via
//! [`SharedKnowledgeCache::grow`]. Because a grown set is a byte-for-byte
//! prefix-extension at a bumped [`SketchSet::epoch`], every memo for a
//! pair of *old* records is provably still exact and **survives the
//! bump**; only pairs touching new records are evaluated fresh by later
//! probes. Probes pin an `Arc` sketch snapshot for their whole
//! evaluation, so growth never tears an in-flight probe. The
//! [`CacheRegistry`] treats a grown cache as the same lineage: its entry
//! stays keyed by the epoch-0 fingerprint, so growth never duplicates a
//! registry slot.
//!
//! [`StreamingSession::with_shared_cache`]: crate::streaming::StreamingSession::with_shared_cache
//! [`MatchProfile`]: plasma_lsh::bayes::MatchProfile

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use plasma_data::hash::{FxHashMap, FxHasher};
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::{BayesLsh, DecisionCells, MatchProfile, PairEstimate, ProbeTable};
use plasma_lsh::candidates::BandBuckets;
use plasma_lsh::sketch::SketchSet;

use crate::apss::{build_sketches, evaluate, ApssConfig, ApssResult};

/// Number of lock stripes in a [`SharedKnowledgeCache`]. Stripe
/// `i % STRIPES` holds the memo rows of first record `i`, so a fixed power
/// of two well above typical core counts keeps workers on different rows
/// from sharing a guard. Each stripe is a reader-writer lock aligned to
/// 128 bytes of its own, so readers on two cores never write to a
/// neighbouring stripe's cache line.
pub const STRIPES: usize = 64;

/// Decision tables a [`SharedKnowledgeCache`] keeps, one per probed
/// threshold (and parameter set), least recently used dropped first. At
/// ≈ 28 KB a table, a corpus holds at most ≈ 450 KB of them.
pub const DECISION_TABLES: usize = 16;

/// What identifies one decision table on a corpus: the threshold's bits,
/// the stopping parameters' bits (`ε`, `δ`, `γ`, batch) and the hash
/// count. The family is the corpus's own.
type DecisionKey = (u64, [u64; 4], usize);

/// The memory policy [`durable::recover`](crate::durable::recover)
/// takes, which is always unbounded: a cache never evicts a memo, and a
/// corpus's memory is bounded by the [`CacheRegistry`] dropping whole
/// caches. The type stays only because `benchmark/trace` links it, until
/// the twin replay goes (ROADMAP item 13's third slice).
#[derive(Debug, Clone, Copy)]
pub struct CacheCapacity;

impl CacheCapacity {
    /// The one policy: no cap.
    pub fn unbounded() -> Self {
        Self
    }
}

/// Everything the cache remembers about one pair, in one row slot.
#[derive(Default)]
struct PairMemo {
    /// The confluent match-count memo (may be empty when only an exact
    /// similarity was published, e.g. by a mismatched-batch probe).
    /// Inline under the default schedule, so the slot is the whole memo.
    profile: MatchProfile,
    /// Exact similarity computed for an accepted pair (when a probe ran
    /// with `exact_on_accept`); re-probes reuse it instead of recomputing
    /// dot products. A pure function of the record pair, so publication
    /// is idempotent.
    exact: Option<f64>,
}

/// One slot of a row: the second record `j` of the pair and its memo.
type RowSlot = (u32, PairMemo);

// A pair memo is one row slot: a field added to it fails the build here,
// not a benchmark.
const _: () = assert!(std::mem::size_of::<RowSlot>() <= 48);

impl PairMemo {
    /// Accounted bytes: the row slot (`j`, inline profile, exact
    /// similarity) plus a spilled profile's heap, none under the default
    /// schedule. Row headers and a row's spare capacity are not modelled.
    fn byte_size(&self) -> usize {
        std::mem::size_of::<RowSlot>() + self.profile.byte_size()
    }
}

/// One lock stripe of the shared memo pool: the memo rows of every record
/// `i` with `i % STRIPES` equal to the stripe's index.
#[derive(Default)]
struct Stripe {
    /// `rows[i / STRIPES]` holds record `i`'s memos, one slot per pair
    /// `(i, j)` with `i < j`, sorted by `j`. Candidates come sorted by
    /// `(i, j)`, so a walk over them reads adjacent slots of one row.
    rows: Vec<Vec<RowSlot>>,
}

impl Stripe {
    /// The memo slot of pair `(i, j)`, where `row` is `i / STRIPES`,
    /// inserted empty at its sorted place when missing, and whether it
    /// was inserted. A `j` past the row's end (a row's first
    /// publication, or a pair of a record new since the last probe) is
    /// an append.
    fn slot(&mut self, row: usize, j: u32) -> (&mut PairMemo, bool) {
        if self.rows.len() <= row {
            self.rows.resize_with(row + 1, Vec::new);
        }
        let row = &mut self.rows[row];
        let found = match row.last() {
            Some(&(last, _)) if last >= j => row.binary_search_by_key(&j, |&(k, _)| k),
            _ => Err(row.len()),
        };
        match found {
            Ok(at) => (&mut row[at].1, false),
            Err(at) => {
                row.insert(at, (j, PairMemo::default()));
                (&mut row[at].1, true)
            }
        }
    }

    /// Every resident memo, row by row.
    fn memos(&self) -> impl Iterator<Item = &PairMemo> {
        self.rows.iter().flatten().map(|(_, memo)| memo)
    }
}

/// A stripe's reader-writer lock on 128 bytes of its own: two cores
/// reading neighbouring stripes never share a cache line (nor the
/// adjacent-line prefetch pair).
#[repr(align(128))]
#[derive(Default)]
struct PaddedStripe(RwLock<Stripe>);

impl PaddedStripe {
    fn read(&self) -> RwLockReadGuard<'_, Stripe> {
        self.0.read().expect("stripe lock")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Stripe> {
        self.0.write().expect("stripe lock")
    }
}

/// What a pair's memo tells a walk at a probe's threshold (see
/// [`SharedKnowledgeCache::replay_run`]).
pub(crate) enum MemoRead {
    /// The resident profile decided the walk: a full hit, read in place.
    Decided(PairEstimate),
    /// The walk goes on from this copy of the resident profile — empty
    /// when the pair has none, or when the walk is unprofiled.
    Resume(MatchProfile),
}

/// Point-in-time memory statistics for a
/// [`SharedKnowledgeCache`] (see
/// [`memory_stats`](SharedKnowledgeCache::memory_stats)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheMemoryStats {
    /// Pair memos currently resident.
    pub entries: usize,
    /// Accounted memo bytes currently resident (excludes sketches).
    pub memo_bytes: usize,
    /// Immutable sketch bytes.
    pub sketch_bytes: usize,
    /// Estimated bytes held by the epoch-persistent band-bucket cache
    /// (0 when the strategy is exhaustive). Counted toward
    /// [`total_bytes`].
    ///
    /// [`total_bytes`]: SharedKnowledgeCache::total_bytes
    pub bucket_cache_bytes: usize,
    /// Lifetime records hashed into the band-bucket cache (each record is
    /// bucketed once per cover, so a fully warm probe adds 0 and a
    /// post-ingest probe adds exactly the batch size). The work-counter
    /// proof that candidate generation is O(new × matches), not a
    /// per-probe rebuild.
    pub bucket_build_records: u64,
    /// Lifetime pair evaluations answered entirely from the memo pool
    /// (the sum of every probe's `cache_hits`).
    pub cache_hits: u64,
}

/// Memoized probe state for one dataset, shareable across sessions and
/// threads.
///
/// All methods take `&self`; wrap the cache in an [`Arc`] and hand clones
/// to as many sessions as needed. Probes running concurrently against the
/// same cache return exactly what they would have returned against a
/// private cache — sharing only redistributes the hashing work (the first
/// prober of a pair pays, everyone else hits).
///
/// ```
/// use std::sync::Arc;
/// use plasma_core::apss::{build_sketches, ApssConfig};
/// use plasma_core::cache::SharedKnowledgeCache;
/// use plasma_data::datasets::gaussian::GaussianSpec;
/// use plasma_data::similarity::Similarity;
///
/// let ds = GaussianSpec::new("doc", 40, 6, 2).generate(7);
/// let cfg = ApssConfig::default();
/// let (sketches, _) = build_sketches(&ds.records, Similarity::Cosine, &cfg);
/// let cache = Arc::new(SharedKnowledgeCache::new(sketches));
///
/// // Two "sessions" (here: two handles) probe different thresholds.
/// let a = cache.probe(&ds.records, Similarity::Cosine, 0.9, &cfg);
/// let b = cache.probe(&ds.records, Similarity::Cosine, 0.6, &cfg);
/// assert!(b.stats.cache_hits > 0, "second probe reuses the first's memos");
///
/// // Re-probing an already-probed threshold is answered entirely from
/// // the cache: zero new hash comparisons.
/// let again = cache.probe(&ds.records, Similarity::Cosine, 0.9, &cfg);
/// assert_eq!(again.stats.hashes_compared, 0);
/// assert_eq!(again.pairs, a.pairs);
/// ```
pub struct SharedKnowledgeCache {
    /// The corpus sketches, swappable for streamed growth: probes pin an
    /// `Arc` snapshot for their whole evaluation, and [`grow`](Self::grow)
    /// publishes an epoch-bumped prefix-extension in its place. Old pair
    /// memos survive a swap because the old sketch bytes are unchanged.
    sketches: RwLock<Arc<SketchSet>>,
    stripes: Vec<PaddedStripe>,
    /// Batch size of the evaluation schedule the profiles are indexed by,
    /// pinned by the first probe. Probes whose `BayesParams::batch`
    /// disagrees still return correct (bit-identical-to-fresh) results but
    /// bypass the profile memos; see [`probe`](Self::probe).
    schedule_batch: OnceLock<usize>,
    /// Accounted bytes of every resident memo, kept by each publication,
    /// so `memo_bytes` is O(1) instead of a walk over every row.
    bytes: AtomicUsize,
    /// Lifetime cache hits (summed per-probe `cache_hits`).
    hits: AtomicU64,
    /// Epoch-persistent band buckets for the banded candidate strategy.
    /// The mutex serializes candidate generation across concurrent
    /// probes; a warm probe only clones an `Arc` under it, and the cold
    /// alternative would be every prober rebuilding the same buckets in
    /// parallel anyway.
    band_buckets: Mutex<Option<BandBuckets>>,
    /// Mirror of the bucket cache's estimated bytes, so
    /// [`total_bytes`](Self::total_bytes) stays O(1) and lock-free.
    bucket_bytes: AtomicUsize,
    /// Lifetime records hashed into the band-bucket cache (see
    /// [`CacheMemoryStats::bucket_build_records`]).
    bucket_build_records: AtomicU64,
    /// Lifetime delta-candidate generations (calls that actually built or
    /// fetched a fresh-candidate slice). The work-counter proof that K
    /// watches on one corpus share one slice per epoch instead of
    /// re-deriving it K times.
    delta_builds: AtomicU64,
    /// The corpus's decision tables, most recently used last, at most
    /// [`DECISION_TABLES`]. Every probe and watch evaluation at a
    /// threshold shares its table, so each Eq. 2.1/2.2 cell is computed
    /// once per corpus, not once per worker per probe. Not counted in
    /// [`total_bytes`](Self::total_bytes).
    decision_tables: Mutex<Vec<(DecisionKey, Arc<DecisionCells>)>>,
}

impl SharedKnowledgeCache {
    /// Wraps freshly built sketches with an empty, shareable memo pool.
    pub fn new(sketches: SketchSet) -> Self {
        Self {
            sketches: RwLock::new(Arc::new(sketches)),
            stripes: (0..STRIPES).map(|_| PaddedStripe::default()).collect(),
            schedule_batch: OnceLock::new(),
            bytes: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            band_buckets: Mutex::new(None),
            bucket_bytes: AtomicUsize::new(0),
            bucket_build_records: AtomicU64::new(0),
            delta_builds: AtomicU64::new(0),
            decision_tables: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of the cached sketches. The `Arc` pins one consistent
    /// corpus epoch: a probe holds its snapshot for its whole evaluation,
    /// so a concurrent [`grow`](Self::grow) never changes what an
    /// in-flight probe sees.
    pub fn sketches(&self) -> Arc<SketchSet> {
        self.sketches.read().expect("sketch lock").clone()
    }

    /// The corpus growth epoch of the current sketch snapshot: 0 until
    /// the first [`grow`](Self::grow), advanced by one per adopted batch.
    pub fn epoch(&self) -> u64 {
        self.sketches().epoch()
    }

    /// Adopts a grown sketch set — the knowledge-cache half of streaming
    /// ingest. `grown` must be a byte-for-byte prefix-extension of the
    /// current sketches (same family and hash count, old sketch words
    /// unchanged — [`SketchSet::is_prefix_of`]) at a strictly later
    /// epoch, i.e. the product of [`plasma_lsh::Sketcher::extend_batch`]
    /// on (a clone of) the current snapshot.
    ///
    /// **Memo carry-over:** every resident pair memo survives the swap.
    /// A memo for pair `(i, j)` only ever reads sketch positions of
    /// records `i` and `j`, and both predate the growth, so replaying the
    /// canonical schedule against the grown set reads exactly the bytes
    /// it was built from — the memo is provably still exact. Only pairs
    /// touching new records are evaluated fresh by later probes. Byte
    /// accounting and the pinned batch schedule carry through untouched;
    /// sketch bytes reported by [`total_bytes`](Self::total_bytes) grow.
    ///
    /// After growing, every prober must supply the grown corpus —
    /// [`probe`](Self::probe) asserts its `records` slice matches the
    /// sketch count, so a session holding a pre-growth record list fails
    /// loudly rather than receiving pairs that index records it never
    /// saw. [`crate::streaming::StreamingSession`] forks stay in sync by
    /// construction. Note that a [`CacheRegistry`] holding this cache
    /// accounts the added bytes at its next lookup ([`RegistryCapacity`]
    /// enforcement runs in `get_or_build`, for streamed sketch growth
    /// exactly as for memo growth during probes).
    ///
    /// # Panics
    ///
    /// Panics when `grown` is not a strict prefix-extension at a later
    /// epoch — adopting a *different* corpus would silently poison every
    /// memo, so lineage violations fail loudly.
    pub fn grow(&self, grown: SketchSet) {
        let mut g = self.sketches.write().expect("sketch lock");
        let old = &**g;
        assert!(
            grown.epoch() > old.epoch(),
            "grow needs an epoch-bumped set (old epoch {}, grown {}); \
             build it with Sketcher::extend_batch",
            old.epoch(),
            grown.epoch()
        );
        assert!(
            old.is_prefix_of(&grown),
            "grown sketches must extend the current corpus byte for byte \
             ({} records at epoch {} → {} records at epoch {})",
            old.len(),
            old.epoch(),
            grown.len(),
            grown.epoch()
        );
        *g = Arc::new(grown);
    }

    /// Accounted memo-pool bytes currently resident (excludes sketches).
    /// O(1): reads the atomic tally.
    pub fn memo_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Estimated bytes held by the epoch-persistent band-bucket cache
    /// (0 when absent). O(1): reads the atomic mirror.
    pub fn bucket_cache_bytes(&self) -> usize {
        self.bucket_bytes.load(Ordering::Relaxed)
    }

    /// Lifetime records hashed into the band-bucket cache. A second probe
    /// of an identical `(bands, width)` shape — from this or any other
    /// session sharing the cache — adds 0; a post-ingest probe adds
    /// exactly the batch size. Exhaustive probes never touch it.
    pub fn bucket_build_records(&self) -> u64 {
        self.bucket_build_records.load(Ordering::Relaxed)
    }

    /// Lifetime delta-candidate generations — one per `probe_delta`
    /// (the crate-private one-shot path) plus one per epoch×shape in the
    /// registry's single-pass multi-watch notification, however many
    /// watches share the slice.
    pub fn delta_builds(&self) -> u64 {
        self.delta_builds.load(Ordering::Relaxed)
    }

    /// Total accounted footprint: sketch bytes (of the current epoch's
    /// snapshot) plus resident memo bytes plus the band-bucket cache.
    /// This is what [`CacheRegistry`] sums when enforcing a process-wide
    /// byte cap.
    pub fn total_bytes(&self) -> usize {
        self.sketches().byte_size() + self.memo_bytes() + self.bucket_cache_bytes()
    }

    /// Snapshot of the cache's memory statistics. Counters
    /// are read individually (not under one lock), so concurrent probes
    /// can skew fields against each other slightly; each field is exact
    /// for any serialized probe history.
    pub fn memory_stats(&self) -> CacheMemoryStats {
        CacheMemoryStats {
            entries: self
                .stripes
                .iter()
                .map(|s| s.read().rows.iter().map(Vec::len).sum::<usize>())
                .sum(),
            memo_bytes: self.memo_bytes(),
            sketch_bytes: self.sketches().byte_size(),
            bucket_cache_bytes: self.bucket_cache_bytes(),
            bucket_build_records: self.bucket_build_records(),
            cache_hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Number of pairs with a memoized profile, summed across all lock
    /// stripes. Walks every resident memo, one stripe guard at a time; the
    /// count is a snapshot and may be stale by the time it returns if
    /// other sessions are probing concurrently.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().memos().filter(|m| !m.profile.is_empty()).count())
            .sum()
    }

    /// True when [`len`](Self::len) is 0: no pair carries a memoized
    /// profile in any stripe (same snapshot caveat as `len`; exact-only
    /// memos published by mismatched-batch probes don't count, exactly as
    /// they don't count toward `len`).
    pub fn is_empty(&self) -> bool {
        self.stripes
            .iter()
            .all(|s| s.read().memos().all(|m| m.profile.is_empty()))
    }

    /// The stripe holding record `i`'s memo row, and the row's index in
    /// it. Every pair `(i, j)` of one `i` lives under one lock, so one
    /// guard covers a whole row run ([`replay_run`](Self::replay_run)).
    fn row_of(&self, i: u32) -> (&PaddedStripe, usize) {
        let i = i as usize;
        (&self.stripes[i % STRIPES], i / STRIPES)
    }

    /// Pins the evaluation schedule on first use; returns whether profile
    /// memos apply to a caller evaluating with `batch`.
    pub(crate) fn schedule_accepts(&self, batch: usize) -> bool {
        *self.schedule_batch.get_or_init(|| batch) == batch
    }

    /// The decision table `engine` probes this corpus with at
    /// `threshold` over `n_hashes` hashes, shared with every other probe
    /// at that threshold: found and refreshed, or created in place of the
    /// least recently used one when [`DECISION_TABLES`] are resident.
    pub(crate) fn decision_table(
        &self,
        engine: &BayesLsh,
        threshold: f64,
        n_hashes: usize,
    ) -> Arc<DecisionCells> {
        let p = engine.params();
        let key = (
            threshold.to_bits(),
            [
                p.epsilon.to_bits(),
                p.delta.to_bits(),
                p.gamma.to_bits(),
                p.batch as u64,
            ],
            n_hashes,
        );
        let mut tables = self.decision_tables.lock().expect("decision table lock");
        let entry = match tables.iter().position(|(k, _)| *k == key) {
            Some(at) => tables.remove(at),
            None => {
                if tables.len() == DECISION_TABLES {
                    tables.remove(0);
                }
                (key, Arc::new(engine.decision_cells(threshold, n_hashes)))
            }
        };
        let cells = entry.1.clone();
        tables.push(entry);
        cells
    }

    /// Walks one row run — candidates `(i, j)` of a single `i`, sorted by
    /// `j` — under one *shared* stripe guard, deciding every full hit in
    /// place.
    ///
    /// A cursor moves forward through the sorted row: each pair tries the
    /// slot after the last one read and searches the rest of the row only
    /// when that slot holds another `j`. With a `table`, each resident
    /// profile is replayed in place ([`ProbeTable::replay`], no sketch
    /// read, nothing copied); a decided pair goes to `hit(j, estimate,
    /// exact)` with its exact similarity when one is known, and `hit`
    /// returns `false` to refuse it (an accepted pair needing an exact
    /// similarity nobody published). The walk stops at the first pair
    /// that needs work outside the guard — a miss, a partial hit (its
    /// profile copied to resume), a refused hit, or any memo of an
    /// unprofiled walk (`None`) — and returns its offset in `run`, its
    /// read and its exact similarity; `None` when every pair was a full
    /// hit. The caller evaluates and publishes that pair with no guard
    /// held, then walks the rest of the run. The walk writes nothing
    /// shared.
    #[inline]
    pub(crate) fn replay_run(
        &self,
        run: &[(u32, u32)],
        mut table: Option<&mut ProbeTable<'_>>,
        max_n: usize,
        mut hit: impl FnMut(u32, PairEstimate, Option<f64>) -> bool,
    ) -> Option<(usize, MemoRead, Option<f64>)> {
        let (stripe, r) = self.row_of(run.first()?.0);
        let g = stripe.read();
        let row = g.rows.get(r).map_or(&[][..], Vec::as_slice);
        let mut at = 0;
        for (offset, &(_, j)) in run.iter().enumerate() {
            if row.get(at).is_none_or(|&(k, _)| k != j) {
                at += row[at..].partition_point(|&(k, _)| k < j);
            }
            let Some((_, memo)) = row.get(at).filter(|&&(k, _)| k == j) else {
                return Some((offset, MemoRead::Resume(MatchProfile::new()), None));
            };
            at += 1;
            let read = match table.as_deref_mut() {
                Some(table) => match table.replay(&memo.profile, max_n) {
                    Some(estimate) if hit(j, estimate, memo.exact) => continue,
                    Some(estimate) => MemoRead::Decided(estimate),
                    None => MemoRead::Resume(memo.profile.clone()),
                },
                None => MemoRead::Resume(MatchProfile::new()),
            };
            return Some((offset, read, memo.exact));
        }
        None
    }

    /// Publishes what one evaluation learned into the pair's row under a
    /// single lock acquisition and a single row search: an extended
    /// profile (order-free deepest-wins merge) and/or a freshly computed
    /// exact similarity. No-op (lock-free) when there is nothing to
    /// publish. A publication never shrinks a memo — the deeper profile
    /// wins and a spill only grows — so the byte tally only rises.
    #[inline]
    pub(crate) fn publish(
        &self,
        key: (u32, u32),
        profile: Option<MatchProfile>,
        exact: Option<f64>,
    ) {
        if profile.is_none() && exact.is_none() {
            return;
        }
        let (stripe, row) = self.row_of(key.0);
        let mut g = stripe.write();
        let (entry, fresh) = g.slot(row, key.1);
        // A fresh entry contributes its whole footprint; an update only
        // its growth.
        let old_bytes = if fresh { 0 } else { entry.byte_size() };
        if let Some(profile) = profile {
            entry.profile.adopt_deeper(profile);
        }
        if let Some(s) = exact {
            entry.exact = Some(s);
        }
        let new_bytes = entry.byte_size();
        debug_assert!(new_bytes >= old_bytes, "a publication shrank a memo");
        self.bytes
            .fetch_add(new_bytes - old_bytes, Ordering::Relaxed);
    }

    /// Generates this probe's candidate set, serving the banded strategy
    /// from the epoch-persistent bucket cache when possible.
    ///
    /// The cached path is bit-identical to a cold
    /// [`crate::apss::generate_candidates`] run (see [`BandBuckets`]);
    /// only the work differs — a warm epoch is an `Arc` clone, a
    /// post-ingest epoch hashes only the new records. The cache rebuilds
    /// from scratch when the probe's `(bands, width)` shape differs from
    /// the cached one, and is bypassed when the caller pinned a sketch
    /// snapshot *older* than the cache covers (possible under a
    /// concurrent [`grow`](Self::grow)).
    fn generate_candidates_cached(
        &self,
        sketches: &SketchSet,
        cfg: &ApssConfig,
    ) -> Arc<Vec<(u32, u32)>> {
        if let crate::apss::CandidateStrategy::Banded { bands, width } = cfg.candidates {
            let mut guard = self.band_buckets.lock().expect("bucket cache lock");
            let cache = guard.get_or_insert_with(|| BandBuckets::new(bands, width));
            if !cache.matches_shape(bands, width) {
                *cache = BandBuckets::new(bands, width);
            }
            if cache.covered() <= sketches.len() {
                return self.extend_buckets(cache, sketches);
            }
            // This prober's snapshot predates the cache's watermark; the
            // cache cannot "un-cover" records, so serve the probe cold
            // and leave the cache for up-to-date probers.
        }
        Arc::new(crate::apss::generate_candidates(sketches, cfg))
    }

    /// Extends the bucket cache over `sketches`, counting into
    /// `bucket_build_records` only the records it actually hashed and
    /// refreshing the `bucket_bytes` mirror.
    fn extend_buckets(
        &self,
        cache: &mut BandBuckets,
        sketches: &SketchSet,
    ) -> Arc<Vec<(u32, u32)>> {
        let before = cache.covered();
        let pairs = cache.extend_and_generate(sketches);
        self.bucket_build_records
            .fetch_add((cache.covered() - before) as u64, Ordering::Relaxed);
        self.bucket_bytes
            .store(cache.byte_size(), Ordering::Relaxed);
        pairs
    }

    /// Generates the *delta* candidate set of a corpus growth: every pair
    /// `(i, j)` (canonical `i < j`, sorted unique) that touches a record
    /// in `[from, sketches.len())` — which, because a pair touches the new
    /// range exactly when its larger member does, is precisely the set of
    /// candidates the full probe gains over a probe of the `[0, from)`
    /// prefix. This is the candidate half of a watch evaluation
    /// (`crate::watch`).
    ///
    /// Exhaustive strategy: enumerated directly in lexicographic order.
    /// Banded strategy: served from the epoch-persistent [`BandBuckets`]
    /// when its watermark lines up — either this call extends the cache
    /// `from → n` (the common watch path, `O(new × bands)` keys, same
    /// byte accounting as
    /// [`generate_candidates_cached`](Self::generate_candidates_cached)),
    /// or a prior call this epoch already did and recorded the same
    /// range. Any other state (a cache of another band shape, or none
    /// built yet) falls back to the cold
    /// [`plasma_lsh::candidates::banded_join`] from `from`, which never
    /// touches the shared cache — so the delta is bit-identical either
    /// way.
    pub(crate) fn generate_delta_candidates(
        &self,
        sketches: &SketchSet,
        cfg: &ApssConfig,
        from: usize,
    ) -> Arc<Vec<(u32, u32)>> {
        self.delta_builds.fetch_add(1, Ordering::Relaxed);
        let n = sketches.len();
        match cfg.candidates {
            crate::apss::CandidateStrategy::Exhaustive => {
                let mut out = Vec::new();
                for i in 0..n {
                    for j in (i + 1).max(from)..n {
                        out.push((i as u32, j as u32));
                    }
                }
                Arc::new(out)
            }
            crate::apss::CandidateStrategy::Banded { bands, width } => {
                if from >= n || bands == 0 {
                    // No growth (or a degenerate join shape) has no delta;
                    // `extend_and_generate` would not record a range for
                    // it either.
                    return Arc::new(Vec::new());
                }
                let mut guard = self.band_buckets.lock().expect("bucket cache lock");
                if let Some(cache) = guard.as_mut() {
                    if cache.matches_shape(bands, width) {
                        if cache.covered() == from {
                            self.extend_buckets(cache, sketches);
                            return cache
                                .delta_covering(from, n)
                                .expect("extension covered exactly [from, n)");
                        }
                        if cache.covered() == n {
                            if let Some(delta) = cache.delta_covering(from, n) {
                                // Another watch (or probe) already paid for
                                // this epoch's extension; its recorded
                                // fresh slice is exactly our delta.
                                return delta;
                            }
                        }
                    }
                }
                drop(guard);
                Arc::new(plasma_lsh::candidates::banded_join(
                    sketches, bands, width, from,
                ))
            }
        }
    }

    /// Runs a cached probe: candidates whose profile already covers every
    /// batch step the decision walk visits skip hash comparison entirely
    /// (`cache_hits`); partially covered pairs resume from their deepest
    /// memoized step; unknown pairs are evaluated fresh. Workers publish
    /// extended profiles (and freshly computed exact similarities) into
    /// their memo rows as they go.
    ///
    /// **Determinism:** the returned pairs, estimates, and decision
    /// counters (`candidates`/`pruned`/`accepted`/`exhausted`) are bit
    /// identical to [`crate::apss::apss_with_sketches`] over the same
    /// sketches at every `parallelism` setting, whatever this cache has
    /// memoized, and whatever other sessions do concurrently. The work
    /// counters (`hashes_compared`, `cache_hits`) depend on cache warmth:
    /// they are deterministic for any serialized probe order and may
    /// redistribute between racing probes that evaluate the same pair
    /// simultaneously (both pay; the published memo is identical either
    /// way).
    ///
    /// Profiles are indexed by the batch schedule pinned at the first
    /// probe; a probe whose [`plasma_lsh::BayesParams::batch`] differs
    /// bypasses profile memos (still reusing sketches and exact
    /// similarities) rather than corrupting them. Keep `batch` consistent
    /// across sessions sharing a cache — [`CacheRegistry`] fingerprints it
    /// for exactly this reason.
    pub fn probe(
        &self,
        records: &[SparseVector],
        measure: Similarity,
        threshold: f64,
        cfg: &ApssConfig,
    ) -> ApssResult {
        let start = Instant::now();
        let sketches = self.pin_snapshot(records);
        let cands = self.generate_candidates_cached(&sketches, cfg);
        self.evaluate_pinned(records, measure, threshold, cfg, &sketches, &cands, start)
    }

    /// Test reference for the watch path: evaluates only the candidates a
    /// corpus growth added — every pair touching a record in `[from, len)`
    /// — as a one-shot pin + generate + evaluate. Production watches share
    /// one generated slice per epoch×shape and call
    /// [`evaluate_pinned`](Self::evaluate_pinned) on it directly.
    #[cfg(test)]
    pub(crate) fn probe_delta(
        &self,
        records: &[SparseVector],
        measure: Similarity,
        threshold: f64,
        cfg: &ApssConfig,
        from: usize,
    ) -> ApssResult {
        let start = Instant::now();
        let sketches = self.pin_snapshot(records);
        let cands = self.generate_delta_candidates(&sketches, cfg, from);
        self.evaluate_pinned(records, measure, threshold, cfg, &sketches, &cands, start)
    }

    /// Pins one corpus epoch for a whole evaluation: a concurrent `grow`
    /// swaps the shared snapshot but cannot change what this evaluation
    /// reads.
    ///
    /// Candidates come from the sketch snapshot, so a caller holding a
    /// pre-growth record slice would receive pairs indexing records it
    /// never supplied (or crash under `exact_on_accept`). Fail loudly
    /// instead: a grown cache must be probed with the grown corpus
    /// (drive growth through `crate::streaming::StreamingSession`,
    /// whose forks stay in sync by construction).
    pub(crate) fn pin_snapshot(&self, records: &[SparseVector]) -> Arc<SketchSet> {
        let sketches = self.sketches();
        assert_eq!(
            records.len(),
            sketches.len(),
            "probe supplied {} records but the cache sketches {} (epoch {}); \
             re-sync the corpus before probing a grown cache",
            records.len(),
            sketches.len(),
            sketches.epoch()
        );
        sketches
    }

    /// Runs the shared evaluation loop ([`crate::apss::evaluate`]) over an
    /// explicit candidate list against a pinned snapshot, with this cache
    /// as the memo source, and books the timing and lifetime hits. Pair
    /// evaluation is pair-local (sketch prefixes never change, and the
    /// walk reads nothing but the two sketches and its own memo), so
    /// evaluating a growth's delta slice is bit-identical to that slice of
    /// a full probe — `concat(deltas) == cold probe` is pinned by
    /// `crates/core/tests/watch_differential.rs`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate_pinned(
        &self,
        records: &[SparseVector],
        measure: Similarity,
        threshold: f64,
        cfg: &ApssConfig,
        sketches: &SketchSet,
        cands: &[(u32, u32)],
        start: Instant,
    ) -> ApssResult {
        assert_eq!(
            records.len(),
            sketches.len(),
            "evaluation supplied {} records but the pinned snapshot sketches {}",
            records.len(),
            sketches.len()
        );
        let mut result = evaluate(
            records,
            measure,
            sketches,
            threshold,
            cfg,
            cands,
            Some(self),
        );
        result.stats.process_seconds = start.elapsed().as_secs_f64();
        self.hits
            .fetch_add(result.stats.cache_hits, Ordering::Relaxed);
        result
    }
}

/// Capacity limits for a [`CacheRegistry`]: how many dataset caches a
/// serving process keeps resident, and how many total bytes (each cache's
/// [`SharedKnowledgeCache::total_bytes`], summed) they may hold.
///
/// Limits are enforced at lookup boundaries: every `get_or_build`
/// re-checks them after refreshing recency. Footprint added *between*
/// lookups — memo publication during probes, or streamed sketch growth
/// via [`SharedKnowledgeCache::grow`] — is accounted at the next lookup,
/// not instantaneously.
///
/// When a limit is exceeded after a lookup, the registry drops whole
/// caches least-recently-*looked-up* first. The cache returned by the
/// triggering lookup is never its own victim, so a single dataset larger
/// than `max_total_bytes` still serves (the cap then bounds everything
/// *else*). Dropping a cache from the registry does not free memory still
/// referenced by live sessions' `Arc`s; it stops the registry keeping it
/// alive and lets the next lookup rebuild.
///
/// ```
/// use plasma_core::cache::RegistryCapacity;
///
/// let cap = RegistryCapacity::unbounded()
///     .with_max_caches(8)
///     .with_max_total_bytes(512 << 20); // 512 MiB across all datasets
/// assert_eq!(cap.max_caches(), Some(8));
/// assert_eq!(cap.max_total_bytes(), Some(512 << 20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryCapacity {
    max_caches: Option<usize>,
    max_total_bytes: Option<usize>,
}

impl RegistryCapacity {
    /// No limits (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Caps the number of resident dataset caches.
    pub fn with_max_caches(mut self, max: usize) -> Self {
        self.max_caches = Some(max);
        self
    }

    /// Caps total resident bytes (sketches, memos and band buckets) across
    /// all dataset caches.
    pub fn with_max_total_bytes(mut self, max: usize) -> Self {
        self.max_total_bytes = Some(max);
        self
    }

    /// The cache-count cap, `None` when uncapped.
    pub fn max_caches(&self) -> Option<usize> {
        self.max_caches
    }

    /// The total-byte cap, `None` when uncapped.
    pub fn max_total_bytes(&self) -> Option<usize> {
        self.max_total_bytes
    }
}

/// One registered dataset cache: its build latch plus the recency stamp
/// registry-level eviction orders by.
struct RegistryEntry {
    /// The sketch build runs under this `OnceLock`, so first-comers for
    /// the *same* dataset serialize while other datasets' lookups never
    /// block.
    latch: Arc<OnceLock<Arc<SharedKnowledgeCache>>>,
    /// Stamp of the last `get_or_build` that touched this entry.
    last_used: u64,
}

/// State behind the registry mutex.
#[derive(Default)]
struct RegistryInner {
    caches: FxHashMap<u128, RegistryEntry>,
    /// Monotonic lookup clock feeding [`RegistryEntry::last_used`].
    clock: u64,
}

/// Registry of shared knowledge caches keyed by dataset fingerprint — the
/// serving-traffic entry point: every session over the same corpus and
/// sketch configuration gets the same [`SharedKnowledgeCache`], so sketch
/// building happens once and pair memos accumulate across all users.
///
/// A registry can bound its footprint with a [`RegistryCapacity`]: a cap
/// on resident caches and on their total bytes, enforced by dropping
/// whole least-recently-used caches. This is the one memory bound — a
/// cache never evicts a memo. It defaults to unbounded.
///
/// ```
/// use plasma_core::apss::ApssConfig;
/// use plasma_core::cache::CacheRegistry;
/// use plasma_data::datasets::gaussian::GaussianSpec;
/// use plasma_data::similarity::Similarity;
///
/// let ds = GaussianSpec::new("doc", 40, 6, 2).generate(7);
/// let cfg = ApssConfig::default();
/// let registry = CacheRegistry::new();
/// let a = registry.get_or_build(&ds.records, Similarity::Cosine, &cfg);
/// let b = registry.get_or_build(&ds.records, Similarity::Cosine, &cfg);
/// // Same corpus + config → the very same cache.
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(registry.len(), 1);
/// ```
///
/// Bounding a long-lived server:
///
/// ```
/// use plasma_core::apss::ApssConfig;
/// use plasma_core::cache::{CacheRegistry, RegistryCapacity};
/// use plasma_data::datasets::gaussian::GaussianSpec;
/// use plasma_data::similarity::Similarity;
///
/// let registry = CacheRegistry::with_capacity(RegistryCapacity::unbounded().with_max_caches(1));
/// let cfg = ApssConfig::default();
/// let first = GaussianSpec::new("a", 30, 6, 2).generate(1);
/// let second = GaussianSpec::new("b", 30, 6, 2).generate(2);
/// let a = registry.get_or_build(&first.records, Similarity::Cosine, &cfg);
/// // A second dataset evicts the first: max_caches is 1.
/// registry.get_or_build(&second.records, Similarity::Cosine, &cfg);
/// assert_eq!(registry.len(), 1);
/// assert_eq!(registry.evicted_caches(), 1);
/// // `a` keeps working — eviction only drops the registry's reference.
/// assert!(!a.sketches().is_empty());
/// ```
#[derive(Default)]
pub struct CacheRegistry {
    inner: Mutex<RegistryInner>,
    capacity: RegistryCapacity,
    /// Lifetime count of caches evicted to enforce [`capacity`](Self::capacity).
    evicted: AtomicU64,
}

impl CacheRegistry {
    /// An empty, unbounded registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry with process-wide limits.
    pub fn with_capacity(capacity: RegistryCapacity) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// The process-wide limits in force.
    pub fn capacity(&self) -> RegistryCapacity {
        self.capacity
    }

    /// Total resident bytes across all registered caches (each one's
    /// [`SharedKnowledgeCache::total_bytes`]), skipping entries whose first build is
    /// still in flight. A snapshot — concurrent probes keep publishing
    /// while it sums.
    pub fn total_bytes(&self) -> usize {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .caches
            .values()
            .filter_map(|e| e.latch.get())
            .map(|c| c.total_bytes())
            .sum()
    }

    /// Lifetime count of caches evicted by capacity enforcement (manual
    /// [`evict`](Self::evict)/[`clear`](Self::clear) calls not included).
    pub fn evicted_caches(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Fingerprint of `(records, measure, sketch/schedule config)`. Two
    /// workloads are meant to share a cache exactly when their
    /// fingerprints agree: same record contents, same measure, same
    /// `n_hashes`, same hash seed, and the same evaluation batch (profiles
    /// are indexed by the batch schedule). For a streamed corpus the
    /// registry key is the **epoch-0 fingerprint** — the corpus the cache
    /// was built over; growth ([`SharedKnowledgeCache::grow`]) mutates
    /// the registered cache in place rather than minting a new entry.
    /// Note the converse: looking up the *grown* corpus by value hashes
    /// to a different fingerprint and builds an independent cold cache —
    /// reach a grown lineage through the `Arc` its streaming sessions
    /// hold (or the epoch-0 lookup), not by re-fingerprinting the grown
    /// records. The BayesLSH accuracy knobs
    /// (ε/δ/γ) are *not* fingerprinted — profiles memoize raw match
    /// counts, which are valid under any stopping parameters.
    ///
    /// The fingerprint is 128 bits from two domain-separated passes of the
    /// workspace's Fx hasher. Fx is not collision-resistant against
    /// adversarial inputs; a registry fronting untrusted uploads should
    /// key on an external identity (dataset id / content digest) instead.
    /// [`get_or_build`](Self::get_or_build) additionally cross-checks the
    /// record count of whatever the lookup returns.
    pub fn fingerprint(records: &[SparseVector], measure: Similarity, cfg: &ApssConfig) -> u128 {
        use std::hash::Hasher;
        let pass = |domain: u64| {
            let mut h = FxHasher::default();
            h.write_u64(domain);
            h.write_u64(match measure {
                Similarity::Jaccard => 0x4a43,
                Similarity::Cosine => 0x434f,
            });
            h.write_usize(cfg.n_hashes);
            h.write_u64(cfg.seed);
            h.write_usize(cfg.bayes.batch);
            h.write_usize(records.len());
            for r in records {
                h.write_usize(r.nnz());
                for &d in r.dims() {
                    h.write_u32(d);
                }
                for &w in r.weights() {
                    h.write_u64(w.to_bits());
                }
            }
            h.finish()
        };
        ((pass(0x505A_u64) as u128) << 64) | pass(0xA0A5_u64) as u128
    }

    /// The cache for this workload, building sketches (and registering the
    /// new cache) on first sight of the fingerprint. Concurrent
    /// first-comers for the same dataset serialize on that dataset's
    /// build latch instead of duplicating the sketch work; callers for
    /// other datasets are never blocked by an in-flight build.
    ///
    /// Every lookup refreshes the dataset's registry recency, then
    /// enforces the [`RegistryCapacity`] limits: while the cache count or
    /// byte total is over its cap, the least-recently-looked-up *other*
    /// cache is dropped from the registry.
    pub fn get_or_build(
        &self,
        records: &[SparseVector],
        measure: Similarity,
        cfg: &ApssConfig,
    ) -> Arc<SharedKnowledgeCache> {
        let fp = Self::fingerprint(records, measure, cfg);
        let latch = {
            let mut inner = self.inner.lock().expect("registry lock");
            inner.clock += 1;
            let stamp = inner.clock;
            let entry = inner.caches.entry(fp).or_insert_with(|| RegistryEntry {
                latch: Arc::default(),
                last_used: stamp,
            });
            entry.last_used = stamp;
            entry.latch.clone()
        };
        let cache = latch
            .get_or_init(|| {
                let (sketches, _) = build_sketches(records, measure, cfg);
                Arc::new(SharedKnowledgeCache::new(sketches))
            })
            .clone();
        // Cheap guard against a fingerprint collision handing this caller
        // another dataset's cache. A registered cache that has since been
        // grown ([`SharedKnowledgeCache::grow`]) still serves its
        // lineage's epoch-0 fingerprint: it legitimately covers *more*
        // records than the corpus that built it, never fewer.
        let sketched = cache.sketches().len();
        assert!(
            sketched == records.len() || (cache.epoch() > 0 && sketched > records.len()),
            "cache registry fingerprint collision: cached sketches cover {} records at epoch {}, workload has {}",
            sketched,
            cache.epoch(),
            records.len()
        );
        self.enforce_capacity(fp);
        cache
    }

    /// Registers an already-built cache under an explicit fingerprint —
    /// the durable-recovery entry point: a cache restored warm from a
    /// snapshot re-enters the registry under its *publish-time* (epoch-0)
    /// fingerprint, so subsequent [`get_or_build`](Self::get_or_build)
    /// lookups for the original corpus find the recovered lineage instead
    /// of cold-building a duplicate. Returns the cache registered under
    /// the fingerprint — the existing one when it was already latched
    /// (first registration wins, the same race rule `get_or_build`
    /// applies to concurrent builders).
    pub fn install(
        &self,
        fingerprint: u128,
        cache: Arc<SharedKnowledgeCache>,
    ) -> Arc<SharedKnowledgeCache> {
        let latch = {
            let mut inner = self.inner.lock().expect("registry lock");
            inner.clock += 1;
            let stamp = inner.clock;
            let entry = inner
                .caches
                .entry(fingerprint)
                .or_insert_with(|| RegistryEntry {
                    latch: Arc::default(),
                    last_used: stamp,
                });
            entry.last_used = stamp;
            entry.latch.clone()
        };
        let installed = latch.get_or_init(|| cache).clone();
        self.enforce_capacity(fingerprint);
        installed
    }

    /// Drops least-recently-used caches until the registry fits its
    /// limits, never evicting `keep` (the fingerprint whose lookup is
    /// enforcing) or entries whose first build is still in flight.
    fn enforce_capacity(&self, keep: u128) {
        let cap_count = self.capacity.max_caches();
        let cap_bytes = self.capacity.max_total_bytes();
        if cap_count.is_none() && cap_bytes.is_none() {
            return;
        }
        let mut inner = self.inner.lock().expect("registry lock");
        loop {
            let count = inner.caches.len();
            let over_count = cap_count.is_some_and(|max| count > max);
            let over_bytes = cap_bytes.is_some_and(|max| {
                inner
                    .caches
                    .values()
                    .filter_map(|e| e.latch.get())
                    .map(|c| c.total_bytes())
                    .sum::<usize>()
                    > max
            });
            if !over_count && !over_bytes {
                return;
            }
            let victim = inner
                .caches
                .iter()
                .filter(|(&fp, e)| fp != keep && e.latch.get().is_some())
                .min_by_key(|(&fp, e)| (e.last_used, fp))
                .map(|(&fp, _)| fp);
            match victim {
                Some(fp) => {
                    inner.caches.remove(&fp);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
                // Nothing evictable (only `keep` and in-flight builds
                // remain): the requested dataset may alone exceed the
                // caps; serve it anyway.
                None => return,
            }
        }
    }

    /// Opens a [`crate::streaming::StreamingSession`] attached to this
    /// registry's cache for the dataset (building it if needed) — the
    /// one-call path for "another user starts exploring the same corpus".
    pub fn session(
        &self,
        records: Vec<SparseVector>,
        measure: Similarity,
        cfg: ApssConfig,
    ) -> crate::streaming::StreamingSession {
        let cache = self.get_or_build(&records, measure, &cfg);
        crate::streaming::StreamingSession::from_records(records, measure, cfg)
            .with_shared_cache(cache)
    }

    /// Number of registered caches (including any whose first build is
    /// still in flight).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry lock").caches.len()
    }

    /// True when no cache is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("registry lock").caches.is_empty()
    }

    /// Drops the cache for a fingerprint, if registered. Sessions already
    /// holding the `Arc` keep working; the next `get_or_build` rebuilds.
    pub fn evict(&self, fingerprint: u128) -> bool {
        self.inner
            .lock()
            .expect("registry lock")
            .caches
            .remove(&fingerprint)
            .is_some()
    }

    /// Drops every registered cache (same `Arc` semantics as
    /// [`evict`](Self::evict)).
    pub fn clear(&self) {
        self.inner.lock().expect("registry lock").caches.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apss::{apss, apss_with_sketches, build_sketches};
    use plasma_data::datasets::gaussian::GaussianSpec;
    use plasma_data::similarity::Similarity;
    use plasma_lsh::bayes::PairDecision;

    fn dataset() -> Vec<plasma_data::vector::SparseVector> {
        GaussianSpec {
            separation: 4.0,
            spread: 0.6,
            ..GaussianSpec::new("t", 50, 8, 3)
        }
        .generate(21)
        .records
    }

    #[test]
    fn shared_slice_delta_is_bit_identical_to_probe_delta() {
        let all = dataset();
        let cfg = ApssConfig {
            candidates: crate::apss::CandidateStrategy::Banded { bands: 8, width: 8 },
            parallelism: Some(1),
            ..ApssConfig::default()
        };
        // Two cold caches over the same sketches, so work counters (not
        // just outputs) are comparable between the two delta paths.
        let (sketches, _) = build_sketches(&all, Similarity::Cosine, &cfg);
        let a_cache = SharedKnowledgeCache::new(sketches.clone());
        let b_cache = SharedKnowledgeCache::new(sketches);

        let a = a_cache.probe_delta(&all, Similarity::Cosine, 0.6, &cfg, 40);
        let pinned = b_cache.pin_snapshot(&all);
        let slice = b_cache.generate_delta_candidates(&pinned, &cfg, 40);
        let start = Instant::now();
        let b =
            b_cache.evaluate_pinned(&all, Similarity::Cosine, 0.6, &cfg, &pinned, &slice, start);

        assert_same_output(&a, &b, "shared-slice delta");
        assert_eq!(a.stats.candidates, b.stats.candidates);
        assert_eq!(a.stats.pruned, b.stats.pruned);
        assert_eq!(a.stats.accepted, b.stats.accepted);
        assert_eq!(a.stats.hashes_compared, b.stats.hashes_compared);
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
        assert_eq!(a_cache.delta_builds(), 1);
        assert_eq!(b_cache.delta_builds(), 1);
    }

    fn assert_same_output(a: &ApssResult, b: &ApssResult, label: &str) {
        assert_eq!(a.pairs.len(), b.pairs.len(), "{label}: pair count");
        for (x, y) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!((x.i, x.j), (y.i, y.j), "{label}");
            assert_eq!(x.similarity.to_bits(), y.similarity.to_bits(), "{label}");
        }
        assert_eq!(a.estimates.len(), b.estimates.len(), "{label}");
        for (x, y) in a.estimates.iter().zip(&b.estimates) {
            assert_eq!((x.0, x.1), (y.0, y.1), "{label}");
            assert_eq!(x.2.decision, y.2.decision, "{label}");
            assert_eq!(x.2.matches, y.2.matches, "{label}");
            assert_eq!(x.2.hashes, y.2.hashes, "{label}");
            assert_eq!(
                x.2.map_similarity.to_bits(),
                y.2.map_similarity.to_bits(),
                "{label}"
            );
        }
    }

    #[test]
    fn cached_probe_is_bit_identical_to_fresh_probe() {
        // Stronger than the paper needs: profile-backed re-evaluation
        // replays the fresh schedule, so a warm cache returns *exactly*
        // the fresh result, not an approximation of it.
        let records = dataset();
        let cfg = ApssConfig::default();
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let cache = SharedKnowledgeCache::new(sketches.clone());
        let first = cache.probe(&records, Similarity::Cosine, 0.9, &cfg);
        let second = cache.probe(&records, Similarity::Cosine, 0.6, &cfg);
        let fresh_hi = apss_with_sketches(&records, Similarity::Cosine, &sketches, 0.9, &cfg);
        let fresh_lo = apss_with_sketches(&records, Similarity::Cosine, &sketches, 0.6, &cfg);
        assert_same_output(&first, &fresh_hi, "cold probe vs fresh");
        assert_same_output(&second, &fresh_lo, "warm probe vs fresh");
        assert!(first.stats.cache_hits == 0);
        assert!(second.stats.cache_hits > 0);
    }

    #[test]
    fn cache_reduces_hash_work_on_reprobe() {
        let records = dataset();
        let cfg = ApssConfig::default();
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let cache = SharedKnowledgeCache::new(sketches);
        cache.probe(&records, Similarity::Cosine, 0.95, &cfg);
        let cached = cache.probe(&records, Similarity::Cosine, 0.9, &cfg);
        let fresh = apss(&records, Similarity::Cosine, 0.9, &cfg);
        assert!(
            cached.stats.hashes_compared < fresh.stats.hashes_compared,
            "cache should save hash comparisons: {} vs {}",
            cached.stats.hashes_compared,
            fresh.stats.hashes_compared
        );
    }

    #[test]
    fn zero_band_probes_hash_no_records() {
        // A zero-band join hashes nothing, so the work counter must not
        // charge the corpus on every probe.
        let records = dataset();
        let cfg = ApssConfig {
            candidates: crate::apss::CandidateStrategy::Banded { bands: 0, width: 8 },
            ..ApssConfig::default()
        };
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let cache = SharedKnowledgeCache::new(sketches);
        for _ in 0..2 {
            let r = cache.probe(&records, Similarity::Cosine, 0.5, &cfg);
            assert_eq!(r.stats.candidates, 0);
        }
        assert_eq!(cache.memory_stats().bucket_build_records, 0);
    }

    #[test]
    fn spilled_profiles_probe_exactly_and_replay_free() {
        // 1 024 hashes: pairs near a low threshold walk past the eight
        // inline steps, so their memos spill to the heap.
        let records = dataset();
        let cfg = ApssConfig {
            n_hashes: 1024,
            ..ApssConfig::default()
        };
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let cache = SharedKnowledgeCache::new(sketches.clone());
        let ladder = [0.9, 0.8, 0.7, 0.6, 0.5];
        for t in ladder {
            let probe = cache.probe(&records, Similarity::Cosine, t, &cfg);
            let fresh = apss_with_sketches(&records, Similarity::Cosine, &sketches, t, &cfg);
            assert_same_output(&probe, &fresh, &format!("probe at {t}"));
        }
        let stats = cache.memory_stats();
        let slot = PairMemo::default().byte_size();
        assert!(
            stats.memo_bytes > stats.entries * slot,
            "some profile spilled: {} bytes over {} entries",
            stats.memo_bytes,
            stats.entries
        );
        for t in ladder {
            let again = cache.probe(&records, Similarity::Cosine, t, &cfg);
            assert_eq!(again.stats.hashes_compared, 0, "re-probe at {t}");
            assert_eq!(again.stats.cache_hits, again.stats.candidates);
        }
    }

    #[test]
    fn mismatched_batch_bypasses_profiles_but_stays_correct() {
        let records = dataset();
        let cfg = ApssConfig::default();
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let cache = SharedKnowledgeCache::new(sketches.clone());
        cache.probe(&records, Similarity::Cosine, 0.9, &cfg);
        // A probe with a different batch schedule cannot use (or corrupt)
        // the memoized profiles, but its output is still exactly the
        // fresh result for its own schedule.
        let other = ApssConfig {
            bayes: plasma_lsh::BayesParams {
                batch: 16,
                ..cfg.bayes
            },
            ..cfg
        };
        let degraded = cache.probe(&records, Similarity::Cosine, 0.9, &other);
        let fresh = apss_with_sketches(&records, Similarity::Cosine, &sketches, 0.9, &other);
        assert_same_output(&degraded, &fresh, "mismatched batch vs fresh");
        assert_eq!(degraded.stats.cache_hits, 0);
        // And the pinned schedule still works afterwards.
        let again = cache.probe(&records, Similarity::Cosine, 0.9, &cfg);
        assert_eq!(again.stats.hashes_compared, 0);
    }

    #[test]
    fn a_corpus_decides_each_threshold_once() {
        let records = dataset();
        let cfg = ApssConfig::default();
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let cache = SharedKnowledgeCache::new(sketches.clone());
        for t in [0.9, 0.7, 0.5] {
            let first = cache.probe(&records, Similarity::Cosine, t, &cfg);
            let cold = apss_with_sketches(&records, Similarity::Cosine, &sketches, t, &cfg);
            // A warm cache computes no decision the cold table did not.
            assert!(first.stats.posterior_evals > 0, "t = {t}");
            assert!(first.stats.posterior_evals <= cold.stats.posterior_evals);
            let again = cache.probe(&records, Similarity::Cosine, t, &cfg);
            assert_eq!(again.stats.posterior_evals, 0, "t = {t}: re-probe");
            assert_same_output(&again, &cold, "re-probe vs fresh");
        }
        // One table per threshold, and past the cap the least recently
        // used goes first.
        let table = |t: f64| {
            let engine = BayesLsh::new(sketches.family(), cfg.bayes);
            cache.decision_table(&engine, t, sketches.n_hashes())
        };
        let at_half = table(0.5);
        assert!(Arc::ptr_eq(&at_half, &table(0.5)));
        for k in 0..DECISION_TABLES {
            table(0.01 * k as f64);
        }
        assert_eq!(cache.decision_tables.lock().unwrap().len(), DECISION_TABLES);
        assert!(!Arc::ptr_eq(&at_half, &table(0.5)), "0.5 was evicted");
        let refill = cache.probe(&records, Similarity::Cosine, 0.5, &cfg);
        assert!(refill.stats.posterior_evals > 0, "an evicted table refills");
    }

    #[test]
    fn a_full_hit_publishes_nothing() {
        let records = dataset();
        let cfg = ApssConfig::default();
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let cache = Arc::new(SharedKnowledgeCache::new(sketches));
        cache.probe(&records, Similarity::Cosine, 0.6, &cfg);
        // The re-probe runs while this thread holds every stripe's shared
        // guard: a publication would wait for an exclusive guard forever.
        let guards: Vec<_> = cache.stripes.iter().map(PaddedStripe::read).collect();
        let again = {
            let (cache, records) = (cache.clone(), records.clone());
            within_a_minute(move || cache.probe(&records, Similarity::Cosine, 0.6, &cfg))
        };
        drop(guards);
        assert_eq!(again.stats.cache_hits, again.stats.candidates);
        assert_eq!(again.stats.hashes_compared, 0);
        assert_eq!(again.stats.memo_clones, 0);
    }

    /// Calls `f((i, j), memo)` on every resident memo, checking on the
    /// way that each row is strictly sorted by `j` and holds only pairs
    /// `i < j`.
    fn for_each_memo(cache: &SharedKnowledgeCache, mut f: impl FnMut((u32, u32), &PairMemo)) {
        for (s, stripe) in cache.stripes.iter().enumerate() {
            let g = stripe.read();
            for (r, row) in g.rows.iter().enumerate() {
                let i = (r * STRIPES + s) as u32;
                assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row {i} unsorted");
                for (j, memo) in row {
                    assert!(i < *j, "row {i} holds j = {j}");
                    f((i, *j), memo);
                }
            }
        }
    }

    /// Runs `f` on a thread of its own and returns what it returns. A
    /// walk that publishes under its own shared guard deadlocks, and only
    /// a deadlock takes a minute: the test then fails instead of hanging.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || done.send(f()).expect("the test is waiting"));
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(answer) => {
                worker.join().expect("the worker sent its answer");
                answer
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("the worker panicked"))
            }
            // The deadlocked worker cannot be joined; the test fails.
            Err(RecvTimeoutError::Timeout) => panic!("the probes deadlocked"),
        }
    }

    #[test]
    fn rows_end_sorted_and_identical_at_every_split() {
        // A descending exact sweep also accepts pairs from resident
        // profiles that carry no exact similarity: those walks stop, and
        // publish outside their shared guard.
        for exact_on_accept in [false, true] {
            within_a_minute(move || rows_at_every_split(exact_on_accept));
        }
    }

    fn rows_at_every_split(exact_on_accept: bool) {
        // Exhaustive candidates: row `i` holds 59 − i pairs, so the
        // chunk cuts of 2, 3 and 4 workers land inside long rows and
        // must move to row starts.
        let records = GaussianSpec::new("rows", 60, 8, 3).generate(5).records;
        let ladder = [0.95, 0.9, 0.7, 0.5];
        let cfg = |threads| ApssConfig {
            parallelism: Some(threads),
            exact_on_accept,
            ..ApssConfig::default()
        };
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg(1));
        if exact_on_accept {
            // Pairs pruned at 0.95 with a concentrated posterior are
            // accepted at 0.9 from their resident profile, which carries
            // no exact similarity: the walk hands each one back.
            let cache = SharedKnowledgeCache::new(sketches.clone());
            cache.probe(&records, Similarity::Cosine, ladder[0], &cfg(1));
            let engine = BayesLsh::new(sketches.family(), cfg(1).bayes);
            let cells = cache.decision_table(&engine, ladder[1], sketches.n_hashes());
            let mut table = engine.table_over(&cells);
            let cands = crate::apss::generate_candidates(&sketches, &cfg(1));
            let refused: usize = (cands.chunk_by(|a, b| a.0 == b.0))
                .map(|run| {
                    let (_, stops) =
                        walk_run(&cache, run, Some(&mut table), sketches.n_hashes(), true);
                    stops.iter().filter(|s| s.1.is_ok()).count()
                })
                .sum();
            assert!(refused > 0, "no accepted pair lacked its exact similarity");
        }
        let cold: Vec<ApssResult> = ladder
            .iter()
            .map(|&t| apss_with_sketches(&records, Similarity::Cosine, &sketches, t, &cfg(1)))
            .collect();
        let memos = |cache: &SharedKnowledgeCache| {
            let mut memos = Vec::new();
            for_each_memo(cache, |key, memo| {
                memos.push((key, memo.profile.clone(), memo.exact));
            });
            memos.sort_by_key(|m| m.0);
            assert_eq!(memos.len(), records.len() * (records.len() - 1) / 2);
            memos
        };
        let mut reference = None;
        for threads in 1..=4 {
            let cache = SharedKnowledgeCache::new(sketches.clone());
            for (&t, cold) in ladder.iter().zip(&cold) {
                let probe = cache.probe(&records, Similarity::Cosine, t, &cfg(threads));
                assert_same_output(&probe, cold, &format!("{threads} workers at {t}"));
            }
            let memos = memos(&cache);
            match &reference {
                None => reference = Some(memos),
                Some(reference) => assert!(
                    memos == *reference,
                    "{threads} workers, exact {exact_on_accept}"
                ),
            }
        }
        // Two fresh sessions race their first probes on one cache.
        let cache = Arc::new(SharedKnowledgeCache::new(sketches.clone()));
        let start = std::sync::Barrier::new(2);
        let answers: Vec<_> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let mut session = crate::StreamingSession::from_records(
                        records.clone(),
                        Similarity::Cosine,
                        cfg(2),
                    )
                    .with_shared_cache(cache.clone());
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        ladder.map(|t| session.probe(t).pairs)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racing session panicked"))
                .collect()
        });
        for pairs in answers.iter().flatten().zip(cold.iter().cycle()) {
            let (pairs, cold) = pairs;
            let bits = |p: &[crate::apss::SimilarPair]| {
                p.iter()
                    .map(|p| (p.i, p.j, p.similarity.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(pairs), bits(&cold.pairs), "racing session");
        }
        assert!(
            memos(&cache) == reference.expect("four splits ran"),
            "racing sessions"
        );
    }

    /// Profiles of many depths, inline and spilled: real walks of a few
    /// pairs at several thresholds over 1 024 hashes, one per depth.
    fn profile_pool() -> Vec<MatchProfile> {
        let records = dataset();
        let cfg = ApssConfig {
            n_hashes: 1024,
            ..ApssConfig::default()
        };
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let engine = BayesLsh::new(sketches.family(), cfg.bayes);
        let mut pool: Vec<MatchProfile> = Vec::new();
        for t in [0.95, 0.8, 0.6, 0.4, 0.2] {
            let cells = engine.decision_cells(t, sketches.n_hashes());
            let mut table = engine.table_over(&cells);
            for j in 1..records.len() {
                let mut profile = MatchProfile::new();
                table.resume(&sketches, 0, j, &mut profile);
                if pool
                    .iter()
                    .all(|p| p.covered_steps() != profile.covered_steps())
                {
                    pool.push(profile);
                }
            }
        }
        assert!(
            pool.iter().any(|p| p.byte_size() > 0),
            "some profile spills"
        );
        assert!(pool.iter().any(|p| p.covered_steps() == 1));
        pool
    }

    /// The row store's reference: a `BTreeMap` of `(profile, exact)` per
    /// pair, with a byte tally.
    #[derive(Default)]
    struct ModelCache {
        memos: std::collections::BTreeMap<(u32, u32), (MatchProfile, Option<f64>)>,
        bytes: usize,
    }

    /// Accounted bytes of one memo: the 48-byte slot plus a spilled
    /// profile's heap.
    fn charge(profile: &MatchProfile) -> usize {
        48 + profile.byte_size()
    }

    impl ModelCache {
        fn publish(&mut self, key: (u32, u32), profile: Option<MatchProfile>, exact: Option<f64>) {
            if profile.is_none() && exact.is_none() {
                return;
            }
            let fresh = !self.memos.contains_key(&key);
            let memo = self.memos.entry(key).or_insert((MatchProfile::new(), None));
            let old = if fresh { 0 } else { charge(&memo.0) };
            if let Some(profile) = profile {
                memo.0.adopt_deeper(profile);
            }
            if exact.is_some() {
                memo.1 = exact;
            }
            self.bytes = self.bytes + charge(&memo.0) - old;
        }

        fn check(&self, cache: &SharedKnowledgeCache) {
            let mut resident = 0;
            for_each_memo(cache, |key, memo| {
                let model = self
                    .memos
                    .get(&key)
                    .expect("a resident memo is in the model");
                assert_eq!((&memo.profile, memo.exact), (&model.0, model.1));
                resident += 1;
            });
            assert_eq!(resident, self.memos.len());
            let stats = cache.memory_stats();
            assert_eq!(stats.entries, self.memos.len());
            assert_eq!(stats.memo_bytes, self.bytes);
            let profiled = self.memos.values().filter(|m| !m.0.is_empty()).count();
            assert_eq!(cache.len(), profiled);
            assert_eq!(cache.is_empty(), profiled == 0);
        }
    }

    /// One model-test operation: `((kind, i, j − i − 1), (profile, exact,
    /// mask))`. Kinds 0–5 publish pair `(i, j)` (profile index past the
    /// pool = none; exact 0 = none). Kinds 6–7 walk the run of row `i`
    /// whose `j`s sit at `mask`'s set bits past `j` (1–8 ascending pairs,
    /// some absent), decided at the threshold `profile % 6` picks (5 =
    /// unprofiled), refusing hits with no exact similarity when `exact`
    /// is non-zero.
    type ModelOp = ((u8, u32, u32), (usize, u8, u8));

    /// What a walk recorded: each full hit's `(offset, estimate, exact)`,
    /// and each pair it stopped at as `(offset, read, exact)` — a decided
    /// read's estimate, or the profile it resumes from.
    type Walk = (
        Vec<(usize, (PairDecision, u32, u32, u64), Option<f64>)>,
        Vec<(
            usize,
            Result<(PairDecision, u32, u32, u64), MatchProfile>,
            Option<f64>,
        )>,
    );

    fn estimate_bits(e: &PairEstimate) -> (PairDecision, u32, u32, u64) {
        (e.decision, e.matches, e.hashes, e.map_similarity.to_bits())
    }

    /// Whether a walk's `hit` takes a decided pair: it refuses one with no
    /// exact similarity when `refuse_unknown`, as an `exact_on_accept`
    /// probe refuses an accepted pair.
    fn takes(refuse_unknown: bool, e: &PairEstimate, exact: Option<f64>) -> bool {
        !refuse_unknown || e.decision == PairDecision::Pruned || exact.is_some()
    }

    /// Walks `run` the way the evaluation loop does: [`replay_run`] to
    /// each stop, then again from the pair after it.
    ///
    /// [`replay_run`]: SharedKnowledgeCache::replay_run
    fn walk_run(
        cache: &SharedKnowledgeCache,
        run: &[(u32, u32)],
        mut table: Option<&mut ProbeTable<'_>>,
        max_n: usize,
        refuse_unknown: bool,
    ) -> Walk {
        let (mut hits, mut stops) = (Vec::new(), Vec::new());
        let mut from = 0;
        while from < run.len() {
            let rest = &run[from..];
            let hit = |j: u32, e: PairEstimate, exact: Option<f64>| {
                let taken = takes(refuse_unknown, &e, exact);
                if taken {
                    let offset = from + rest.iter().position(|p| p.1 == j).expect("in run");
                    hits.push((offset, estimate_bits(&e), exact));
                }
                taken
            };
            let Some((at, read, exact)) = cache.replay_run(rest, table.as_deref_mut(), max_n, hit)
            else {
                break;
            };
            let read = match read {
                MemoRead::Decided(e) => Ok(estimate_bits(&e)),
                MemoRead::Resume(p) => Err(p),
            };
            stops.push((from + at, read, exact));
            from += at + 1;
        }
        (hits, stops)
    }

    /// The same walk read one pair at a time from the model.
    fn walk_model(
        model: &ModelCache,
        run: &[(u32, u32)],
        mut table: Option<&mut ProbeTable<'_>>,
        refuse_unknown: bool,
    ) -> Walk {
        let (mut hits, mut stops) = (Vec::new(), Vec::new());
        for (offset, &key) in run.iter().enumerate() {
            let Some((profile, exact)) = model.memos.get(&key) else {
                stops.push((offset, Err(MatchProfile::new()), None));
                continue;
            };
            let read = match table.as_deref_mut().map(|t| t.replay(profile, 1024)) {
                None => Err(MatchProfile::new()),
                Some(None) => Err(profile.clone()),
                Some(Some(e)) => {
                    if takes(refuse_unknown, &e, *exact) {
                        hits.push((offset, estimate_bits(&e), *exact));
                        continue;
                    }
                    Ok(estimate_bits(&e))
                }
            };
            stops.push((offset, read, *exact));
        }
        (hits, stops)
    }

    /// What the model test's walks decide at: `(threshold, strict)`. The
    /// pool's profiles are walks under the default parameters, so a
    /// default table decides every one of them; a strict table (tighter
    /// ε and δ) needs deeper profiles and stops at the shallow ones.
    const WALK_TABLES: [(f64, bool); 5] = [
        (0.8, false),
        (0.4, false),
        (0.9, true),
        (0.6, true),
        (0.3, true),
    ];

    /// Drives `ops` through a cache and the model, checking them against
    /// each other after every op. Returns how many full hits, refused hits
    /// and partial stops the walks met.
    fn run_model(ops: &[ModelOp], pool: &[MatchProfile]) -> [usize; 3] {
        let cfg = ApssConfig::default();
        let (sketches, _) = build_sketches(&dataset()[..2], Similarity::Cosine, &cfg);
        let strict = plasma_lsh::BayesParams {
            epsilon: 0.01,
            delta: 0.02,
            ..cfg.bayes
        };
        let engines = [cfg.bayes, strict].map(|p| BayesLsh::new(sketches.family(), p));
        let cells = WALK_TABLES.map(|(t, s)| engines[s as usize].decision_cells(t, 1024));
        let mut tables: Vec<ProbeTable<'_>> = (WALK_TABLES.iter().zip(&cells))
            .map(|(&(_, s), c)| engines[s as usize].table_over(c))
            .collect();
        let cache = SharedKnowledgeCache::new(sketches);
        let mut model = ModelCache::default();
        let mut met = [0; 3];
        for &((kind, i, dj), (p, exact, mask)) in ops {
            let j = i + 1 + dj;
            if kind < 6 {
                let key = (i, j);
                let profile = pool.get(p).cloned();
                let exact = (exact > 0).then(|| f64::from(key.0 * 131 + key.1) / 1e5);
                cache.publish(key, profile.clone(), exact);
                model.publish(key, profile, exact);
            } else {
                let run: Vec<(u32, u32)> = (0..8)
                    .filter(|b| mask & (1 << b) != 0)
                    .map(|b| (i, j + b))
                    .collect();
                let refuse = exact > 0;
                let walked = walk_run(&cache, &run, tables.get_mut(p % 6), 1024, refuse);
                let modeled = walk_model(&model, &run, tables.get_mut(p % 6), refuse);
                assert!(walked == modeled, "{run:?}: {walked:?} vs {modeled:?}");
                met[0] += walked.0.len();
                for (_, read, _) in &walked.1 {
                    match read {
                        Ok(_) => met[1] += 1,
                        Err(p) if !p.is_empty() => met[2] += 1,
                        Err(_) => {}
                    }
                }
            }
            model.check(&cache);
        }
        met
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3))]

        #[test]
        fn row_store_matches_a_btree_reference(
            ops in proptest::collection::vec(
                ((0u8..8, 0u32..192, 0u32..24), (0usize..12, 0u8..3, 1u8..=255)),
                1500..3000,
            )
        ) {
            let met = run_model(&ops, &profile_pool());
            proptest::prop_assert!(met.iter().all(|&n| n > 0), "full, refused, partial: {:?}", met);
        }
    }

    #[test]
    fn registry_dedupes_by_fingerprint() {
        let records = dataset();
        let cfg = ApssConfig::default();
        let registry = CacheRegistry::new();
        let a = registry.get_or_build(&records, Similarity::Cosine, &cfg);
        let b = registry.get_or_build(&records, Similarity::Cosine, &cfg);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.len(), 1);
        // A different hash seed is a different sketch universe.
        let reseeded = ApssConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        let c = registry.get_or_build(&records, Similarity::Cosine, &reseeded);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(registry.len(), 2);
        let fp = CacheRegistry::fingerprint(&records, Similarity::Cosine, &cfg);
        assert!(registry.evict(fp));
        assert_eq!(registry.len(), 1);
        registry.clear();
        assert!(registry.is_empty());
    }
}
