//! Continuous probes: threshold watches over a growing corpus.
//!
//! PLASMA-HD's interactive loop (§2.3) lets an analyst re-probe a corpus
//! at varying thresholds; the streaming layer (PR 5/6) lets the corpus
//! grow under them in O(batch). A client who wants to *stay informed* as
//! the corpus grows shouldn't have to re-issue full probes and diff pair
//! lists — the epoch machinery already knows exactly what changed. A
//! **watch** is a standing subscription at one threshold: register once,
//! and every adopted ingest delivers a [`WatchDelta`] holding only the
//! pairs that epoch added.
//!
//! # Why deltas are exact
//!
//! Pair evaluation is pair-local: a pair's sketches are immutable once
//! both records exist (growth is a prefix-extension, pinned by
//! [`plasma_lsh::SketchSet::is_prefix_of`]), so its estimate, decision,
//! and threshold membership never change at later epochs. Growth is
//! therefore purely *additive* at every threshold — the pairs a full
//! probe gains over the previous epoch are exactly the pairs touching a
//! new record, and a pair `(i, j)` with `i < j` touches the new range
//! exactly when `j` does. Evaluating just those candidates
//! ([`SharedKnowledgeCache`]'s delta path, fed by the epoch-persistent
//! band buckets or a cold `banded_join`) yields deltas that are
//! **disjoint across epochs** and whose concatenation is bit-identical
//! to a cold probe of the full corpus — pairs, estimates, and canonical
//! `(i, j)` order. `crates/core/tests/watch_differential.rs` pins this
//! across batch schedules, parallelism, segment geometry, eviction, and
//! late registration.
//!
//! # Lifecycle
//!
//! Registration ([`WatchRegistry::register`], surfaced as
//! `StreamingSession::watch`) runs one full evaluation at the current
//! epoch, so the first delta is the complete answer at registration time
//! — a late subscriber starts from truth, not from an empty set. Each
//! subsequent adopted ingest appends one delta per live watch. Dropping
//! the [`WatchHandle`] cancels the watch: the registry holds only a
//! [`Weak`] reference and purges dead entries at the next notification.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::PairEstimate;

use crate::apss::{ApssConfig, ApssStats, SimilarPair};
use crate::cache::SharedKnowledgeCache;

/// One epoch's worth of change at one watched threshold.
///
/// `new_pairs` holds every pair at or above the threshold that this
/// epoch's batch created, in canonical ascending `(i, j)` order;
/// `estimates` holds the decision record of every *candidate* the epoch
/// created (including pruned ones), also in `(i, j)` order — together
/// they are exactly the slice a cold probe of this epoch's corpus gains
/// over a cold probe of the previous one. A watch's registration delta
/// is the degenerate case: the full cold answer at its starting epoch.
#[derive(Debug, Clone)]
pub struct WatchDelta {
    /// The corpus epoch this delta brought the watch up to.
    pub epoch: u64,
    /// The watched threshold, echoed for multi-watch consumers.
    pub threshold: f64,
    /// Pairs at or above the threshold that this epoch added, sorted by
    /// `(i, j)`.
    pub new_pairs: Vec<SimilarPair>,
    /// Decision records for every candidate this epoch added (pruned
    /// candidates included), sorted by `(i, j)`.
    pub estimates: Vec<(u32, u32, PairEstimate)>,
    /// What the evaluation cost: `candidates`/`pruned`/`accepted`/
    /// `exhausted` are deterministic; `hashes_compared`/`cache_hits`
    /// reflect memo-pool warmth (a second watch at the same epoch rides
    /// the first one's published memos).
    pub work: ApssStats,
}

/// State owned by one watch, shared between its [`WatchHandle`] and the
/// registry's [`Weak`] entry.
#[derive(Debug)]
struct WatchShared {
    threshold: f64,
    /// The probe configuration pinned at registration; every delta for
    /// this watch is evaluated under it, whatever the registering
    /// session reconfigures later.
    cfg: ApssConfig,
    /// Deltas delivered but not yet consumed, oldest first.
    deltas: Mutex<VecDeque<WatchDelta>>,
}

/// A live threshold subscription. Poll or drain deltas at leisure — the
/// registry appends to the handle's queue on every adopted ingest, and
/// dropping the handle cancels the watch (the registry only holds a
/// [`Weak`] reference).
#[derive(Debug)]
pub struct WatchHandle {
    id: u64,
    shared: Arc<WatchShared>,
}

impl WatchHandle {
    /// The registry-unique id of this watch (assignment order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The threshold this watch was registered at.
    pub fn threshold(&self) -> f64 {
        self.shared.threshold
    }

    /// Deltas delivered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.shared.deltas.lock().expect("watch queue lock").len()
    }

    /// Removes and returns the oldest unconsumed delta, if any.
    pub fn poll(&self) -> Option<WatchDelta> {
        self.shared
            .deltas
            .lock()
            .expect("watch queue lock")
            .pop_front()
    }

    /// Removes and returns every unconsumed delta, oldest first.
    pub fn drain(&self) -> Vec<WatchDelta> {
        self.shared
            .deltas
            .lock()
            .expect("watch queue lock")
            .drain(..)
            .collect()
    }
}

/// The set of live watches over one growing corpus.
///
/// `StreamingCorpus` owns one registry, shared by every forked session:
/// whichever session's `ingest` adopts a batch notifies all watches,
/// wherever they were registered. The registry itself is corpus-agnostic
/// — any holder of a cache-attached corpus view can drive it by calling
/// [`register`](Self::register) and [`notify_ingest`](Self::notify_ingest)
/// with a consistent `(cache, records)` pair.
///
/// Per-watch vs shared state: the threshold, pinned config, and delta
/// queue are per-watch (owned by the handle's shared cell); the sketches, memo pool, and
/// band-bucket cache all live in the [`SharedKnowledgeCache`] — watches
/// add no per-watch copies of corpus-sized state.
#[derive(Debug, Default)]
pub struct WatchRegistry {
    entries: Mutex<Vec<(u64, Weak<WatchShared>)>>,
    next_id: AtomicU64,
}

/// One epoch's fresh-candidate slice, keyed by the candidate shape that
/// generated it and shared by every watch pinned to that shape.
type ShapeSlice = (crate::apss::CandidateStrategy, Arc<Vec<(u32, u32)>>);

impl WatchRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live watches (handles not yet dropped). Dead entries are counted
    /// out even before the next notification purges them.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("watch registry lock")
            .iter()
            .filter(|(_, w)| w.strong_count() > 0)
            .count()
    }

    /// True when no watch is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers a watch at `threshold` and evaluates it eagerly: the
    /// handle starts with one queued delta holding the full answer at
    /// the current epoch — bit-identical to a cold probe — so a late
    /// subscriber's view concatenates to truth exactly like an early
    /// one's. `records` must be the corpus the cache sketches (same
    /// epoch), as for [`SharedKnowledgeCache::probe`]; `cfg` is pinned
    /// for the lifetime of the watch.
    pub fn register(
        &self,
        cache: &SharedKnowledgeCache,
        records: &[SparseVector],
        measure: Similarity,
        threshold: f64,
        cfg: &ApssConfig,
    ) -> WatchHandle {
        let result = cache.probe(records, measure, threshold, cfg);
        let shared = Arc::new(WatchShared {
            threshold,
            cfg: *cfg,
            deltas: Mutex::new(VecDeque::from([WatchDelta {
                epoch: cache.epoch(),
                threshold,
                new_pairs: result.pairs,
                estimates: result.estimates,
                work: result.stats,
            }])),
        });
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("watch registry lock")
            .push((id, Arc::downgrade(&shared)));
        WatchHandle { id, shared }
    }

    /// Evaluates every live watch against the records a just-adopted
    /// ingest appended (`records[old_len..]`) and queues one delta per
    /// watch; entries whose handle was dropped are purged. Watches are
    /// evaluated in registration order, so for any serialized ingest
    /// history the work counters are deterministic: the first watch of
    /// an epoch pays the fresh hashing, later ones ride its published
    /// memos. Call with the post-growth `(cache, records)` pair — the
    /// streaming layer does so inside `ingest`, while still holding the
    /// corpus write guard, so every watch sees each epoch exactly once.
    ///
    /// The fresh-candidate slice is generated **once per candidate shape
    /// per epoch** and shared across every watch pinned to that shape (a
    /// single pass, pinned by the `delta_builds` counter in
    /// `watch_differential.rs`); per-watch evaluation from a shared slice
    /// is bit-identical to each watch running its own `probe_delta`,
    /// because candidate generation depends only on the strategy, the
    /// sketches, and the growth range — never on the threshold.
    pub fn notify_ingest(
        &self,
        cache: &SharedKnowledgeCache,
        records: &[SparseVector],
        measure: Similarity,
        old_len: usize,
    ) -> usize {
        let mut entries = self.entries.lock().expect("watch registry lock");
        let epoch = cache.epoch();
        let mut notified = 0;
        // One pinned snapshot and one candidate slice per distinct
        // candidate shape, shared by every watch in this pass. Watches
        // are few; a linear scan over the shape list beats hashing.
        let mut snapshot: Option<Arc<plasma_lsh::SketchSet>> = None;
        let mut slices: Vec<ShapeSlice> = Vec::new();
        entries.retain(|(_, weak)| {
            let Some(shared) = weak.upgrade() else {
                return false;
            };
            let sketches = snapshot.get_or_insert_with(|| cache.pin_snapshot(records));
            let cands = match slices
                .iter()
                .find(|(shape, _)| *shape == shared.cfg.candidates)
            {
                Some((_, slice)) => slice.clone(),
                None => {
                    let slice = cache.generate_delta_candidates(sketches, &shared.cfg, old_len);
                    slices.push((shared.cfg.candidates, slice.clone()));
                    slice
                }
            };
            let result = cache.evaluate_pinned(
                records,
                measure,
                shared.threshold,
                &shared.cfg,
                sketches,
                &cands,
                std::time::Instant::now(),
            );
            shared
                .deltas
                .lock()
                .expect("watch queue lock")
                .push_back(WatchDelta {
                    epoch,
                    threshold: shared.threshold,
                    new_pairs: result.pairs,
                    estimates: result.estimates,
                    work: result.stats,
                });
            notified += 1;
            true
        });
        notified
    }
}
