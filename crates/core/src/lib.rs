//! The PLASMA-HD engine.
//!
//! PLASMA-HD lets a user interactively probe the intrinsic connectivity and
//! clusterability of a high-dimensional dataset across the whole spectrum
//! of similarity thresholds (Ch. 2). The pieces:
//!
//! * [`apss`] — BayesLSH-backed all-pairs similarity search at a threshold,
//!   with candidate generation, pruning/concentration, and timing breakdown
//!   (sketching vs processing).
//! * [`cache`] — the knowledge cache: sketches plus memoized per-pair
//!   match profiles, reused across probes at different thresholds. The
//!   lock-striped [`SharedKnowledgeCache`] lets many concurrent sessions
//!   share one memo pool ([`CacheRegistry`] keys caches by dataset
//!   fingerprint), with probe outputs bit-identical to a private cache.
//!   A cache never evicts a memo; the registry bounds memory by dropping
//!   whole least-recently-used caches ([`cache::RegistryCapacity`]).
//! * [`cumulative`] — the Cumulative APSS Graph: estimated number of
//!   similar pairs at every threshold, with error bars, assembled from
//!   memoized estimates.
//! * [`incremental`] — streaming pair-count estimates after each fraction
//!   of the dataset processed (Figs. 2.6–2.8).
//! * [`streaming`] — the interactive driver tying it all together: a
//!   [`StreamingSession`] interleaves `ingest` (epoch-versioned
//!   batch-extend sketching) and `probe` over a corpus that may grow,
//!   with the knowledge cache carrying every old-pair memo across each
//!   epoch bump. Streamed probes are bit-identical to cold runs over the
//!   same corpus.
//! * [`watch`] — continuous probes: `watch(threshold)` subscriptions that
//!   receive only the per-epoch *delta* on every ingest ([`WatchDelta`]),
//!   with concatenated deltas bit-identical to a cold probe at every
//!   epoch.
//! * [`durable`] — snapshot + ingest-WAL persistence: a serving process
//!   restarts *warm* (sketch words restored, memos and buckets rebuilt by
//!   replaying the log through the normal ingest path), with
//!   `SketchSet::is_prefix_of` as the recovery integrity gate. Recovery
//!   either reproduces the exact live state or refuses with a structured
//!   [`durable::DurableError`] — it can never change probe outputs.
//! * [`cues`] — dimensionless visual cues: triangle vertex-cover histogram
//!   and clique/triangle density plots (Fig. 2.5).
//! * [`plot`] — ASCII and SVG renderers for the cues and curves.
//!
//! # Parallel engine
//!
//! Sketching and pair evaluation are parallel, governed by one knob —
//! [`apss::ApssConfig::parallelism`] (`None` = all cores, `Some(1)` =
//! sequential):
//!
//! * sketching shards records into disjoint slices of the flat sketch
//!   buffer (`plasma_lsh::sketch`);
//! * pair evaluation is one chunked loop whose memo source is the shared
//!   cache or nothing (see "Pair evaluation" in [`apss`]).
//!
//! Banded candidates come from one join,
//! `plasma_lsh::candidates::BandBuckets`: cold probes extend a fresh one
//! once, cached probes and watches extend the cache's copy by the new
//! records only.
//!
//! Probe outputs — pairs, estimates, and counter stats — are
//! bit-identical at every thread count, so experiments stay reproducible
//! while latency scales with cores. The only timing-dependent fields are
//! the `*_seconds` stats.

pub mod apss;
pub mod cache;
pub mod cues;
pub mod cumulative;
pub mod durable;
pub mod incremental;
pub mod plot;
pub mod streaming;
pub mod topk;
pub mod watch;

pub use apss::{ApssConfig, ApssResult, CandidateStrategy};
pub use cache::{
    CacheCapacity, CacheMemoryStats, CacheRegistry, RegistryCapacity, SharedKnowledgeCache,
};
pub use cumulative::CumulativeCurve;
pub use durable::{CorpusStore, DurableError, RecoveredCorpus, WalSyncStats, WAL_HEADER_BYTES};
pub use streaming::{IngestReport, ProbeReport, StreamingSession};
pub use watch::{WatchDelta, WatchHandle, WatchRegistry};
