//! Locality-sensitive hashing and BayesLSH inference for PLASMA-HD.
//!
//! PLASMA-HD stores each record's LSH hashes as a single concatenated sketch
//! (§2.4: "maintains the LSH hashes as a single concatenated sketch" so all
//! candidate pairs can be compared cache-friendlily), then reasons about
//! pair similarity with BayesLSH: a Bayesian posterior over the true
//! similarity given `m` matching hashes out of `n` compared, with early
//! *pruning* (Eq. 2.1) and *concentration* (Eq. 2.2) stopping rules.
//!
//! Two hash families cover the paper's measures:
//! * min-wise hashing for Jaccard — `Pr[match] = s`
//! * random-hyperplane (sign) hashing for cosine — `Pr[match] = 1 − θ/π`
//!
//! # Engine architecture
//!
//! The crate implements the *sketch* half of the APSS hot path (Fig. 2.9
//! splits a probe into sketching and processing; `plasma-core` owns the
//! processing half):
//!
//! * [`sketch`] — dim-outer, lane-inner kernels stream each record's
//!   dimensions once while updating every hash lane, and whole-dataset
//!   passes shard records across threads into disjoint slices of the flat
//!   sketch buffer. Output is bit-identical at every thread count.
//! * [`candidates`] — exhaustive and banded-LSH candidate generation;
//!   [`candidates::BandBuckets`] is the one banded join, serving cold,
//!   incremental (new records only) and warm (`Arc` clone) candidates.
//! * [`bayes`] — posterior inference and the memoized per-`(m, n)`
//!   decision table ([`bayes::ProbeTable`]); its cells
//!   ([`bayes::DecisionCells`]) are race-safe, so parallel workers — and
//!   every probe of one threshold on one corpus — fill each cell once.
//!
//! Thread counts everywhere follow one convention, resolved by
//! [`resolve_parallelism`]: `None` means "all cores", `Some(k)` pins `k`
//! threads, and `Some(1)` forces the sequential path. Results never depend
//! on the choice. The `None` default can be overridden process-wide with
//! the `PLASMA_PARALLELISM` environment variable (read once) — this is
//! how CI runs the whole tier-1 suite at pinned worker counts without
//! touching any call site.

pub mod bayes;
pub mod candidates;
pub mod family;
pub mod sketch;

pub use bayes::{BayesLsh, BayesParams, PairDecision};
pub use family::LshFamily;
pub use sketch::{SketchSet, Sketcher};

/// The process-wide default worker count for `parallelism: None`: the
/// `PLASMA_PARALLELISM` environment variable when set to a positive
/// integer (cached on first use), otherwise all available cores.
fn default_parallelism() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("PLASMA_PARALLELISM")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|k| k.max(1))
            .unwrap_or_else(rayon::current_num_threads)
    })
}

/// Resolves the workspace-wide parallelism knob: `None` = the process
/// default (all available cores, unless pinned by `PLASMA_PARALLELISM` —
/// the env-driven matrix CI uses to run every test at fixed worker
/// counts), `Some(k)` = exactly `max(k, 1)` threads.
pub fn resolve_parallelism(parallelism: Option<usize>) -> usize {
    match parallelism {
        Some(k) => k.max(1),
        None => default_parallelism(),
    }
}

/// Records per sealed segment of the segmented sketch store when nothing
/// overrides it: large enough that segment bookkeeping is noise, small
/// enough that a streaming ingest's snapshot clone (tail + segment
/// pointers) stays far below the corpus size.
const DEFAULT_SEGMENT_RECORDS: usize = 512;

/// The process-wide default records-per-segment for
/// [`sketch::SketchSet`]'s segmented store: the `PLASMA_SEGMENT_RECORDS`
/// environment variable when set to a positive integer (cached on first
/// use), otherwise [`DEFAULT_SEGMENT_RECORDS`]. This is how CI runs the
/// whole tier-1 suite over many-segment layouts without touching any
/// call site, mirroring `PLASMA_PARALLELISM`.
fn default_segment_records() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("PLASMA_SEGMENT_RECORDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|k| k.max(1))
            .unwrap_or(DEFAULT_SEGMENT_RECORDS)
    })
}

/// Resolves the records-per-segment knob of the segmented sketch store,
/// rounded up to a power of two so record→segment indexing is a shift and
/// a mask: `None` = the process default (512, unless pinned by
/// `PLASMA_SEGMENT_RECORDS`), `Some(k)` = `max(k, 1)` rounded up. Segment
/// geometry never changes sketch bytes or probe outputs — only how the
/// storage is chunked.
pub fn resolve_segment_records(segment_records: Option<usize>) -> usize {
    match segment_records {
        Some(k) => k.max(1),
        None => default_segment_records(),
    }
    .next_power_of_two()
}
