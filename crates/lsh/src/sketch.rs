//! Sketch generation and storage.
//!
//! Every record gets a fixed-length sketch: `n` 64-bit min-hashes
//! (MinHash family) or `n` sign bits packed into words (SimHash family).
//! Sketches for a whole dataset live in a **segmented store**: a list of
//! sealed, exactly-full, `Arc`-shared segments plus one mutable tail
//! segment, each holding a power-of-two run of records in flat
//! record-major order. Every record's words stay contiguous inside its
//! segment, so pair evaluation still streams contiguous memory — the
//! concatenated-sketch layout §2.4 credits for BayesLSH's cache
//! friendliness — while a snapshot clone copies only the tail and one
//! pointer per sealed segment (O(segments + tail), not O(corpus)).
//!
//! # Segment lifecycle
//!
//! Records append into the tail; the moment the tail reaches the segment
//! capacity ([`crate::resolve_segment_records`], default 512, overridable
//! with `PLASMA_SEGMENT_RECORDS`) it is sealed into an immutable
//! `Arc<[u64]>` and a fresh tail starts. Sealed segments never change
//! again, so clones share them by reference — which is what makes
//! streaming ingest's epoch snapshot cheap and lets
//! [`SketchSet::is_prefix_of`] verify lineage by pointer comparison
//! before falling back to bytes. Segment geometry is pure storage
//! layout: sketch bytes, band keys, and probe outputs are bit-identical
//! at every capacity.
//!
//! # Kernel shape
//!
//! Both families run **dim-outer, lane-inner**: each record's dimensions
//! are streamed once, and every hash lane is updated in the inner loop.
//! The item-dependent half of the keyed hash ([`spread_item`]) is computed
//! once per dimension instead of once per `(dimension, lane)` pair, and
//! the per-lane state (`n_hashes` running minima, or `n_hashes` running
//! dot products) stays cache-resident across the whole record. The values
//! produced are bit-identical to the textbook lane-outer formulation —
//! minima are order-free and each lane's dot product still accumulates
//! dimensions in record order.
//!
//! # Parallelism
//!
//! [`Sketcher::sketch_all`], [`Sketcher::extend_sketches`], and
//! [`Sketcher::extend_batch`] shard the record range across threads: the
//! flat output buffer is pre-sized and split into disjoint per-shard
//! slices (`par_chunks_mut`), so workers write without synchronization
//! and the result is bit-identical for every thread count.
//! [`Sketcher::with_parallelism`] pins the thread count (`Some(1)` =
//! sequential, `None` = all cores).
//!
//! # Streaming growth and epochs
//!
//! A corpus that grows while sessions probe it appends records with
//! [`Sketcher::extend_batch`]: the new records are sketched into the
//! existing flat buffer (in parallel, bit-identical to one-at-a-time
//! [`Sketcher::sketch_into`] appends), the old sketches stay byte-for-byte
//! untouched, and the set's [`SketchSet::epoch`] counter advances by one.
//! The epoch is what lets a knowledge cache distinguish "the same corpus,
//! grown" (old pair memos remain valid — see
//! `plasma_core::cache::SharedKnowledgeCache::grow`) from "a different
//! corpus" (cold cache). A zero-record batch is a no-op and does *not*
//! bump the epoch.

use std::sync::Arc;

use plasma_data::hash::{keyed_hash_spread, spread_item};
use plasma_data::vector::SparseVector;
use rayon::prelude::*;

use crate::family::LshFamily;
use crate::{resolve_parallelism, resolve_segment_records};

/// Per-lane key schedule constants (one odd multiplier per family, so the
/// two families draw independent hash function sequences from one seed).
const MINHASH_LANE_MUL: u64 = 0xA24B_AED4_963E_E407;
const SIMHASH_LANE_MUL: u64 = 0x9E6C_63D0_9759_27F1;

/// Below this much total work (`records · n_hashes`), sharding costs more
/// than it saves and sketching stays sequential.
const MIN_PARALLEL_WORK: usize = 1 << 13;

/// Generates sketches for one dataset.
#[derive(Debug, Clone)]
pub struct Sketcher {
    family: LshFamily,
    n_hashes: usize,
    seed: u64,
    /// Precomputed per-lane hash keys (`seed ^ h·MUL` for lane `h`).
    lane_keys: Vec<u64>,
    /// Thread count for whole-dataset sketching; `None` = all cores.
    parallelism: Option<usize>,
    /// Records per sealed segment of the sets this sketcher creates;
    /// `None` = the process default (see [`resolve_segment_records`]).
    segment_records: Option<usize>,
}

impl Sketcher {
    /// Creates a sketcher producing `n_hashes` hashes per record.
    pub fn new(family: LshFamily, n_hashes: usize, seed: u64) -> Self {
        assert!(n_hashes > 0, "sketches need at least one hash");
        Self {
            family,
            n_hashes,
            seed,
            lane_keys: lane_keys(family, seed, 0, n_hashes),
            parallelism: None,
            segment_records: None,
        }
    }

    /// Pins the thread count used by [`sketch_all`](Self::sketch_all) and
    /// [`extend_sketches`](Self::extend_sketches). `Some(1)` forces the
    /// sequential path; `None` (the default) uses all cores. Output is
    /// bit-identical either way.
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Pins the records-per-segment of the sets this sketcher *creates*
    /// (rounded up to a power of two; appends to an existing set keep
    /// that set's geometry). The default — 512, or the
    /// `PLASMA_SEGMENT_RECORDS` override — suits production; tests pin
    /// small capacities to exercise many-segment layouts. Sketch bytes
    /// and probe outputs are identical at every capacity.
    pub fn with_segment_records(mut self, segment_records: usize) -> Self {
        self.segment_records = Some(segment_records);
        self
    }

    /// `log2` of the resolved records-per-segment for new sets.
    fn seg_shift(&self) -> u32 {
        resolve_segment_records(self.segment_records).trailing_zeros()
    }

    /// Number of hashes per sketch.
    pub fn n_hashes(&self) -> usize {
        self.n_hashes
    }

    /// The hash family.
    pub fn family(&self) -> LshFamily {
        self.family
    }

    /// Sketches every record, sharding across threads. Runtime is
    /// `O(records · nnz · n_hashes / threads)` with one streaming pass
    /// over each record's dimensions.
    pub fn sketch_all(&self, records: &[SparseVector]) -> SketchSet {
        let mut set =
            SketchSet::with_segments(self.family, self.n_hashes, self.seed, self.seg_shift());
        if records.is_empty() {
            return set;
        }
        let buf = self.sketch_batch_words(records);
        set.append_words(&buf, records.len());
        set
    }

    /// Sketches a batch into one flat record-major buffer, sharding
    /// across threads into disjoint slices — the kernel half shared by
    /// [`sketch_all`](Self::sketch_all) and
    /// [`extend_batch`](Self::extend_batch). Keeping the parallel write
    /// target flat (and copying into the segmented store afterwards, an
    /// O(batch) move) means thread sharding never interacts with segment
    /// boundaries, so outputs stay bit-identical at every
    /// (threads × segment capacity) combination.
    fn sketch_batch_words(&self, records: &[SparseVector]) -> Vec<u64> {
        let k = records.len();
        let stride = SketchSet::stride_for(self.family, self.n_hashes);
        let mut buf = vec![0u64; k * stride];
        let threads = self.threads_for(k).min(k);
        if threads <= 1 {
            self.sketch_shard(records, &mut buf);
        } else {
            let shard_records = k.div_ceil(threads);
            buf.par_chunks_mut(shard_records * stride)
                .enumerate_for_each(|shard, slice| {
                    let lo = shard * shard_records;
                    let hi = (lo + shard_records).min(k);
                    self.sketch_shard(&records[lo..hi], slice);
                });
        }
        buf
    }

    /// Appends one record's sketch to `set`. The per-dim hash scratch
    /// (spread/dot buffers) is hoisted into a thread-local and reused
    /// across calls, the same way the bulk kernels hoist it across a
    /// shard's records — a record-at-a-time ingest loop allocates once
    /// per thread, not once per record. Does not touch
    /// [`SketchSet::epoch`]; versioned growth goes through
    /// [`extend_batch`](Self::extend_batch).
    pub fn sketch_into(&self, record: &SparseVector, set: &mut SketchSet) {
        debug_assert_eq!(set.family, self.family);
        debug_assert_eq!(set.n_hashes, self.n_hashes);
        debug_assert_eq!(set.seed, self.seed, "hash seed mismatch in sketch_into");
        APPEND_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            s.words.clear();
            s.words.resize(set.stride, 0);
            match self.family {
                LshFamily::MinHash => {
                    minhash_lanes(record, &self.lane_keys, &mut s.words, &mut s.spreads);
                }
                LshFamily::SimHash => {
                    simhash_lanes(record, &self.lane_keys, 0, &mut s.words, &mut s.dots);
                }
            }
            set.append_words(&s.words, 1);
        });
    }

    /// Appends a batch of records to an existing set — the amortized
    /// streaming-ingest form of [`sketch_into`](Self::sketch_into). New
    /// records are sketched in parallel into pre-sized disjoint slices of
    /// the flat buffer (same dim-outer kernels and sharding as
    /// [`sketch_all`](Self::sketch_all)); existing sketches are untouched
    /// byte for byte, so the grown set is an exact prefix-extension of
    /// the old one and every memo over old pairs stays valid. Each
    /// non-empty batch advances [`SketchSet::epoch`] by one; an empty
    /// batch is a no-op that leaves the epoch alone.
    ///
    /// The appended sketches are bit-identical to both one-at-a-time
    /// `sketch_into` appends and a from-scratch
    /// [`sketch_all`](Self::sketch_all) over the full corpus, at every
    /// thread count.
    ///
    /// ```
    /// use plasma_data::vector::SparseVector;
    /// use plasma_lsh::family::LshFamily;
    /// use plasma_lsh::sketch::Sketcher;
    ///
    /// let records: Vec<SparseVector> = (0..6)
    ///     .map(|i| SparseVector::from_set(vec![i, i + 1, i + 2]))
    ///     .collect();
    /// let sketcher = Sketcher::new(LshFamily::MinHash, 32, 7);
    ///
    /// let mut grown = sketcher.sketch_all(&records[..4]);
    /// assert_eq!(grown.epoch(), 0);
    /// sketcher.extend_batch(&records[4..], &mut grown);
    /// assert_eq!((grown.len(), grown.epoch()), (6, 1));
    ///
    /// // Bit-identical to sketching the full corpus in one pass.
    /// let bulk = sketcher.sketch_all(&records);
    /// assert!(bulk.is_prefix_of(&grown) && grown.is_prefix_of(&bulk));
    ///
    /// // Empty batches are no-ops: no growth, no epoch bump.
    /// sketcher.extend_batch(&[], &mut grown);
    /// assert_eq!((grown.len(), grown.epoch()), (6, 1));
    /// ```
    pub fn extend_batch(&self, new_records: &[SparseVector], set: &mut SketchSet) {
        assert_eq!(set.family, self.family, "family mismatch in extend_batch");
        assert_eq!(
            set.n_hashes, self.n_hashes,
            "n_hashes mismatch in extend_batch"
        );
        assert_eq!(
            set.seed, self.seed,
            "hash seed mismatch in extend_batch: appending with a different \
             seed would mix hash universes and poison every cross-batch pair"
        );
        let k = new_records.len();
        if k == 0 {
            return;
        }
        // Sketch the batch into a flat scratch buffer (parallel, disjoint
        // slices), then move it into the segmented store: O(batch) total,
        // independent of how many records the set already holds. Existing
        // sealed segments and tail bytes are untouched.
        let buf = self.sketch_batch_words(new_records);
        set.append_words(&buf, k);
        set.epoch += 1;
    }

    /// Sequentially sketches a contiguous shard of records into its
    /// pre-sized slice of the flat buffer.
    fn sketch_shard(&self, records: &[SparseVector], out: &mut [u64]) {
        let stride = SketchSet::stride_for(self.family, self.n_hashes);
        let mut scratch = Scratch::default();
        for (k, record) in records.iter().enumerate() {
            self.sketch_record(record, &mut out[k * stride..(k + 1) * stride], &mut scratch);
        }
    }

    /// Sketches one record into its (zeroed) output slice. `scratch`
    /// holds the reusable spread/dot buffers so a shard allocates once,
    /// not once per record.
    fn sketch_record(&self, record: &SparseVector, out: &mut [u64], scratch: &mut Scratch) {
        match self.family {
            LshFamily::MinHash => minhash_lanes(record, &self.lane_keys, out, &mut scratch.spreads),
            LshFamily::SimHash => simhash_lanes(record, &self.lane_keys, 0, out, &mut scratch.dots),
        }
    }

    /// Extends an existing sketch set to `new_n` hashes per record,
    /// recomputing only the added hashes. Because every hash position is
    /// keyed independently, the extended set's prefix is bit-identical to
    /// the original — so cached `(m, n)` pair memos remain valid and the
    /// knowledge cache can grow its resolution instead of rebuilding
    /// (§2.2.1's re-use across iterations, applied to sketches).
    pub fn extend_sketches(
        &self,
        records: &[SparseVector],
        existing: &SketchSet,
        new_n: usize,
    ) -> SketchSet {
        assert_eq!(existing.family, self.family);
        assert_eq!(existing.seed, self.seed, "hash seed mismatch");
        assert_eq!(
            existing.len(),
            records.len(),
            "record/sketch count mismatch"
        );
        assert!(
            new_n >= existing.n_hashes,
            "extension cannot shrink a sketch ({new_n} < {})",
            existing.n_hashes
        );
        let n = records.len();
        let old_n = existing.n_hashes;
        let tail_keys = lane_keys(self.family, self.seed, old_n, new_n);
        let mut out = SketchSet::with_segments(self.family, new_n, self.seed, self.seg_shift());
        // Same corpus, higher resolution: the growth lineage carries over.
        out.epoch = existing.epoch;
        if n == 0 {
            return out;
        }
        let new_stride = out.stride;
        let mut buf = vec![0u64; n * new_stride];
        let threads = self.threads_for(n).min(n);
        let extend_shard = |lo: usize, records: &[SparseVector], slice: &mut [u64]| {
            let mut scratch = Scratch::default();
            for (k, record) in records.iter().enumerate() {
                let dst = &mut slice[k * new_stride..(k + 1) * new_stride];
                let old = existing.sketch(lo + k);
                dst[..old.len()].copy_from_slice(old);
                match self.family {
                    LshFamily::MinHash => {
                        minhash_lanes(record, &tail_keys, &mut dst[old_n..], &mut scratch.spreads);
                    }
                    LshFamily::SimHash => {
                        // Clear stale bits the old final word may carry
                        // past `old_n`, then pack the new lanes at their
                        // absolute positions.
                        if !old_n.is_multiple_of(64) {
                            dst[old_n / 64] &= (1u64 << (old_n % 64)) - 1;
                        }
                        simhash_lanes(record, &tail_keys, old_n, dst, &mut scratch.dots);
                    }
                }
            }
        };
        if threads <= 1 {
            extend_shard(0, records, &mut buf);
        } else {
            let shard_records = n.div_ceil(threads);
            buf.par_chunks_mut(shard_records * new_stride)
                .enumerate_for_each(|shard, slice| {
                    let lo = shard * shard_records;
                    let hi = (lo + shard_records).min(n);
                    extend_shard(lo, &records[lo..hi], slice);
                });
        }
        out.append_words(&buf, n);
        out
    }

    /// Thread count for a whole-dataset pass over `records` records.
    fn threads_for(&self, records: usize) -> usize {
        if records * self.n_hashes < MIN_PARALLEL_WORK {
            return 1;
        }
        resolve_parallelism(self.parallelism)
    }
}

/// The per-lane key schedule: `seed ^ h·MUL` for `h` in `[from, to)`.
fn lane_keys(family: LshFamily, seed: u64, from: usize, to: usize) -> Vec<u64> {
    let mul = match family {
        LshFamily::MinHash => MINHASH_LANE_MUL,
        LshFamily::SimHash => SIMHASH_LANE_MUL,
    };
    (from..to)
        .map(|h| seed ^ (h as u64).wrapping_mul(mul))
        .collect()
}

/// Reusable per-shard scratch buffers (dim spreads for MinHash, lane dot
/// products for SimHash, plus a one-record word staging buffer for the
/// append path).
#[derive(Default)]
struct Scratch {
    spreads: Vec<u64>,
    dots: Vec<f64>,
    words: Vec<u64>,
}

thread_local! {
    /// The append path's scratch, hoisted across [`Sketcher::sketch_into`]
    /// calls: a record-at-a-time ingest loop reuses one spread/dot/word
    /// buffer per thread instead of reallocating per record, mirroring the
    /// per-shard hoist of the bulk kernels.
    static APPEND_SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch {
            spreads: Vec::new(),
            dots: Vec::new(),
            words: Vec::new(),
        })
    };
}

/// Lanes per register block of the MinHash kernel: eight independent
/// mix chains saturate the multiplier ports while the running minima stay
/// in registers instead of round-tripping through the output slice.
const LANE_BLOCK: usize = 8;

/// Loop-inverted MinHash: the item-dependent hash half ([`spread_item`])
/// is computed once per dimension into `spreads` (the streaming pass that
/// replaces `O(nnz · n_hashes)` recomputation), then lane blocks of
/// [`LANE_BLOCK`] running minima consume it from registers.
fn minhash_lanes(record: &SparseVector, keys: &[u64], out: &mut [u64], spreads: &mut Vec<u64>) {
    debug_assert_eq!(keys.len(), out.len());
    spreads.clear();
    spreads.extend(record.dims().iter().map(|&d| spread_item(d)));
    let mut lane = 0;
    while lane < keys.len() {
        let end = (lane + LANE_BLOCK).min(keys.len());
        if end - lane == LANE_BLOCK {
            let block: &[u64; LANE_BLOCK] = keys[lane..end].try_into().expect("full block");
            let mut best = [u64::MAX; LANE_BLOCK];
            for &sp in spreads.iter() {
                for l in 0..LANE_BLOCK {
                    // A rarely-taken branch beats a conditional move: the
                    // minima stabilize after the first few dims, so the
                    // predictor removes the loop-carried dependency.
                    let v = keyed_hash_spread(block[l], sp);
                    if v < best[l] {
                        best[l] = v;
                    }
                }
            }
            out[lane..end].copy_from_slice(&best);
        } else {
            // Tail block (n_hashes not a multiple of LANE_BLOCK).
            for (slot, &key) in out[lane..end].iter_mut().zip(&keys[lane..end]) {
                let mut best = u64::MAX;
                for &sp in spreads.iter() {
                    best = best.min(keyed_hash_spread(key, sp));
                }
                *slot = best;
            }
        }
        lane += LANE_BLOCK;
    }
}

/// Dim-outer SimHash: one [`spread_item`] per dimension, all lanes' dot
/// products accumulated in the inner loop, then signs packed into `words`
/// starting at absolute bit position `first_lane`. Each lane's sum visits
/// dimensions in record order, so results match the lane-outer
/// formulation bit for bit.
fn simhash_lanes(
    record: &SparseVector,
    keys: &[u64],
    first_lane: usize,
    words: &mut [u64],
    dots: &mut Vec<f64>,
) {
    dots.clear();
    dots.resize(keys.len(), 0.0);
    for (d, w) in record.iter() {
        let spread = spread_item(d);
        for (acc, &key) in dots.iter_mut().zip(keys) {
            *acc += w * gaussian_from_hash(keyed_hash_spread(key, spread));
        }
    }
    for (k, &dot) in dots.iter().enumerate() {
        if dot >= 0.0 {
            let h = first_lane + k;
            words[h / 64] |= 1u64 << (h % 64);
        }
    }
}

/// Pseudo-random standard-normal component of a hyperplane at one
/// dimension, derived from the already-keyed hash `h` so planes never
/// need materializing (two 32-bit halves → Box–Muller).
#[inline]
fn gaussian_from_hash(h: u64) -> f64 {
    let u1 = (((h >> 32) as u32 as f64) + 1.0) / (u32::MAX as f64 + 2.0);
    let u2 = ((h as u32 as f64) + 0.5) / (u32::MAX as f64 + 1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Segmented storage of all sketches for a dataset.
///
/// Sketch words live in sealed, exactly-full, immutable `Arc<[u64]>`
/// segments plus one mutable tail, each a flat record-major run of
/// `segment_records` sketches (see the module docs for the lifecycle).
/// Cloning a set shares every sealed segment by reference and copies only
/// the tail — the O(segments + tail) epoch snapshot streaming ingest
/// relies on.
///
/// A set carries a monotone **epoch** counter versioning streamed growth:
/// freshly built sets start at epoch 0, and every non-empty
/// [`Sketcher::extend_batch`] advances it by one while leaving all prior
/// sketch bytes untouched. Consumers holding per-pair knowledge (the
/// knowledge cache) use the epoch to tell "the same corpus, grown" —
/// where memos over old pairs remain valid — from "a different corpus".
#[derive(Debug, Clone)]
pub struct SketchSet {
    family: LshFamily,
    n_hashes: usize,
    /// The hash seed the sketches were keyed with — carried so lineage
    /// checks ([`is_prefix_of`](Self::is_prefix_of), append asserts) can
    /// refuse to mix hash universes.
    seed: u64,
    stride: usize,
    records: usize,
    epoch: u64,
    /// `log2` of records per segment; power-of-two capacity makes
    /// record→segment indexing a shift and a mask.
    seg_shift: u32,
    /// Sealed segments, each exactly `1 << seg_shift` records of
    /// `stride` words. Immutable once sealed; shared across clones.
    sealed: Vec<Arc<[u64]>>,
    /// The mutable tail segment: `records % (1 << seg_shift)` records.
    /// Sealing is eager, so the tail is always strictly under capacity.
    tail: Vec<u64>,
}

impl SketchSet {
    fn stride_for(family: LshFamily, n_hashes: usize) -> usize {
        match family {
            LshFamily::MinHash => n_hashes,
            LshFamily::SimHash => n_hashes.div_ceil(64),
        }
    }

    /// An empty appendable set with `1 << seg_shift` records per segment.
    fn with_segments(family: LshFamily, n_hashes: usize, seed: u64, seg_shift: u32) -> Self {
        let stride = Self::stride_for(family, n_hashes);
        Self {
            family,
            n_hashes,
            seed,
            stride,
            records: 0,
            epoch: 0,
            seg_shift,
            sealed: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// An empty appendable set (used by streaming callers). `seed` is the
    /// hash seed of the [`Sketcher`] that will fill it. Segment capacity
    /// is the process default ([`resolve_segment_records`]).
    pub fn empty(family: LshFamily, n_hashes: usize, seed: u64) -> Self {
        Self::with_segments(
            family,
            n_hashes,
            seed,
            resolve_segment_records(None).trailing_zeros(),
        )
    }

    /// Words per segment (`segment_records · stride`).
    #[inline]
    fn seg_words(&self) -> usize {
        (1usize << self.seg_shift) * self.stride
    }

    /// Moves a flat record-major batch of `k` sketches into the store:
    /// fill the tail, seal it the moment it reaches capacity, repeat.
    /// O(batch) — existing sealed segments are never touched, and sealing
    /// cost amortizes to O(1) per word appended.
    fn append_words(&mut self, mut src: &[u64], k: usize) {
        debug_assert_eq!(src.len(), k * self.stride);
        let seg_words = self.seg_words();
        while !src.is_empty() {
            let take = (seg_words - self.tail.len()).min(src.len());
            self.tail.extend_from_slice(&src[..take]);
            src = &src[take..];
            if self.tail.len() == seg_words {
                let full = std::mem::replace(&mut self.tail, Vec::with_capacity(seg_words));
                self.sealed.push(Arc::from(full));
            }
        }
        self.records += k;
    }

    /// Sketch words per record for a `(family, n_hashes)` shape — the
    /// flat-storage stride. Exposed so serializers (the durable snapshot
    /// writer) can size and validate word payloads without poking at
    /// storage internals.
    pub fn words_per_record(family: LshFamily, n_hashes: usize) -> usize {
        Self::stride_for(family, n_hashes)
    }

    /// The store's word runs in flat record-major order: every sealed
    /// segment, then the mutable tail. Concatenating the yielded slices
    /// reproduces exactly `len() · words_per_record` words — the byte
    /// payload a durable snapshot persists, and the input
    /// [`from_words`](Self::from_words) restores from.
    pub fn word_segments(&self) -> impl Iterator<Item = &[u64]> {
        self.sealed
            .iter()
            .map(|s| &s[..])
            .chain(std::iter::once(&self.tail[..]))
    }

    /// Restores a set from its flat record-major words — the durable
    /// snapshot loader. The result is byte-identical to the set whose
    /// [`word_segments`](Self::word_segments) produced `words`, including
    /// its growth `epoch` and segment geometry, so lineage checks
    /// ([`is_prefix_of`](Self::is_prefix_of)) and epoch-gated cache growth
    /// behave exactly as they would against the original.
    ///
    /// # Panics
    ///
    /// Panics when `words.len()` is not exactly
    /// `records · words_per_record(family, n_hashes)`; callers restoring
    /// untrusted bytes must validate the length first (the durable loader
    /// does, returning a structured error instead).
    pub fn from_words(
        family: LshFamily,
        n_hashes: usize,
        seed: u64,
        segment_records: usize,
        epoch: u64,
        records: usize,
        words: &[u64],
    ) -> SketchSet {
        let stride = Self::stride_for(family, n_hashes);
        assert_eq!(
            words.len(),
            records * stride,
            "snapshot words mismatch: {} words cannot hold {records} records \
             of stride {stride}",
            words.len()
        );
        let mut set = Self::with_segments(
            family,
            n_hashes,
            seed,
            resolve_segment_records(Some(segment_records)).trailing_zeros(),
        );
        set.append_words(words, records);
        set.epoch = epoch;
        set
    }

    /// Number of sketched records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when no records have been sketched.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Hashes per record.
    pub fn n_hashes(&self) -> usize {
        self.n_hashes
    }

    /// The growth epoch: 0 for a freshly built set, advanced by one for
    /// every non-empty [`Sketcher::extend_batch`]. Single-record
    /// [`Sketcher::sketch_into`] appends do not version the set.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The hash seed this set's sketches were keyed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when `other` extends this set byte for byte: same family,
    /// hash count, and hash seed, at least as many records, and every one
    /// of this set's sketch words identical at the same position. This is the invariant
    /// a knowledge cache checks before carrying pair memos across an
    /// epoch bump — old-pair memos are valid against the grown set
    /// exactly because the old sketches are unchanged.
    ///
    /// When both sets share segment geometry — the streaming-ingest case,
    /// where the grown set is a clone of the old snapshot — sealed
    /// segments are compared by `Arc` pointer first, so the lineage check
    /// is O(segments + tail) instead of O(corpus). Byte comparison is the
    /// fallback for independently built (or differently segmented) sets.
    pub fn is_prefix_of(&self, other: &SketchSet) -> bool {
        if !(self.family == other.family
            && self.n_hashes == other.n_hashes
            && self.seed == other.seed
            && self.records <= other.records)
        {
            return false;
        }
        if self.seg_shift == other.seg_shift {
            // `records <= other.records` ⇒ every sealed segment of self
            // has a counterpart at the same index in other.
            for (a, b) in self.sealed.iter().zip(&other.sealed) {
                if !(Arc::ptr_eq(a, b) || a[..] == b[..]) {
                    return false;
                }
            }
            return other.words_match(self.sealed.len() * self.seg_words(), &self.tail);
        }
        // Different segment geometries: walk this set's flat word order
        // against the other's layout, chunk by chunk.
        let mut start = 0;
        for seg in &self.sealed {
            if !other.words_match(start, seg) {
                return false;
            }
            start += seg.len();
        }
        other.words_match(start, &self.tail)
    }

    /// True when `expect` equals this set's words at flat positions
    /// `[start, start + expect.len())` (record-major order), walking
    /// across segment boundaries.
    fn words_match(&self, mut start: usize, mut expect: &[u64]) -> bool {
        let seg_words = self.seg_words();
        while !expect.is_empty() {
            let (seg, off) = (start / seg_words, start % seg_words);
            let words: &[u64] = if seg < self.sealed.len() {
                &self.sealed[seg]
            } else if seg == self.sealed.len() {
                &self.tail
            } else {
                return false;
            };
            if off >= words.len() {
                return false;
            }
            let take = (words.len() - off).min(expect.len());
            if words[off..off + take] != expect[..take] {
                return false;
            }
            start += take;
            expect = &expect[take..];
        }
        true
    }

    /// The hash family.
    pub fn family(&self) -> LshFamily {
        self.family
    }

    /// Records per sealed segment (a power of two).
    pub fn segment_records(&self) -> usize {
        1 << self.seg_shift
    }

    /// Number of sealed (immutable, `Arc`-shared) segments.
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// Bytes a snapshot clone actually copies: the mutable tail plus one
    /// `Arc` pointer per sealed segment. Bounded by the segment size —
    /// O(segments + tail), not O(corpus) — which is what makes streaming
    /// ingest's per-epoch snapshot cheap (`repro bench` records this as
    /// `ingest_scaling.snapshot_clone_bytes`).
    pub fn snapshot_clone_bytes(&self) -> usize {
        self.tail.len() * std::mem::size_of::<u64>()
            + self.sealed.len() * std::mem::size_of::<Arc<[u64]>>()
    }

    /// Raw sketch words of record `i` — contiguous within its segment,
    /// located with a shift and a mask.
    #[inline]
    pub fn sketch(&self, i: usize) -> &[u64] {
        let seg = i >> self.seg_shift;
        let off = (i & (self.segment_records() - 1)) * self.stride;
        let words: &[u64] = if seg < self.sealed.len() {
            &self.sealed[seg]
        } else {
            &self.tail
        };
        &words[off..off + self.stride]
    }

    /// Counts matching hashes between records `i` and `j` among the first
    /// `n` hashes (`n ≤ n_hashes`).
    pub fn matches(&self, i: usize, j: usize, n: usize) -> u32 {
        debug_assert!(n <= self.n_hashes);
        let a = self.sketch(i);
        let b = self.sketch(j);
        match self.family {
            LshFamily::MinHash => {
                let mut m = 0u32;
                for k in 0..n {
                    if a[k] == b[k] {
                        m += 1;
                    }
                }
                m
            }
            LshFamily::SimHash => {
                let mut mismatches = 0u32;
                let full_words = n / 64;
                for w in 0..full_words {
                    mismatches += (a[w] ^ b[w]).count_ones();
                }
                let rem = n % 64;
                if rem > 0 {
                    let mask = (1u64 << rem) - 1;
                    mismatches += ((a[full_words] ^ b[full_words]) & mask).count_ones();
                }
                n as u32 - mismatches
            }
        }
    }

    /// Counts matching hashes between records `i` and `j` at positions
    /// `[from, to)`, so callers holding a memoized prefix count extend it
    /// incrementally instead of rescanning from position zero:
    /// `matches(i, j, to) == matches(i, j, from) + matches_range(i, j, from, to)`,
    /// exactly. This is what lets the knowledge cache resume a pair's
    /// comparison from its deepest memoized batch step.
    pub fn matches_range(&self, i: usize, j: usize, from: usize, to: usize) -> u32 {
        debug_assert!(from <= to && to <= self.n_hashes);
        let a = self.sketch(i);
        let b = self.sketch(j);
        match self.family {
            LshFamily::MinHash => {
                let mut m = 0u32;
                for k in from..to {
                    if a[k] == b[k] {
                        m += 1;
                    }
                }
                m
            }
            LshFamily::SimHash => {
                if from == to {
                    return 0;
                }
                let mut mismatches = 0u32;
                let first_word = from / 64;
                let last_word = (to - 1) / 64;
                for w in first_word..=last_word {
                    let mut bits = a[w] ^ b[w];
                    if w == first_word && !from.is_multiple_of(64) {
                        bits &= !((1u64 << (from % 64)) - 1);
                    }
                    if w == last_word && !to.is_multiple_of(64) {
                        bits &= (1u64 << (to % 64)) - 1;
                    }
                    mismatches += bits.count_ones();
                }
                (to - from) as u32 - mismatches
            }
        }
    }

    /// Bytes consumed by the sketch words across all segments (reported
    /// by Fig. 2.9-style accounting) — `records · stride · 8`, exactly
    /// what the flat store reported.
    pub fn byte_size(&self) -> usize {
        (self.sealed.len() * self.seg_words() + self.tail.len()) * std::mem::size_of::<u64>()
    }

    /// Min-hash value of record `i` at hash position `h` (MinHash only);
    /// used by banding-based candidate generation.
    pub fn minhash_value(&self, i: usize, h: usize) -> u64 {
        debug_assert_eq!(self.family, LshFamily::MinHash);
        self.sketch(i)[h]
    }

    /// Fills `out[k]` with the band key of record `first + k` — the bulk
    /// form of [`band_key`](Self::band_key) the banded join's sharded
    /// bucket build streams into disjoint slices of its flat key table
    /// (one contiguous record range per worker).
    pub fn band_keys_into(&self, band: usize, band_width: usize, first: usize, out: &mut [u64]) {
        debug_assert!(first + out.len() <= self.records);
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.band_key(first + k, band, band_width);
        }
    }

    /// `band_width` consecutive hashes starting at `band * band_width`,
    /// mixed into one u64 band key (both families).
    pub fn band_key(&self, i: usize, band: usize, band_width: usize) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        // Resolve the record's segment once; the per-lane reads then
        // index a plain slice (this is the hot loop of the banded join's
        // key build).
        let sk = self.sketch(i);
        match self.family {
            LshFamily::MinHash => {
                let hi = ((band + 1) * band_width).min(self.n_hashes);
                for &w in &sk[band * band_width..hi] {
                    acc = (acc ^ w).wrapping_mul(0x1000_0000_01b3);
                }
            }
            LshFamily::SimHash => {
                for h in band * band_width..((band + 1) * band_width).min(self.n_hashes) {
                    let bit = (sk[h / 64] >> (h % 64)) & 1;
                    acc = (acc ^ bit).wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_data::hash::keyed_hash;
    use plasma_data::rng::seeded;
    use plasma_data::similarity::{cosine, jaccard};
    use rand::Rng;

    fn random_set(rng: &mut impl Rng, universe: u32, len: usize) -> SparseVector {
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(rng.gen_range(0..universe));
        }
        SparseVector::from_set(items)
    }

    #[test]
    fn minhash_match_rate_estimates_jaccard() {
        let mut rng = seeded(1);
        let a = random_set(&mut rng, 1000, 120);
        let b = {
            // Overlap: share a's first half.
            let mut items: Vec<u32> = a.dims()[..60].to_vec();
            items.extend((0..60).map(|_| rng.gen_range(1000..2000)));
            SparseVector::from_set(items)
        };
        let truth = jaccard(&a, &b);
        let sk = Sketcher::new(LshFamily::MinHash, 512, 7).sketch_all(&[a, b]);
        let m = sk.matches(0, 1, 512) as f64 / 512.0;
        assert!(
            (m - truth).abs() < 0.07,
            "minhash rate {m} vs jaccard {truth}"
        );
    }

    #[test]
    fn simhash_match_rate_estimates_cosine() {
        let a = SparseVector::from_dense(&[1.0, 2.0, 3.0, 0.5, -1.0]);
        let b = SparseVector::from_dense(&[1.1, 1.9, 2.7, 0.7, -0.4]);
        let truth = cosine(&a, &b);
        let sk = Sketcher::new(LshFamily::SimHash, 2048, 3).sketch_all(&[a, b]);
        let rate = sk.matches(0, 1, 2048) as f64 / 2048.0;
        let est = LshFamily::SimHash.similarity_from_match_rate(rate);
        assert!(
            (est - truth).abs() < 0.08,
            "simhash estimate {est} vs cosine {truth}"
        );
    }

    #[test]
    fn identical_records_match_everywhere() {
        let v = SparseVector::from_dense(&[0.3, -2.0, 1.0]);
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let sk = Sketcher::new(fam, 96, 5).sketch_all(&[v.clone(), v.clone()]);
            assert_eq!(sk.matches(0, 1, 96), 96);
        }
    }

    #[test]
    fn prefix_matches_consistent() {
        let mut rng = seeded(2);
        let a = random_set(&mut rng, 500, 40);
        let b = random_set(&mut rng, 500, 40);
        let sk = Sketcher::new(LshFamily::SimHash, 256, 9).sketch_all(&[a, b]);
        let mut prev = 0;
        for n in [32, 64, 100, 200, 256] {
            let m = sk.matches(0, 1, n);
            assert!(m >= prev, "match count must be monotone in prefix length");
            assert!(m <= n as u32);
            prev = m;
        }
    }

    #[test]
    fn range_matches_sum_to_prefix_matches() {
        let mut rng = seeded(4);
        let a = random_set(&mut rng, 500, 40);
        let b = random_set(&mut rng, 500, 45);
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let sk = Sketcher::new(fam, 200, 9).sketch_all(&[a.clone(), b.clone()]);
            // Arbitrary split points, including word-straddling ones.
            for splits in [
                vec![0, 200],
                vec![0, 32, 64, 200],
                vec![0, 1, 63, 65, 129, 200],
            ] {
                let mut total = 0;
                for w in splits.windows(2) {
                    total += sk.matches_range(0, 1, w[0], w[1]);
                }
                assert_eq!(total, sk.matches(0, 1, 200), "{fam:?} splits {splits:?}");
            }
            assert_eq!(sk.matches_range(0, 1, 77, 77), 0);
        }
    }

    #[test]
    fn band_keys_agree_for_identical_sketches() {
        let v = SparseVector::from_set(vec![1, 5, 9]);
        let sk = Sketcher::new(LshFamily::MinHash, 64, 11).sketch_all(&[v.clone(), v]);
        for band in 0..8 {
            assert_eq!(sk.band_key(0, band, 8), sk.band_key(1, band, 8));
        }
    }

    #[test]
    fn dim_outer_kernel_matches_lane_outer_reference() {
        // The loop inversion must reproduce the textbook lane-outer values
        // exactly: same keyed hashes, same minima, same sign bits.
        let mut rng = seeded(77);
        let records: Vec<SparseVector> = (0..6).map(|_| random_set(&mut rng, 600, 50)).collect();
        let n_hashes = 100;
        let seed = 13;
        let sk = Sketcher::new(LshFamily::MinHash, n_hashes, seed).sketch_all(&records);
        for (i, r) in records.iter().enumerate() {
            for h in 0..n_hashes {
                let key = seed ^ (h as u64).wrapping_mul(MINHASH_LANE_MUL);
                let expect = r
                    .dims()
                    .iter()
                    .map(|&d| keyed_hash(key, d))
                    .min()
                    .unwrap_or(u64::MAX);
                assert_eq!(sk.minhash_value(i, h), expect, "record {i} lane {h}");
            }
        }
        let dense: Vec<SparseVector> = (0..4)
            .map(|k| SparseVector::from_dense(&[0.5 + k as f64, -1.0, 2.5, 0.1 * k as f64]))
            .collect();
        let sh = Sketcher::new(LshFamily::SimHash, 70, seed).sketch_all(&dense);
        for (i, r) in dense.iter().enumerate() {
            for h in 0..70usize {
                let key = seed ^ (h as u64).wrapping_mul(SIMHASH_LANE_MUL);
                let mut dot = 0.0f64;
                for (d, w) in r.iter() {
                    dot += w * gaussian_from_hash(keyed_hash(key, d));
                }
                let bit = (sh.sketch(i)[h / 64] >> (h % 64)) & 1;
                assert_eq!(bit == 1, dot >= 0.0, "record {i} lane {h}");
            }
        }
    }

    #[test]
    fn parallel_sketching_is_bit_identical() {
        let mut rng = seeded(123);
        let records: Vec<SparseVector> = (0..64).map(|_| random_set(&mut rng, 2000, 80)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let serial = Sketcher::new(fam, 192, 5)
                .with_parallelism(Some(1))
                .sketch_all(&records);
            for threads in [2, 3, 8] {
                let par = Sketcher::new(fam, 192, 5)
                    .with_parallelism(Some(threads))
                    .sketch_all(&records);
                for i in 0..records.len() {
                    assert_eq!(
                        par.sketch(i),
                        serial.sketch(i),
                        "{fam:?} with {threads} threads diverged at record {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_extension_is_bit_identical() {
        let mut rng = seeded(321);
        let records: Vec<SparseVector> = (0..48).map(|_| random_set(&mut rng, 900, 64)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let base = Sketcher::new(fam, 96, 9).sketch_all(&records);
            let serial = Sketcher::new(fam, 96, 9)
                .with_parallelism(Some(1))
                .extend_sketches(&records, &base, 256);
            let par = Sketcher::new(fam, 96, 9)
                .with_parallelism(Some(4))
                .extend_sketches(&records, &base, 256);
            for i in 0..records.len() {
                assert_eq!(par.sketch(i), serial.sketch(i), "{fam:?} record {i}");
            }
        }
    }

    #[test]
    fn sketch_into_append_matches_bulk() {
        let mut rng = seeded(55);
        let records: Vec<SparseVector> = (0..10).map(|_| random_set(&mut rng, 300, 30)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let sketcher = Sketcher::new(fam, 80, 3);
            let bulk = sketcher.sketch_all(&records);
            let mut appended = SketchSet::empty(fam, 80, 3);
            for r in &records {
                sketcher.sketch_into(r, &mut appended);
            }
            assert_eq!(appended.len(), bulk.len());
            for i in 0..records.len() {
                assert_eq!(appended.sketch(i), bulk.sketch(i), "{fam:?} record {i}");
            }
        }
    }

    #[test]
    fn extension_preserves_prefix_and_matches_fresh() {
        let mut rng = seeded(31);
        let records: Vec<SparseVector> = (0..8).map(|_| random_set(&mut rng, 800, 60)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let small = Sketcher::new(fam, 64, 9).sketch_all(&records);
            let extended = Sketcher::new(fam, 64, 9).extend_sketches(&records, &small, 192);
            let fresh = Sketcher::new(fam, 192, 9).sketch_all(&records);
            assert_eq!(extended.n_hashes(), 192);
            for i in 0..records.len() {
                for j in (i + 1)..records.len() {
                    // Prefix identical to the small sketches…
                    assert_eq!(
                        extended.matches(i, j, 64),
                        small.matches(i, j, 64),
                        "{fam:?} prefix mismatch"
                    );
                    // …and the whole thing identical to a fresh sketch.
                    assert_eq!(
                        extended.matches(i, j, 192),
                        fresh.matches(i, j, 192),
                        "{fam:?} full mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_batch_matches_bulk_and_append_paths() {
        let mut rng = seeded(77);
        let records: Vec<SparseVector> = (0..30).map(|_| random_set(&mut rng, 700, 40)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let sketcher = Sketcher::new(fam, 96, 5);
            let bulk = sketcher.sketch_all(&records);
            // Batch-extend in three uneven installments…
            let mut streamed = sketcher.sketch_all(&records[..7]);
            sketcher.extend_batch(&records[7..8], &mut streamed);
            sketcher.extend_batch(&records[8..21], &mut streamed);
            sketcher.extend_batch(&records[21..], &mut streamed);
            assert_eq!(streamed.len(), bulk.len());
            assert_eq!(streamed.epoch(), 3, "{fam:?}: one bump per batch");
            // …and one-at-a-time appends: all three paths byte-equal.
            let mut appended = SketchSet::empty(fam, 96, 5);
            for r in &records {
                sketcher.sketch_into(r, &mut appended);
            }
            for i in 0..records.len() {
                assert_eq!(streamed.sketch(i), bulk.sketch(i), "{fam:?} record {i}");
                assert_eq!(appended.sketch(i), bulk.sketch(i), "{fam:?} record {i}");
            }
            assert!(bulk.is_prefix_of(&streamed) && streamed.is_prefix_of(&bulk));
        }
    }

    #[test]
    fn extend_batch_is_bit_identical_at_every_thread_count() {
        let mut rng = seeded(88);
        let base: Vec<SparseVector> = (0..20).map(|_| random_set(&mut rng, 800, 50)).collect();
        let batch: Vec<SparseVector> = (0..37).map(|_| random_set(&mut rng, 800, 50)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let serial = {
                let sketcher = Sketcher::new(fam, 128, 3).with_parallelism(Some(1));
                let mut set = sketcher.sketch_all(&base);
                sketcher.extend_batch(&batch, &mut set);
                set
            };
            for threads in [2, 3, 8] {
                let sketcher = Sketcher::new(fam, 128, 3).with_parallelism(Some(threads));
                let mut set = sketcher.sketch_all(&base);
                sketcher.extend_batch(&batch, &mut set);
                assert_eq!(set.epoch(), 1);
                for i in 0..base.len() + batch.len() {
                    assert_eq!(
                        set.sketch(i),
                        serial.sketch(i),
                        "{fam:?} with {threads} threads diverged at record {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn append_then_bulk_equals_bulk_then_append() {
        // The satellite micro-assert: mixing the hoisted-scratch append
        // path with batch extension in either order produces byte-equal
        // sketch sets.
        let mut rng = seeded(99);
        let records: Vec<SparseVector> = (0..12).map(|_| random_set(&mut rng, 400, 35)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let sketcher = Sketcher::new(fam, 80, 11);
            // Append records 0..6 one at a time, then batch-extend 6..12.
            let mut append_first = SketchSet::empty(fam, 80, 11);
            for r in &records[..6] {
                sketcher.sketch_into(r, &mut append_first);
            }
            sketcher.extend_batch(&records[6..], &mut append_first);
            // Batch-extend 0..6 onto an empty set, then append 6..12.
            let mut bulk_first = SketchSet::empty(fam, 80, 11);
            sketcher.extend_batch(&records[..6], &mut bulk_first);
            for r in &records[6..] {
                sketcher.sketch_into(r, &mut bulk_first);
            }
            assert_eq!(append_first.len(), bulk_first.len());
            assert_eq!(append_first.epoch(), bulk_first.epoch());
            assert!(
                append_first.is_prefix_of(&bulk_first) && bulk_first.is_prefix_of(&append_first),
                "{fam:?}: orders must agree byte for byte"
            );
        }
    }

    #[test]
    fn zero_record_extend_batch_is_a_noop() {
        let mut rng = seeded(101);
        let records: Vec<SparseVector> = (0..5).map(|_| random_set(&mut rng, 300, 20)).collect();
        let sketcher = Sketcher::new(LshFamily::MinHash, 48, 2);
        let mut set = sketcher.sketch_all(&records);
        let reference = set.clone();
        sketcher.extend_batch(&[], &mut set);
        assert_eq!(set.len(), reference.len());
        assert_eq!(set.epoch(), 0, "an empty batch must not bump the epoch");
        assert!(reference.is_prefix_of(&set) && set.is_prefix_of(&reference));
    }

    #[test]
    fn prefix_check_rejects_diverged_sets() {
        let a = SparseVector::from_set(vec![1, 2, 3]);
        let b = SparseVector::from_set(vec![9, 10, 11]);
        let sketcher = Sketcher::new(LshFamily::MinHash, 32, 4);
        let small = sketcher.sketch_all(std::slice::from_ref(&a));
        let grown_same = sketcher.sketch_all(&[a.clone(), b.clone()]);
        let grown_other = sketcher.sketch_all(&[b, a]);
        assert!(small.is_prefix_of(&grown_same));
        assert!(!small.is_prefix_of(&grown_other), "reordered corpus");
        assert!(!grown_same.is_prefix_of(&small), "shrinking is not growth");
        let other_family = Sketcher::new(LshFamily::SimHash, 32, 4)
            .sketch_all(&[SparseVector::from_dense(&[1.0, 2.0])]);
        assert!(!other_family.is_prefix_of(&grown_same));
    }

    #[test]
    fn extension_to_same_size_is_identity() {
        let v = SparseVector::from_set(vec![1, 2, 3, 4, 5]);
        let records = vec![v.clone(), v];
        let sk = Sketcher::new(LshFamily::MinHash, 32, 2).sketch_all(&records);
        let ext = Sketcher::new(LshFamily::MinHash, 32, 2).extend_sketches(&records, &sk, 32);
        assert_eq!(ext.sketch(0), sk.sketch(0));
    }

    #[test]
    fn byte_size_accounts_storage() {
        let v = SparseVector::from_set(vec![1, 2]);
        let sk = Sketcher::new(LshFamily::MinHash, 16, 1).sketch_all(&[v.clone(), v]);
        assert_eq!(sk.byte_size(), 2 * 16 * 8);
        let v2 = SparseVector::from_dense(&[1.0]);
        let sk2 = Sketcher::new(LshFamily::SimHash, 128, 1).sketch_all(&[v2]);
        assert_eq!(sk2.byte_size(), 2 * 8);
    }

    #[test]
    fn segmented_store_is_bit_identical_to_near_flat_reference() {
        // A 4-record segment capacity (many segments) versus a capacity
        // larger than the corpus (everything in one tail — the flat
        // layout): every sketch byte-equal, including the exactly-full
        // boundary (16 = 4 segments, empty tail) and a 1-record tail.
        let mut rng = seeded(202);
        let records: Vec<SparseVector> = (0..17).map(|_| random_set(&mut rng, 600, 40)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            for n in [16usize, 17] {
                let segmented = Sketcher::new(fam, 96, 7)
                    .with_segment_records(4)
                    .sketch_all(&records[..n]);
                let flat = Sketcher::new(fam, 96, 7)
                    .with_segment_records(1 << 20)
                    .sketch_all(&records[..n]);
                assert_eq!(segmented.segment_records(), 4);
                assert_eq!(segmented.sealed_segments(), n / 4);
                assert_eq!(flat.sealed_segments(), 0);
                for i in 0..n {
                    assert_eq!(segmented.sketch(i), flat.sketch(i), "{fam:?} record {i}");
                }
                assert_eq!(segmented.byte_size(), flat.byte_size());
                // Lineage checks hold across segment geometries.
                assert!(segmented.is_prefix_of(&flat) && flat.is_prefix_of(&segmented));
            }
        }
    }

    #[test]
    fn snapshot_clone_shares_sealed_segments() {
        let mut rng = seeded(303);
        let records: Vec<SparseVector> = (0..21).map(|_| random_set(&mut rng, 500, 30)).collect();
        let sketcher = Sketcher::new(LshFamily::MinHash, 64, 3).with_segment_records(8);
        let set = sketcher.sketch_all(&records);
        assert_eq!(set.sealed_segments(), 2);
        // The clone copies only the tail (5 records) plus two pointers…
        let clone = set.clone();
        let expect = 5 * 64 * 8 + 2 * std::mem::size_of::<std::sync::Arc<[u64]>>();
        assert_eq!(set.snapshot_clone_bytes(), expect);
        assert!(set.snapshot_clone_bytes() < set.byte_size());
        // …and the shared segments let the lineage check run by pointer.
        assert!(set.is_prefix_of(&clone) && clone.is_prefix_of(&set));
        // Growing the clone seals new segments without touching the
        // original's — still a valid prefix, still pointer-shared.
        let mut grown = clone;
        sketcher.extend_batch(&records[..10], &mut grown);
        assert_eq!(grown.len(), 31);
        assert!(set.is_prefix_of(&grown));
        assert!(!grown.is_prefix_of(&set));
    }

    #[test]
    fn word_round_trip_restores_bit_identical_sets() {
        let mut rng = seeded(404);
        let records: Vec<SparseVector> = (0..13).map(|_| random_set(&mut rng, 400, 25)).collect();
        for fam in [LshFamily::MinHash, LshFamily::SimHash] {
            let mut set = Sketcher::new(fam, 48, 9)
                .with_segment_records(4)
                .sketch_all(&records);
            Sketcher::new(fam, 48, 9).extend_batch(&records[..3], &mut set);
            let words: Vec<u64> = set.word_segments().flatten().copied().collect();
            assert_eq!(
                words.len(),
                set.len() * SketchSet::words_per_record(fam, 48)
            );
            // Same geometry: byte-identical restore, epoch carried over.
            let same = SketchSet::from_words(fam, 48, 9, 4, set.epoch(), set.len(), &words);
            assert_eq!(same.epoch(), set.epoch());
            assert_eq!(same.len(), set.len());
            assert!(same.is_prefix_of(&set) && set.is_prefix_of(&same));
            for i in 0..set.len() {
                assert_eq!(same.sketch(i), set.sketch(i), "{fam:?} record {i}");
            }
            // Restoring under a different segment geometry still yields
            // the same sketch bytes (lineage checks cross geometries).
            let regrouped = SketchSet::from_words(fam, 48, 9, 64, set.epoch(), set.len(), &words);
            assert!(regrouped.is_prefix_of(&set) && set.is_prefix_of(&regrouped));
        }
    }

    #[test]
    #[should_panic(expected = "snapshot words mismatch")]
    fn from_words_rejects_wrong_payload_length() {
        let words = vec![0u64; 7];
        let _ = SketchSet::from_words(LshFamily::MinHash, 16, 1, 4, 0, 1, &words);
    }

    #[test]
    fn diverged_tail_fails_prefix_check_across_geometries() {
        let a = SparseVector::from_set(vec![1, 2, 3]);
        let b = SparseVector::from_set(vec![9, 10, 11]);
        for (small_cap, big_cap) in [(2usize, 64usize), (64, 2)] {
            let small = Sketcher::new(LshFamily::MinHash, 32, 4)
                .with_segment_records(small_cap)
                .sketch_all(&[a.clone(), b.clone(), a.clone()]);
            let other = Sketcher::new(LshFamily::MinHash, 32, 4)
                .with_segment_records(big_cap)
                .sketch_all(&[a.clone(), b.clone(), b.clone(), a.clone()]);
            assert!(
                !small.is_prefix_of(&other),
                "caps ({small_cap}, {big_cap}): record 2 diverged"
            );
            assert!(!other.is_prefix_of(&small), "shrinking is not growth");
        }
    }
}
