//! Candidate-pair generation for all-pairs similarity search.
//!
//! BayesLSH filters candidates; something must generate them. Two
//! strategies are provided:
//!
//! * **Exhaustive** — every unordered pair. Exact recall; quadratic. Used
//!   for small data and ground-truth comparisons.
//! * **Banded LSH** — records sharing any band of `w` consecutive hashes
//!   become candidates (the classic LSH-join). Recall at similarity `s` is
//!   `1 − (1 − p(s)^w)^b` with `b` bands, so band width tunes the
//!   threshold the join targets.
//!
//! # Skew-proof sharding
//!
//! Real high-dimensional corpora are heavy-tailed: one band key routinely
//! collects a large fraction of all records (near-duplicate clusters, a
//! dominant topic, degenerate band keys). A join that parallelizes only
//! *across* bands serializes on that hot bucket — the whole engine waits
//! on one worker enumerating `m·(m−1)/2` pairs. The banded join here
//! therefore shards **within** bands as well, in three phases:
//!
//! 1. **Bucket build** — band keys for all `bands × records` cells are
//!    computed into a flat table by record-sharded workers, then
//!    per-worker partial bucket maps are built over disjoint *key ranges*
//!    of each band (a multiplicative range partition of the `u64` key
//!    space), so no two workers ever own the same bucket.
//! 2. **Pair-range sharding** — every bucket's pair count is known up
//!    front (`m·(m−1)/2`, checked arithmetic). A [`ShardPolicy`] turns
//!    the bucket list into shards of bounded pair count: small buckets
//!    are grouped greedily, and a hot bucket is **split into disjoint
//!    triangular-index ranges** `[lo, hi)` over its pair enumeration —
//!    decoded back to `(row, col)` coordinates with exact integer
//!    arithmetic — so one dominant bucket fans out across every worker.
//! 3. **Dedup** — each shard emits a sorted duplicate-free run; runs are
//!    merged by the k-way heap dedup. The output is the sorted unique
//!    pair set, bit-identical to [`banded_sequential`] for every thread
//!    count and every policy.
//!
//! Cross-band duplicates are removed by the merge; within one band a
//! record holds exactly one key, so a band's pairs are duplicate-free by
//! construction and split shards need no per-shard dedup at all.
//!
//! # Epoch-persistent buckets
//!
//! For a *growing* corpus (streaming ingest), rebuilding every bucket on
//! every probe is `O(corpus)` work that re-derives identical state: a
//! record's band keys never change after ingest. [`BandBuckets`] caches
//! the per-band bucket maps and the canonical pair set across epochs, so
//! a post-ingest probe hashes only the new records and joins them against
//! the cached buckets — `O(new × bands)` instead of `O(corpus × bands)` —
//! while remaining bit-identical to a cold [`banded_sequential`] run.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use plasma_data::hash::FxHashMap;
use rayon::prelude::*;

use crate::resolve_parallelism;
use crate::sketch::SketchSet;

thread_local! {
    /// Reused band-key table, one per thread: every banded entry point
    /// needs a `bands × records`-shaped (or `records`-shaped) `u64`
    /// buffer, and an interactive session calls these entry points once
    /// per probe. Hoisting the buffer into thread-local scratch mirrors
    /// the `sketch_into` append scratch — steady-state probes allocate no
    /// key tables at all.
    static KEYS_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` over a zeroed `len`-word slice drawn from [`KEYS_SCRATCH`].
///
/// The vector is moved *out* of the thread-local for the duration of the
/// call (and returned afterwards), so `f` may hand disjoint sub-slices to
/// parallel workers without holding a `RefCell` borrow across threads.
fn with_key_scratch<R>(len: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    let mut keys = KEYS_SCRATCH.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
    keys.clear();
    keys.resize(len, 0);
    let out = f(&mut keys);
    KEYS_SCRATCH.with(|cell| *cell.borrow_mut() = keys);
    out
}

/// Exact capacity for [`exhaustive`], `n·(n−1)/2`, computed with checked
/// arithmetic: when the multiply would overflow `usize` (an allocation no
/// machine can satisfy anyway), the pre-reservation is skipped entirely
/// and `Vec` growth takes over.
fn exhaustive_capacity(n: usize) -> usize {
    n.checked_mul(n.saturating_sub(1)).map_or(0, |p| p / 2)
}

/// Generates all unordered pairs `(i, j)`, `i < j`.
pub fn exhaustive(n: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(exhaustive_capacity(n));
    for i in 0..n {
        for j in (i + 1)..n {
            out.push((i as u32, j as u32));
        }
    }
    out
}

/// How banded candidate generation splits bucket pairing across workers.
///
/// The policy bounds the pair count a single shard (one worker's unit of
/// pairing work) may carry. Small buckets are grouped until the budget
/// fills; a bucket that is both **hot** (at least
/// [`bucket_split_members`](Self::bucket_split_members) members) and over
/// budget is split into disjoint triangular pair ranges of at most
/// [`max_pairs_per_shard`](Self::max_pairs_per_shard) pairs each.
///
/// The policy never changes the candidate set — only how its generation
/// is distributed. [`banded_with_policy`] returns bit-identical output
/// for every policy and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Minimum member count for a bucket to be split-eligible. Buckets
    /// below this stay whole (grouped with neighbors), whatever their
    /// pair count. Must be at least 2.
    pub bucket_split_members: usize,
    /// Pair budget per shard. With the default policy every shard carries
    /// at most this many pairs; a custom policy whose
    /// `bucket_split_members` threshold exceeds the budget can leave an
    /// over-budget bucket whole in its own shard. Must be at least 1.
    pub max_pairs_per_shard: usize,
    /// When set (via [`ShardPolicy::adaptive`]), the numeric knobs above
    /// are placeholders: the join derives the real pair budget from the
    /// measured total pair count at plan time ([`Self::resolved_for`]),
    /// targeting [`TARGET_SHARDS_PER_WORKER`] shards per worker.
    adaptive: bool,
}

/// Shards the adaptive policy aims to hand each worker. More than one so
/// an unlucky hot shard cannot straggle the whole join; not many more, so
/// per-shard overhead (staging buffers, merge runs) stays negligible.
const TARGET_SHARDS_PER_WORKER: u64 = 3;

/// Floor for the adaptively derived pair budget: below ~1k pairs the
/// per-shard fixed costs dominate the pairing work itself.
const MIN_ADAPTIVE_PAIRS: u64 = 1 << 10;

/// Ceiling for the adaptively derived pair budget: bounds the largest
/// serial pairing run (and staging buffer) any worker can be handed, even
/// on enormous corpora.
const MAX_ADAPTIVE_PAIRS: u64 = 1 << 22;

impl Default for ShardPolicy {
    /// `bucket_split_members = 256`, `max_pairs_per_shard = 32 768`. A
    /// 256-member bucket holds 32 640 pairs, so with the defaults every
    /// shard is bounded by the pair budget.
    fn default() -> Self {
        Self {
            bucket_split_members: 256,
            max_pairs_per_shard: 32_768,
            adaptive: false,
        }
    }
}

impl ShardPolicy {
    /// A policy with explicit knobs.
    ///
    /// # Panics
    ///
    /// Panics when `bucket_split_members < 2` (a 1-member bucket has no
    /// pairs to split) or `max_pairs_per_shard == 0`.
    pub fn new(bucket_split_members: usize, max_pairs_per_shard: usize) -> Self {
        assert!(
            bucket_split_members >= 2,
            "buckets need at least 2 members to pair"
        );
        assert!(max_pairs_per_shard >= 1, "shards must hold at least 1 pair");
        Self {
            bucket_split_members,
            max_pairs_per_shard,
            adaptive: false,
        }
    }

    /// The sharding-off policy: every bucket stays whole and all buckets
    /// land in one shard — the parallel path degenerates to one worker
    /// pairing everything (bucket build still shards). Useful as the
    /// differential baseline and for measuring what sharding buys.
    pub fn never_split() -> Self {
        Self {
            bucket_split_members: usize::MAX,
            max_pairs_per_shard: usize::MAX,
            adaptive: false,
        }
    }

    /// The self-tuning policy: instead of a fixed pair budget, derive
    /// `max_pairs_per_shard` at plan time from the join's measured total
    /// pair count — `total_pairs / (workers × TARGET_SHARDS_PER_WORKER)`,
    /// clamped to `[2^10, 2^22]` — so small joins don't fragment into
    /// thousands of trivial shards and huge joins still load-balance.
    /// Every bucket is split-eligible (`bucket_split_members = 2`).
    ///
    /// Like every policy, this never changes the candidate set — only how
    /// its generation is distributed — so deriving the budget from the
    /// (thread-count-dependent) worker count is safe.
    pub fn adaptive() -> Self {
        Self {
            adaptive: true,
            ..Self::default()
        }
    }

    /// Whether this policy derives its pair budget at plan time.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Resolves an adaptive policy against a measured `total_pairs` and a
    /// `workers` count, returning the concrete fixed policy the shard
    /// planner runs with. Non-adaptive policies return themselves
    /// unchanged.
    pub fn resolved_for(self, total_pairs: u64, workers: usize) -> ShardPolicy {
        if !self.adaptive {
            return self;
        }
        let target_shards = (workers.max(1) as u64) * TARGET_SHARDS_PER_WORKER;
        let budget = (total_pairs / target_shards).clamp(MIN_ADAPTIVE_PAIRS, MAX_ADAPTIVE_PAIRS);
        ShardPolicy {
            bucket_split_members: 2,
            max_pairs_per_shard: budget as usize,
            adaptive: false,
        }
    }
}

/// Banded LSH candidate generation over a sketch set: `bands` bands of
/// `band_width` hashes each are read from the front of the sketches, and
/// records sharing a band key in the same bucket are paired (`parallelism`:
/// `None` = all cores, `Some(1)` = sequential). The output is the sorted
/// unique candidate set, bit-identical to
/// [`banded_sequential`] at every `(parallelism, policy)` combination —
/// pinned by `crates/lsh/tests/banded_differential.rs`.
pub fn banded_with_policy(
    sketches: &SketchSet,
    bands: usize,
    band_width: usize,
    parallelism: Option<usize>,
    policy: ShardPolicy,
) -> Vec<(u32, u32)> {
    let threads = resolve_parallelism(parallelism);
    if threads <= 1 || sketches.len() < 2 || bands == 0 {
        return banded_sequential(sketches, bands, band_width);
    }
    banded_sharded(sketches, bands, band_width, threads, policy)
}

/// The sequential reference: one pass per band into a reused bucket map
/// (capacity-hinted to the record count; member vectors are recycled
/// through a pool instead of reallocated per band), pairs accumulated
/// into one buffer, then a single global sort + dedup. This is the
/// canonical output every sharded configuration must reproduce exactly.
pub fn banded_sequential(sketches: &SketchSet, bands: usize, band_width: usize) -> Vec<(u32, u32)> {
    let n = sketches.len();
    let mut out: Vec<(u32, u32)> = Vec::new();
    if n < 2 || bands == 0 {
        return out;
    }
    with_key_scratch(n, |keys| {
        // Capacity hint: at most n distinct keys per band; the map (and the
        // recycled member vectors) are reused across every band.
        let mut buckets: FxHashMap<u64, Vec<u32>> =
            FxHashMap::with_capacity_and_hasher(n, Default::default());
        let mut pool: Vec<Vec<u32>> = Vec::new();
        for band in 0..bands {
            sketches.band_keys_into(band, band_width, 0, keys);
            for (i, &key) in keys.iter().enumerate() {
                buckets
                    .entry(key)
                    .or_insert_with(|| pool.pop().unwrap_or_default())
                    .push(i as u32);
            }
            for (_, mut members) in buckets.drain() {
                if members.len() >= 2 {
                    emit_bucket(&members, &mut out);
                }
                members.clear();
                pool.push(members);
            }
        }
    });
    out.sort_unstable();
    out.dedup();
    out
}

/// Shape of one band's bucket-and-shard structure under a policy, for
/// bench/telemetry introspection (`repro bench` publishes these as the
/// `banded_skew` fields). Computed from a sequential bucket build, so the
/// numbers are deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct BandedShardStats {
    /// Records in the sketch set.
    pub records: u64,
    /// Buckets with at least 2 members, across all bands.
    pub buckets: u64,
    /// Members of the largest single bucket.
    pub hot_bucket_members: u64,
    /// Pairs inside that largest bucket.
    pub hot_bucket_pairs: u64,
    /// Total pairs across all buckets (pre-dedup generation work).
    pub total_pairs: u64,
    /// Shards the policy produces.
    pub shards: u64,
    /// Pairs carried by the largest shard — the longest serial pairing
    /// any single worker can be handed. Sharding is doing its job when
    /// this stays near `max_pairs_per_shard` while `hot_bucket_pairs`
    /// dwarfs it.
    pub largest_shard_pairs: u64,
}

/// Computes [`BandedShardStats`] for a join configuration without
/// generating any pairs.
pub fn banded_shard_stats(
    sketches: &SketchSet,
    bands: usize,
    band_width: usize,
    policy: ShardPolicy,
) -> BandedShardStats {
    let n = sketches.len();
    let mut stats = BandedShardStats {
        records: n as u64,
        ..Default::default()
    };
    if n < 2 || bands == 0 {
        return stats;
    }
    let mut counts: FxHashMap<u64, usize> =
        FxHashMap::with_capacity_and_hasher(n, Default::default());
    let mut sizes: Vec<usize> = Vec::new();
    with_key_scratch(n, |keys| {
        for band in 0..bands {
            sketches.band_keys_into(band, band_width, 0, keys);
            for &key in keys.iter() {
                *counts.entry(key).or_insert(0) += 1;
            }
            sizes.extend(counts.drain().map(|(_, c)| c).filter(|&c| c >= 2));
        }
    });
    stats.buckets = sizes.len() as u64;
    for &m in &sizes {
        let pairs = bucket_pair_count(m);
        stats.total_pairs += pairs;
        if m as u64 > stats.hot_bucket_members {
            stats.hot_bucket_members = m as u64;
            stats.hot_bucket_pairs = pairs;
        }
    }
    // An adaptive policy is resolved against the process-default worker
    // count — the same count `banded` itself would use with
    // `parallelism: None` — so stats reflect the plan a default-threaded
    // join would run.
    let policy = policy.resolved_for(stats.total_pairs, resolve_parallelism(None));
    let shards = plan_shards(&sizes, policy);
    stats.shards = shards.len() as u64;
    stats.largest_shard_pairs = shards
        .iter()
        .map(|s| match *s {
            Shard::Whole { first, count } => sizes[first..first + count]
                .iter()
                .map(|&m| bucket_pair_count(m))
                .sum(),
            Shard::Slice { lo, hi, .. } => hi - lo,
        })
        .max()
        .unwrap_or(0);
    stats
}

/// One unit of pairing work in the sharded join.
#[derive(Debug, Clone, Copy)]
enum Shard {
    /// A run of consecutive whole buckets, grouped under the pair budget.
    Whole {
        /// Index of the first bucket in the group.
        first: usize,
        /// Number of consecutive buckets grouped.
        count: usize,
    },
    /// A triangular pair-index range `[lo, hi)` of one hot bucket.
    Slice {
        /// Index of the split bucket.
        bucket: usize,
        /// First pair index (inclusive).
        lo: u64,
        /// Last pair index (exclusive).
        hi: u64,
    },
}

/// `m·(m−1)/2` in `u128` intermediate arithmetic, so even a
/// `u32::MAX`-member bucket (the largest addressable with `u32` record
/// ids) cannot overflow en route to the `u64` result.
fn bucket_pair_count(members: usize) -> u64 {
    let m = members as u128;
    u64::try_from(m * m.saturating_sub(1) / 2).expect("bucket pair count overflows u64")
}

/// Pairs in triangular rows `< a` of an `m`-member bucket:
/// `a·(2m − a − 1)/2`, exact in `u128`.
fn tri_prefix(m: u64, a: u64) -> u64 {
    debug_assert!(a < m);
    let (m, a) = (m as u128, a as u128);
    (a * (2 * m - a - 1) / 2) as u64
}

/// Decodes linear pair index `t` of an `m`-member bucket's row-major
/// triangular enumeration back to `(row, col)`, `row < col < m`. Integer
/// binary search — no floating point, exact for every representable `t`.
fn tri_decode(m: u64, t: u64) -> (u64, u64) {
    debug_assert!(m >= 2 && t < bucket_pair_count(m as usize));
    let (mut lo, mut hi) = (0u64, m - 2);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if tri_prefix(m, mid) <= t {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo, lo + 1 + (t - tri_prefix(m, lo)))
}

/// Emits every pair of one bucket. Members arrive in ascending record
/// order, so the run appended is sorted and `i < j` holds by construction.
fn emit_bucket(members: &[u32], out: &mut Vec<(u32, u32)>) {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    out.reserve(bucket_pair_count(members.len()) as usize);
    for a in 0..members.len() {
        for b in (a + 1)..members.len() {
            out.push((members[a], members[b]));
        }
    }
}

/// Emits the triangular pair range `[lo, hi)` of one bucket: decode the
/// start coordinate once, then walk the enumeration. Sorted and
/// duplicate-free by construction.
fn emit_slice(members: &[u32], lo: u64, hi: u64, out: &mut Vec<(u32, u32)>) {
    if hi <= lo {
        return;
    }
    let m = members.len() as u64;
    out.reserve((hi - lo) as usize);
    let (mut a, mut b) = tri_decode(m, lo);
    for _ in lo..hi {
        out.push((members[a as usize], members[b as usize]));
        b += 1;
        if b == m {
            a += 1;
            b = a + 1;
        }
    }
}

/// The multiplicative range partition of the `u64` key space into
/// `partitions` contiguous ranges: workers own disjoint key ranges, so
/// partial bucket maps merge by concatenation.
fn key_partition(key: u64, partitions: usize) -> usize {
    ((key as u128 * partitions as u128) >> 64) as usize
}

/// Turns the bucket size list into shards under `policy`: consecutive
/// small buckets group greedily up to the pair budget; hot buckets split
/// into triangular ranges. Every bucket's pairs land in exactly one
/// shard's ranges, so shard runs partition the (band-local) pair set.
fn plan_shards(sizes: &[usize], policy: ShardPolicy) -> Vec<Shard> {
    let max_pairs = policy.max_pairs_per_shard.max(1) as u64;
    let mut shards = Vec::new();
    let (mut group_first, mut group_count, mut group_pairs) = (0usize, 0usize, 0u64);
    for (b, &m) in sizes.iter().enumerate() {
        let pairs = bucket_pair_count(m);
        if m >= policy.bucket_split_members && pairs > max_pairs {
            if group_count > 0 {
                shards.push(Shard::Whole {
                    first: group_first,
                    count: group_count,
                });
                group_count = 0;
                group_pairs = 0;
            }
            let mut lo = 0u64;
            while lo < pairs {
                let hi = (lo.saturating_add(max_pairs)).min(pairs);
                shards.push(Shard::Slice { bucket: b, lo, hi });
                lo = hi;
            }
        } else {
            if group_count > 0 && group_pairs.saturating_add(pairs) > max_pairs {
                shards.push(Shard::Whole {
                    first: group_first,
                    count: group_count,
                });
                group_count = 0;
                group_pairs = 0;
            }
            if group_count == 0 {
                group_first = b;
            }
            group_count += 1;
            group_pairs = group_pairs.saturating_add(pairs);
        }
    }
    if group_count > 0 {
        shards.push(Shard::Whole {
            first: group_first,
            count: group_count,
        });
    }
    shards
}

/// The sharded parallel join (phases 1–3 of the module docs). `threads`
/// is already resolved and `> 1`.
fn banded_sharded(
    sketches: &SketchSet,
    bands: usize,
    band_width: usize,
    threads: usize,
    policy: ShardPolicy,
) -> Vec<(u32, u32)> {
    let n = sketches.len();

    // Phases 1a + 1b run inside the thread-local key scratch (the table is
    // dead once buckets exist; it returns to the scratch slot, not the
    // allocator, so the next probe's build is allocation-free).
    let total = bands
        .checked_mul(n)
        .expect("band-key table size overflows usize");
    let buckets: Vec<Vec<u32>> = with_key_scratch(total, |keys| {
        // Phase 1a: the flat band-key table, record-sharded across workers
        // into disjoint slices.
        let key_chunk = total.div_ceil(threads);
        keys.par_chunks_mut(key_chunk)
            .enumerate_for_each(|chunk_idx, slice| {
                let mut idx = chunk_idx * key_chunk;
                let mut off = 0;
                while off < slice.len() {
                    let (band, first) = (idx / n, idx % n);
                    let take = (n - first).min(slice.len() - off);
                    sketches.band_keys_into(band, band_width, first, &mut slice[off..off + take]);
                    idx += take;
                    off += take;
                }
            });

        // Phase 1b: per-worker partial bucket maps over disjoint
        // (band, key-range) cells. When bands alone undersupply the workers,
        // each band's key space is range-partitioned so the bucket build
        // itself spreads out. The map (and its allocation) is reused across
        // one worker's cells; member vectors move out through `drain`.
        let partitions = threads.div_ceil(bands.min(threads));
        let cells: Vec<(usize, usize)> = (0..bands)
            .flat_map(|band| (0..partitions).map(move |p| (band, p)))
            .collect();
        let cell_chunk = cells.len().div_ceil(threads);
        let nested_buckets: Vec<Vec<Vec<u32>>> = cells
            .par_chunks(cell_chunk)
            .map(|chunk| {
                let mut local: Vec<Vec<u32>> = Vec::new();
                let mut map: FxHashMap<u64, Vec<u32>> =
                    FxHashMap::with_capacity_and_hasher(n / partitions + 1, Default::default());
                for &(band, p) in chunk {
                    let band_keys = &keys[band * n..(band + 1) * n];
                    if partitions == 1 {
                        for (i, &key) in band_keys.iter().enumerate() {
                            map.entry(key).or_default().push(i as u32);
                        }
                    } else {
                        for (i, &key) in band_keys.iter().enumerate() {
                            if key_partition(key, partitions) == p {
                                map.entry(key).or_default().push(i as u32);
                            }
                        }
                    }
                    local.extend(map.drain().map(|(_, m)| m).filter(|m| m.len() >= 2));
                }
                local
            })
            .collect();
        nested_buckets.into_iter().flatten().collect()
    });
    if buckets.is_empty() {
        return Vec::new();
    }

    // Phase 2: shard plan from the bucket sizes; an adaptive policy
    // derives its pair budget from the measured total here.
    let sizes: Vec<usize> = buckets.iter().map(Vec::len).collect();
    let total_pairs: u64 = sizes.iter().map(|&m| bucket_pair_count(m)).sum();
    let policy = policy.resolved_for(total_pairs, threads);
    let shards = plan_shards(&sizes, policy);

    // Phase 3: emit one sorted run per shard (worker-local staging buffer
    // reused across a worker's shards; emitted runs are exact-sized), then
    // k-way merge-dedup into the canonical sorted unique pair set.
    let shard_chunk = shards.len().div_ceil(threads);
    let nested_runs: Vec<Vec<Vec<(u32, u32)>>> = shards
        .par_chunks(shard_chunk)
        .map(|chunk| {
            let mut scratch: Vec<(u32, u32)> = Vec::new();
            let mut runs: Vec<Vec<(u32, u32)>> = Vec::with_capacity(chunk.len());
            for shard in chunk {
                scratch.clear();
                match *shard {
                    Shard::Whole { first, count } => {
                        for members in &buckets[first..first + count] {
                            emit_bucket(members, &mut scratch);
                        }
                        // Grouped buckets may interleave records and (across
                        // a band boundary) repeat a pair; canonicalize the
                        // run here so the merge sees sorted unique input.
                        scratch.sort_unstable();
                        scratch.dedup();
                    }
                    Shard::Slice { bucket, lo, hi } => {
                        emit_slice(&buckets[bucket], lo, hi, &mut scratch);
                    }
                }
                runs.push(scratch.as_slice().to_vec());
            }
            runs
        })
        .collect();
    kway_merge_dedup(nested_runs.into_iter().flatten().collect())
}

/// Merges sorted runs into one sorted, duplicate-free vector.
fn kway_merge_dedup(runs: Vec<Vec<(u32, u32)>>) -> Vec<(u32, u32)> {
    match runs.len() {
        0 => return Vec::new(),
        1 => return runs.into_iter().next().expect("one run"),
        _ => {}
    }
    let mut heap: BinaryHeap<Reverse<((u32, u32), usize)>> = BinaryHeap::new();
    let mut cursors = vec![0usize; runs.len()];
    for (r, run) in runs.iter().enumerate() {
        if let Some(&first) = run.first() {
            heap.push(Reverse((first, r)));
        }
    }
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(runs.iter().map(Vec::len).max().unwrap_or(0));
    while let Some(Reverse((pair, r))) = heap.pop() {
        if out.last() != Some(&pair) {
            out.push(pair);
        }
        cursors[r] += 1;
        if let Some(&next) = runs[r].get(cursors[r]) {
            heap.push(Reverse((next, r)));
        }
    }
    out
}

/// Epoch-persistent band buckets: the incremental alternative to
/// rebuilding every bucket map from scratch on each probe of a growing
/// corpus.
///
/// A record's band key depends only on its own sketch, so bucket
/// membership never changes once a record is ingested — an epoch that
/// appends `k` records only *adds* those records to existing (or new)
/// buckets. `BandBuckets` keeps one bucket map per band across epochs
/// plus the canonical sorted-unique pair set for everything covered so
/// far; [`extend_and_generate`](Self::extend_and_generate) hashes only
/// the records past the covered watermark (`O(new × bands)` key work),
/// pairs each against its bucket's prior members, and merges the fresh
/// pairs into the cached set. The result is bit-identical to
/// [`banded_sequential`] over the full corpus at every epoch — same
/// pairs, same canonical order — because both compute the sorted unique
/// union of per-bucket pair sets, and bucket contents are
/// probe-order-independent.
///
/// The cache is pure acceleration state: dropping it (capacity pressure,
/// shape change) only costs a cold rebuild, never a different answer.
#[derive(Debug)]
pub struct BandBuckets {
    bands: usize,
    band_width: usize,
    /// Records `[0, covered)` are already hashed into `maps` and paired
    /// into `pairs`.
    covered: usize,
    /// One `key → members` map per band; member lists are in ascending
    /// record order by construction (records are appended in id order).
    maps: Vec<FxHashMap<u64, Vec<u32>>>,
    /// Per-band rebuild watermark: records `[0, band_covered[b])` are
    /// hashed into `maps[b]`. Equals `covered` for warm bands; partial
    /// eviction clears a band's map and resets its watermark to 0, and
    /// the next extension re-buckets that band's prefix *silently* (its
    /// mutual pairs are already in `pairs`) before pairing new records.
    band_covered: Vec<usize>,
    /// Cumulative fresh pairs each band has contributed across all
    /// extensions — the coldness ranking partial eviction uses. Counts
    /// depend only on the ingest history (never on probe order or
    /// eviction), so eviction choices are deterministic.
    band_heat: Vec<u64>,
    /// The canonical sorted-unique candidate set for `[0, covered)`,
    /// shared with callers so a warm re-probe is one `Arc` clone.
    pairs: Arc<Vec<(u32, u32)>>,
    /// The fresh pairs produced by the most recent extension — exactly
    /// the candidates that touch a record in `delta_range` — sorted and
    /// deduplicated, shared so watch evaluation is one `Arc` clone.
    delta: Arc<Vec<(u32, u32)>>,
    /// The `[from, to)` record range `delta` covers: `from` was the
    /// watermark before the extension, `to` after.
    delta_range: (usize, usize),
    /// Estimated heap footprint (maps + member lists + pairs), refreshed
    /// after every extension so owners can byte-account the cache.
    bytes: usize,
}

impl BandBuckets {
    /// An empty cache for a `(bands, band_width)` join shape.
    pub fn new(bands: usize, band_width: usize) -> Self {
        let mut cache = Self {
            bands,
            band_width,
            covered: 0,
            maps: (0..bands).map(|_| FxHashMap::default()).collect(),
            band_covered: vec![0; bands],
            band_heat: vec![0; bands],
            pairs: Arc::new(Vec::new()),
            delta: Arc::new(Vec::new()),
            delta_range: (0, 0),
            bytes: 0,
        };
        cache.recount_bytes();
        cache
    }

    /// The join shape this cache was built for. A probe with a different
    /// shape must rebuild from scratch.
    pub fn matches_shape(&self, bands: usize, band_width: usize) -> bool {
        self.bands == bands && self.band_width == band_width
    }

    /// Records already hashed and paired. A sketch snapshot with fewer
    /// records than this is *older* than the cache (pinned before a
    /// concurrent grow) and cannot be served from it.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Estimated heap bytes held by the cached maps, member lists, and
    /// pair set.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Extends the cache to cover all of `sketches` and returns the full
    /// canonical candidate set — bit-identical to
    /// `banded_sequential(sketches, bands, band_width)`.
    ///
    /// Warm path (`covered == sketches.len()`): one `Arc` clone, zero
    /// hashing. Incremental path: `O(new × bands)` band keys plus one
    /// linear merge of the fresh pairs into the cached set.
    ///
    /// # Panics
    ///
    /// Debug-asserts `covered() <= sketches.len()`; callers holding an
    /// older snapshot than the cache must take a cold path instead.
    pub fn extend_and_generate(&mut self, sketches: &SketchSet) -> Arc<Vec<(u32, u32)>> {
        let n = sketches.len();
        debug_assert!(
            self.covered <= n,
            "bucket cache covers {} records but the snapshot has {n}",
            self.covered
        );
        if self.covered == n || self.bands == 0 {
            return Arc::clone(&self.pairs);
        }
        let from = self.covered;
        let mut keys: Vec<u64> = Vec::new();
        let mut fresh: Vec<(u32, u32)> = Vec::new();
        for (band, map) in self.maps.iter_mut().enumerate() {
            // An evicted band restarts from watermark 0: its prefix
            // records re-join their buckets without emitting pairs
            // (those pairs are already in `pairs` — the same silent
            // prefix pass `banded_delta` does cold), so eviction can
            // never change outputs.
            let start = self.band_covered[band];
            keys.clear();
            keys.resize(n - start, 0);
            sketches.band_keys_into(band, self.band_width, start, &mut keys);
            let mut heat = 0u64;
            for (off, &key) in keys.iter().enumerate() {
                let r = (start + off) as u32;
                let members = map.entry(key).or_default();
                if start + off >= from {
                    // Every prior member has a smaller id, so (m, r) is
                    // already in canonical i < j orientation.
                    heat += members.len() as u64;
                    fresh.extend(members.iter().map(|&m| (m, r)));
                }
                members.push(r);
            }
            self.band_covered[band] = n;
            self.band_heat[band] += heat;
        }
        self.covered = n;
        fresh.sort_unstable();
        fresh.dedup();
        if !fresh.is_empty() {
            self.pairs = Arc::new(merge_sorted_unique(&self.pairs, &fresh));
        }
        self.delta = Arc::new(fresh);
        self.delta_range = (from, n);
        self.recount_bytes();
        Arc::clone(&self.pairs)
    }

    /// The new-records-only candidate slice of the most recent extension,
    /// if it covered exactly `[from, to)`: every cached pair that touches
    /// a record in that range, sorted unique — bit-identical to
    /// [`banded_delta`] over the same snapshot. Returns `None` when the
    /// cache's last extension covered a different range (the caller must
    /// fall back to the cold [`banded_delta`] path).
    pub fn delta_covering(&self, from: usize, to: usize) -> Option<Arc<Vec<(u32, u32)>>> {
        (self.delta_range == (from, to)).then(|| Arc::clone(&self.delta))
    }

    /// Number of bands whose bucket maps are currently resident (their
    /// watermark has kept up with `covered`). Bands partial eviction has
    /// cleared don't count until an extension rebuilds them.
    pub fn resident_bands(&self) -> usize {
        self.band_covered
            .iter()
            .filter(|&&w| w == self.covered && self.covered > 0)
            .count()
    }

    /// Partially evicts under memory pressure: clears the *coldest*
    /// bands' bucket maps — lowest cumulative fresh-pair contribution,
    /// ties broken by lower band index — until the estimated footprint
    /// fits `target_bytes`, keeping warm bands and the canonical
    /// pair/delta sets intact. Returns the number of bands evicted.
    ///
    /// Outputs are unaffected: an evicted band's watermark resets to 0,
    /// and the next extension re-buckets its prefix silently (no pair
    /// emission — see [`extend_and_generate`](Self::extend_and_generate)),
    /// so the cache keeps producing exactly the [`banded_sequential`]
    /// pair set. The cost of eviction is re-hashing the evicted bands'
    /// prefixes on the next growth — not a full cache rebuild. When even
    /// clearing every map cannot fit (the pair sets alone exceed the
    /// cap), the caller's final rung is dropping the whole cache.
    pub fn evict_coldest_bands(&mut self, target_bytes: usize) -> usize {
        let mut order: Vec<usize> = (0..self.bands).collect();
        order.sort_by_key(|&b| (self.band_heat[b], b));
        let mut evicted = 0;
        for &b in &order {
            if self.bytes <= target_bytes {
                break;
            }
            if self.maps[b].is_empty() && self.band_covered[b] == 0 {
                continue;
            }
            self.maps[b] = FxHashMap::default();
            self.band_covered[b] = 0;
            evicted += 1;
            self.recount_bytes();
        }
        evicted
    }

    /// Re-estimates the cache's heap footprint from current capacities.
    fn recount_bytes(&mut self) {
        let mut bytes = std::mem::size_of::<Self>();
        for map in &self.maps {
            bytes += map.capacity() * std::mem::size_of::<(u64, Vec<u32>)>();
            bytes += map
                .values()
                .map(|m| m.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>();
        }
        bytes += self.band_covered.capacity() * std::mem::size_of::<usize>();
        bytes += self.band_heat.capacity() * std::mem::size_of::<u64>();
        bytes += self.pairs.capacity() * std::mem::size_of::<(u32, u32)>();
        bytes += self.delta.capacity() * std::mem::size_of::<(u32, u32)>();
        self.bytes = bytes;
    }
}

/// The new-records-only slice of a banded join: every candidate pair that
/// touches a record in `[from, n)`, computed cold — prefix records
/// `[0, from)` only *populate* buckets (no pairs are emitted among them),
/// then each new record pairs against its bucket's prior members. Output
/// is sorted unique, bit-identical to filtering
/// `banded_sequential(sketches, bands, band_width)` down to pairs with
/// `j >= from` — the fallback [`BandBuckets::delta_covering`] equivalence
/// when no warm bucket cache covers the requested range (shape change,
/// capacity drop, or a watch registered against a cold cache).
pub fn banded_delta(
    sketches: &SketchSet,
    bands: usize,
    band_width: usize,
    from: usize,
) -> Vec<(u32, u32)> {
    let n = sketches.len();
    let mut out: Vec<(u32, u32)> = Vec::new();
    if n < 2 || bands == 0 || from >= n {
        return out;
    }
    with_key_scratch(n, |keys| {
        let mut buckets: FxHashMap<u64, Vec<u32>> =
            FxHashMap::with_capacity_and_hasher(n, Default::default());
        let mut pool: Vec<Vec<u32>> = Vec::new();
        for band in 0..bands {
            sketches.band_keys_into(band, band_width, 0, keys);
            // Prefix records join buckets silently: their mutual pairs
            // belong to earlier epochs, not this delta.
            for (i, &key) in keys[..from].iter().enumerate() {
                buckets
                    .entry(key)
                    .or_insert_with(|| pool.pop().unwrap_or_default())
                    .push(i as u32);
            }
            // New records pair against every prior member (all of which
            // have smaller ids, so (m, r) is canonical i < j), then join
            // the bucket themselves so new×new pairs are emitted too.
            for (off, &key) in keys[from..].iter().enumerate() {
                let r = (from + off) as u32;
                let members = buckets
                    .entry(key)
                    .or_insert_with(|| pool.pop().unwrap_or_default());
                out.extend(members.iter().map(|&m| (m, r)));
                members.push(r);
            }
            for (_, mut members) in buckets.drain() {
                members.clear();
                pool.push(members);
            }
        }
    });
    out.sort_unstable();
    out.dedup();
    out
}

/// Merges two sorted duplicate-free pair runs into one sorted
/// duplicate-free vector (two-cursor merge; exact-sized upper bound).
fn merge_sorted_unique(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Expected recall of a banded join at similarity `s`:
/// `1 − (1 − p(s)^w)^b`.
pub fn banded_recall(family: crate::family::LshFamily, s: f64, bands: usize, width: usize) -> f64 {
    let p = family.match_probability(s);
    1.0 - (1.0 - p.powi(width as i32)).powi(bands as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::LshFamily;
    use crate::sketch::Sketcher;
    use plasma_data::vector::SparseVector;

    #[test]
    fn exhaustive_counts() {
        assert_eq!(exhaustive(4).len(), 6);
        assert_eq!(exhaustive(0).len(), 0);
        assert_eq!(exhaustive(1).len(), 0);
    }

    #[test]
    fn exhaustive_capacity_is_exact_and_overflow_safe() {
        // Exact for representable sizes (matches the generated length)…
        for n in [0usize, 1, 2, 4, 100] {
            assert_eq!(exhaustive_capacity(n), exhaustive(n).len());
        }
        // …and degrades to no pre-reservation when n·(n−1) would overflow
        // usize, instead of panicking (debug) or requesting an absurd
        // allocation (release).
        for n in [usize::MAX, u32::MAX as usize + 2, 1 << 33] {
            assert_eq!(exhaustive_capacity(n), 0, "n = {n:#x}");
        }
        // Just below the overflow boundary the formula still computes.
        let n = 1usize << 32;
        assert_eq!(exhaustive_capacity(n), (n / 2) * (n - 1));
    }

    #[test]
    fn bucket_pair_count_is_exact_and_overflow_safe() {
        assert_eq!(bucket_pair_count(0), 0);
        assert_eq!(bucket_pair_count(1), 0);
        assert_eq!(bucket_pair_count(2), 1);
        assert_eq!(bucket_pair_count(1000), 499_500);
        // A u32::MAX-member bucket — the largest addressable with u32
        // record ids — computes without overflow:
        // (2^32 − 1)(2^32 − 2)/2 = 2^63 − 3·2^31 + 1.
        assert_eq!(
            bucket_pair_count(u32::MAX as usize),
            (1u64 << 63) - 3 * (1u64 << 31) + 1
        );
    }

    #[test]
    fn tri_decode_inverts_the_enumeration() {
        for m in [2u64, 3, 4, 7, 100] {
            let mut t = 0u64;
            for a in 0..m {
                for b in (a + 1)..m {
                    assert_eq!(tri_decode(m, t), (a, b), "m={m} t={t}");
                    t += 1;
                }
            }
            assert_eq!(t, bucket_pair_count(m as usize));
        }
    }

    #[test]
    fn emit_slice_ranges_tile_the_bucket() {
        let members: Vec<u32> = vec![3, 8, 11, 20, 21, 33, 40];
        let mut whole = Vec::new();
        emit_bucket(&members, &mut whole);
        let total = bucket_pair_count(members.len());
        for step in [1u64, 2, 5, total] {
            let mut tiled = Vec::new();
            let mut lo = 0;
            while lo < total {
                let hi = (lo + step).min(total);
                emit_slice(&members, lo, hi, &mut tiled);
                lo = hi;
            }
            assert_eq!(tiled, whole, "step {step}");
        }
    }

    #[test]
    fn plan_shards_bounds_every_shard_with_default_policy() {
        let policy = ShardPolicy::default();
        // One hot bucket (1000 members) among small ones.
        let sizes = vec![3usize, 1000, 2, 2, 300, 5];
        let shards = plan_shards(&sizes, policy);
        let hot_pairs = bucket_pair_count(1000);
        let max = policy.max_pairs_per_shard as u64;
        assert!(shards.len() as u64 >= hot_pairs / max);
        let mut covered = 0u64;
        for s in &shards {
            let pairs = match *s {
                Shard::Whole { first, count } => sizes[first..first + count]
                    .iter()
                    .map(|&m| bucket_pair_count(m))
                    .sum(),
                Shard::Slice { lo, hi, .. } => hi - lo,
            };
            assert!(pairs <= max, "{s:?} carries {pairs} pairs");
            covered += pairs;
        }
        let total: u64 = sizes.iter().map(|&m| bucket_pair_count(m)).sum();
        assert_eq!(covered, total, "shards must tile every pair exactly once");
    }

    #[test]
    fn never_split_policy_yields_one_shard() {
        let shards = plan_shards(&[10, 4000, 7], ShardPolicy::never_split());
        assert_eq!(shards.len(), 1);
        match shards[0] {
            Shard::Whole { first: 0, count: 3 } => {}
            other => panic!("expected one whole-group shard, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 members")]
    fn shard_policy_rejects_unpairable_split_threshold() {
        let _ = ShardPolicy::new(1, 64);
    }

    #[test]
    fn banded_finds_near_duplicates() {
        // Three clones and one unrelated record: the clones must pair up.
        let a = SparseVector::from_set((0..50).collect());
        let b = SparseVector::from_set((0..50).collect());
        let c = SparseVector::from_set((0..50).collect());
        let z = SparseVector::from_set((500..550).collect());
        let sk = Sketcher::new(LshFamily::MinHash, 64, 1).sketch_all(&[a, b, c, z]);
        let cands = banded_with_policy(&sk, 8, 8, None, ShardPolicy::default());
        assert!(cands.contains(&(0, 1)));
        assert!(cands.contains(&(0, 2)));
        assert!(cands.contains(&(1, 2)));
    }

    #[test]
    fn banded_skips_dissimilar_pairs_mostly() {
        // 20 mutually-disjoint sets: expected candidates ≈ 0.
        let records: Vec<SparseVector> = (0..20u32)
            .map(|i| SparseVector::from_set((i * 100..i * 100 + 50).collect()))
            .collect();
        let sk = Sketcher::new(LshFamily::MinHash, 64, 2).sketch_all(&records);
        let cands = banded_with_policy(&sk, 8, 8, None, ShardPolicy::default());
        assert!(
            cands.len() <= 2,
            "disjoint sets should almost never collide, got {}",
            cands.len()
        );
    }

    #[test]
    fn recall_formula_behaves() {
        let f = LshFamily::MinHash;
        let high = banded_recall(f, 0.9, 16, 4);
        let low = banded_recall(f, 0.2, 16, 4);
        assert!(high > 0.99, "high-sim recall {high}");
        assert!(low < 0.2, "low-sim recall {low}");
    }

    #[test]
    fn banded_pairs_are_sorted_unique() {
        let records: Vec<SparseVector> = (0..10u32)
            .map(|i| SparseVector::from_set((0..40 + i).collect()))
            .collect();
        let sk = Sketcher::new(LshFamily::MinHash, 64, 3).sketch_all(&records);
        let cands = banded_with_policy(&sk, 8, 8, None, ShardPolicy::default());
        for w in cands.windows(2) {
            assert!(w[0] < w[1], "output must be sorted and deduplicated");
        }
        for &(i, j) in &cands {
            assert!(i < j);
        }
    }

    #[test]
    fn banded_is_thread_count_invariant() {
        // Near-duplicate clusters generate heavy cross-band duplication;
        // every thread count must produce the same sorted unique list.
        let records: Vec<SparseVector> = (0..30u32)
            .map(|i| SparseVector::from_set((i / 3 * 40..i / 3 * 40 + 45).collect()))
            .collect();
        let sk = Sketcher::new(LshFamily::MinHash, 64, 5).sketch_all(&records);
        let reference = banded_with_policy(&sk, 16, 4, Some(1), ShardPolicy::default());
        for threads in [2, 3, 5, 16] {
            assert_eq!(
                banded_with_policy(&sk, 16, 4, Some(threads), ShardPolicy::default()),
                reference,
                "banded join diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn kway_merge_dedup_merges_and_dedups() {
        let runs = vec![
            vec![(0, 1), (0, 3), (2, 5)],
            vec![(0, 1), (1, 2), (2, 5)],
            vec![],
            vec![(0, 2)],
        ];
        assert_eq!(
            kway_merge_dedup(runs),
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 5)]
        );
    }

    #[test]
    fn empty_and_singleton_datasets_yield_empty_candidates() {
        // The 0-record/1-record allocation guard: capacity hints must not
        // assume a non-empty dataset, on either path or any policy.
        for n in [0usize, 1] {
            let records: Vec<SparseVector> = (0..n as u32)
                .map(|_| SparseVector::from_set(vec![1, 2, 3]))
                .collect();
            let sk = Sketcher::new(LshFamily::MinHash, 64, 3).sketch_all(&records);
            assert!(banded_sequential(&sk, 8, 8).is_empty());
            for policy in [ShardPolicy::default(), ShardPolicy::never_split()] {
                assert!(banded_with_policy(&sk, 8, 8, Some(4), policy).is_empty());
            }
            let stats = banded_shard_stats(&sk, 8, 8, ShardPolicy::default());
            assert_eq!(stats.records, n as u64);
            assert_eq!(stats.shards, 0);
            assert_eq!(stats.total_pairs, 0);
        }
    }

    #[test]
    fn bucket_cache_matches_cold_reference_at_every_epoch() {
        // Near-duplicate clusters ingested in three uneven installments
        // (including a 1-record batch): after each epoch the incremental
        // cache must return exactly the cold sequential reference.
        let records: Vec<SparseVector> = (0..45u32)
            .map(|i| {
                let mut items: Vec<u32> = (i / 3 * 40..i / 3 * 40 + 45).collect();
                items.push(3000 + i % 7);
                SparseVector::from_set(items)
            })
            .collect();
        let sketcher = Sketcher::new(LshFamily::MinHash, 64, 7);
        let mut set = sketcher.sketch_all(&records[..10]);
        let mut cache = BandBuckets::new(8, 8);
        for (lo, hi) in [(0usize, 10usize), (10, 11), (11, 30), (30, 45)] {
            if lo > 0 {
                sketcher.extend_batch(&records[lo..hi], &mut set);
            }
            let cached = cache.extend_and_generate(&set);
            assert_eq!(
                *cached,
                banded_sequential(&set, 8, 8),
                "epoch covering {hi} records diverged from cold reference"
            );
            assert_eq!(cache.covered(), hi);
            // Warm re-probe: same Arc, no recompute.
            let again = cache.extend_and_generate(&set);
            assert!(Arc::ptr_eq(&cached, &again), "warm path must share");
        }
        assert!(cache.byte_size() > std::mem::size_of::<BandBuckets>());
    }

    #[test]
    fn bucket_cache_shape_guard_and_empty_corpus() {
        let cache = BandBuckets::new(8, 8);
        assert!(cache.matches_shape(8, 8));
        assert!(!cache.matches_shape(8, 4));
        assert!(!cache.matches_shape(16, 8));
        // Zero-band cache on an empty set stays empty and panic-free.
        let sk = Sketcher::new(LshFamily::MinHash, 64, 3).sketch_all(&[]);
        let mut zero = BandBuckets::new(0, 8);
        assert!(zero.extend_and_generate(&sk).is_empty());
    }

    #[test]
    fn banded_delta_is_the_j_filtered_full_join() {
        // The cold delta path must equal the full sequential join filtered
        // down to pairs touching `[from, n)` — at every split point,
        // including from=0 (whole join) and from=n (empty delta).
        let records: Vec<SparseVector> = (0..40u32)
            .map(|i| {
                let mut items: Vec<u32> = (i / 4 * 50..i / 4 * 50 + 40).collect();
                items.push(9000 + i % 5);
                SparseVector::from_set(items)
            })
            .collect();
        let sk = Sketcher::new(LshFamily::MinHash, 64, 13).sketch_all(&records);
        let full = banded_sequential(&sk, 8, 8);
        assert!(!full.is_empty());
        for from in [0usize, 1, 17, 39, 40] {
            let expect: Vec<(u32, u32)> = full
                .iter()
                .copied()
                .filter(|&(_, j)| j as usize >= from)
                .collect();
            assert_eq!(banded_delta(&sk, 8, 8, from), expect, "from={from}");
        }
        assert!(banded_delta(&sk, 0, 8, 0).is_empty());
    }

    #[test]
    fn bucket_cache_delta_matches_cold_delta_at_every_epoch() {
        // Every extension's fresh slice must equal the cold banded_delta
        // over the same range, and delta_covering must refuse ranges the
        // last extension did not produce.
        let records: Vec<SparseVector> = (0..45u32)
            .map(|i| {
                let mut items: Vec<u32> = (i / 3 * 40..i / 3 * 40 + 45).collect();
                items.push(3000 + i % 7);
                SparseVector::from_set(items)
            })
            .collect();
        let sketcher = Sketcher::new(LshFamily::MinHash, 64, 7);
        let mut set = sketcher.sketch_all(&records[..10]);
        let mut cache = BandBuckets::new(8, 8);
        for (lo, hi) in [(0usize, 10usize), (10, 11), (11, 30), (30, 45)] {
            if lo > 0 {
                sketcher.extend_batch(&records[lo..hi], &mut set);
            }
            cache.extend_and_generate(&set);
            let delta = cache
                .delta_covering(lo, hi)
                .expect("extension must record its delta range");
            assert_eq!(*delta, banded_delta(&set, 8, 8, lo), "range {lo}..{hi}");
            assert!(cache.delta_covering(lo, hi + 1).is_none());
            // A warm re-probe leaves the recorded delta untouched.
            cache.extend_and_generate(&set);
            assert!(cache.delta_covering(lo, hi).is_some());
        }
    }

    #[test]
    fn partial_eviction_keeps_warm_bands_and_exact_outputs() {
        // Grow in installments, partially evict between epochs, and the
        // cache must keep matching the cold reference exactly — eviction
        // only clears the coldest bands' maps, never the pair sets.
        let records: Vec<SparseVector> = (0..60u32)
            .map(|i| {
                let mut items: Vec<u32> = (i / 4 * 40..i / 4 * 40 + 45).collect();
                items.push(7000 + i % 6);
                SparseVector::from_set(items)
            })
            .collect();
        let sketcher = Sketcher::new(LshFamily::MinHash, 64, 5);
        let mut set = sketcher.sketch_all(&records[..20]);
        let mut cache = BandBuckets::new(8, 8);
        cache.extend_and_generate(&set);
        assert_eq!(cache.resident_bands(), 8);
        let warm_bytes = cache.byte_size();

        // Evict down to ~60% of the warm footprint: some bands must
        // survive, some must be cleared, and the byte estimate honors
        // the target (maps are droppable; pairs are not).
        let target = warm_bytes * 3 / 5;
        let evicted = cache.evict_coldest_bands(target);
        assert!(evicted > 0, "a 40% cut must clear at least one band");
        assert!(evicted < 8, "a 40% cut must not clear every band");
        assert!(cache.byte_size() <= target);
        assert_eq!(cache.resident_bands(), 8 - evicted);
        // Eviction is deterministic: same heat history, same victims.
        assert_eq!(cache.evict_coldest_bands(target), 0, "already under");

        // Warm re-probe at the same epoch is untouched by eviction.
        assert_eq!(
            *cache.extend_and_generate(&set),
            banded_sequential(&set, 8, 8)
        );

        // Growth after eviction silently rebuilds the cleared bands:
        // full set, delta slice, and watermarks all exact.
        for (lo, hi) in [(20usize, 21usize), (21, 40), (40, 60)] {
            sketcher.extend_batch(&records[lo..hi], &mut set);
            let pairs = cache.extend_and_generate(&set);
            assert_eq!(*pairs, banded_sequential(&set, 8, 8), "epoch {hi}");
            let delta = cache.delta_covering(lo, hi).expect("delta recorded");
            assert_eq!(*delta, banded_delta(&set, 8, 8, lo), "delta {lo}..{hi}");
            assert_eq!(cache.resident_bands(), 8, "growth re-warms all bands");
        }

        // The final rung's trigger condition: a target below the pair
        // sets' floor is unreachable — every band clears, bytes stay
        // above target, and the caller drops the whole cache.
        let evicted = cache.evict_coldest_bands(0);
        assert_eq!(evicted, 8);
        assert!(cache.byte_size() > 0);
        assert_eq!(cache.resident_bands(), 0);
        // Even with every map gone the canonical pair set still serves.
        assert_eq!(
            *cache.extend_and_generate(&set),
            banded_sequential(&set, 8, 8)
        );
    }

    #[test]
    fn merge_sorted_unique_merges_and_dedups() {
        let a = vec![(0u32, 1u32), (0, 3), (2, 5)];
        let b = vec![(0, 1), (1, 2), (9, 11)];
        assert_eq!(
            merge_sorted_unique(&a, &b),
            vec![(0, 1), (0, 3), (1, 2), (2, 5), (9, 11)]
        );
        assert_eq!(merge_sorted_unique(&a, &[]), a);
        assert_eq!(merge_sorted_unique(&[], &b), b);
    }

    #[test]
    fn adaptive_policy_derives_budget_from_measured_pairs() {
        use plasma_data::rng::seeded;
        use plasma_data::zipf::Zipf;
        use rand::Rng as _;

        // A Zipf-clustered corpus: the hot cluster dominates, so the
        // measured total pair count is the load the budget must balance.
        let zipf = Zipf::new(20, 1.5);
        let mut rng = seeded(42);
        let records: Vec<SparseVector> = (0..300)
            .map(|_| {
                let c = zipf.sample(&mut rng) as u32;
                let mut items: Vec<u32> = (c * 60..c * 60 + 45).collect();
                items.push(5000 + rng.gen_range(0..4u32));
                SparseVector::from_set(items)
            })
            .collect();
        let sk = Sketcher::new(LshFamily::MinHash, 64, 11).sketch_all(&records);

        // total_pairs is policy-independent; measure it once.
        let measured = banded_shard_stats(&sk, 8, 8, ShardPolicy::never_split());
        assert!(measured.total_pairs > 0);

        // The resolved budget is pinned to the documented formula.
        let policy = ShardPolicy::adaptive();
        assert!(policy.is_adaptive());
        for workers in [1usize, 4, 64] {
            let resolved = policy.resolved_for(measured.total_pairs, workers);
            assert!(!resolved.is_adaptive());
            assert_eq!(resolved.bucket_split_members, 2);
            let expect = (measured.total_pairs / (workers as u64 * TARGET_SHARDS_PER_WORKER))
                .clamp(MIN_ADAPTIVE_PAIRS, MAX_ADAPTIVE_PAIRS);
            assert_eq!(
                resolved.max_pairs_per_shard as u64, expect,
                "workers={workers}"
            );
            // Resolving twice is a fixed point.
            assert_eq!(
                resolved.resolved_for(measured.total_pairs, workers),
                resolved
            );
        }

        // Stats under the adaptive policy respect the budget resolved at
        // the same (process-default) worker count…
        let resolved = policy.resolved_for(measured.total_pairs, resolve_parallelism(None));
        let stats = banded_shard_stats(&sk, 8, 8, policy);
        assert_eq!(stats.total_pairs, measured.total_pairs);
        assert!(
            stats.largest_shard_pairs <= resolved.max_pairs_per_shard as u64,
            "{stats:?} exceeds adaptive budget {resolved:?}"
        );

        // …and the adaptive join's output is bit-identical to the
        // sequential reference at every thread count.
        let reference = banded_sequential(&sk, 8, 8);
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                banded_with_policy(&sk, 8, 8, Some(threads), policy),
                reference,
                "adaptive policy diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn shard_stats_see_the_hot_bucket() {
        // 40 identical records + 10 distinct: every band has one 40-member
        // bucket, and the default policy keeps its slices under budget.
        let mut records: Vec<SparseVector> = (0..40)
            .map(|_| SparseVector::from_set((0..50).collect()))
            .collect();
        records.extend(
            (0..10u32)
                .map(|i| SparseVector::from_set((1000 + i * 100..1000 + i * 100 + 30).collect())),
        );
        let sk = Sketcher::new(LshFamily::MinHash, 64, 9).sketch_all(&records);
        let policy = ShardPolicy::new(2, 100);
        let stats = banded_shard_stats(&sk, 8, 8, policy);
        assert_eq!(stats.hot_bucket_members, 40);
        assert_eq!(stats.hot_bucket_pairs, bucket_pair_count(40));
        assert!(stats.total_pairs >= 8 * stats.hot_bucket_pairs);
        assert!(stats.largest_shard_pairs <= 100);
        assert!(
            stats.shards >= 8 * (stats.hot_bucket_pairs / 100),
            "hot bucket must fan out: {stats:?}"
        );
    }
}
