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
//! # One banded join
//!
//! [`BandBuckets`] is the only banded join. It keeps one bucket map per
//! band plus the canonical sorted-unique pair set of the records it
//! covers; an extension hashes only the records past its watermark and
//! pairs each against its bucket's prior members. Every way to banded
//! candidates is a use of it:
//!
//! * a **warm** probe (nothing new to cover) is one `Arc` clone;
//! * a post-ingest probe or watch delta **extends** by the new records —
//!   `O(new × bands)` key work instead of `O(corpus × bands)`;
//! * the **cold** join, [`banded_join`], is a fresh `BandBuckets` whose
//!   watermark starts at `from` with every band at 0, extended once: the
//!   prefix re-buckets silently (the partial-eviction mechanism) and only
//!   records in `[from, n)` emit pairs, so `from = 0` is the full join.
//!
//! [`banded_sequential`] is the independent reference all of them are
//! pinned against bit for bit.

use std::sync::Arc;

use plasma_data::hash::FxHashMap;

use crate::sketch::SketchSet;

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

/// The cold banded join over a sketch set: `bands` bands of `band_width`
/// hashes each are read from the front of the sketches, and every
/// candidate pair that touches a record in `[from, n)` is returned, sorted
/// unique — bit-identical to [`banded_sequential`] filtered down to pairs
/// with `j >= from`. `from = 0` is the full join; a larger `from` is the
/// delta a corpus growth adds, the fallback when no warm
/// [`BandBuckets`] covers the range.
pub fn banded_join(
    sketches: &SketchSet,
    bands: usize,
    band_width: usize,
    from: usize,
) -> Vec<(u32, u32)> {
    let mut buckets = BandBuckets::new(bands, band_width);
    buckets.covered = from;
    buckets.join_new(sketches)
}

/// The sequential reference: one pass per band into a reused bucket map
/// (capacity-hinted to the record count; member vectors are recycled
/// through a pool instead of reallocated per band), pairs accumulated
/// into one buffer, then a single global sort + dedup. This is the
/// canonical output [`BandBuckets`] must reproduce exactly.
pub fn banded_sequential(sketches: &SketchSet, bands: usize, band_width: usize) -> Vec<(u32, u32)> {
    let n = sketches.len();
    let mut out: Vec<(u32, u32)> = Vec::new();
    if n < 2 || bands == 0 {
        return out;
    }
    let mut keys = vec![0u64; n];
    // Capacity hint: at most n distinct keys per band; the map (and the
    // recycled member vectors) are reused across every band.
    let mut buckets: FxHashMap<u64, Vec<u32>> =
        FxHashMap::with_capacity_and_hasher(n, Default::default());
    let mut pool: Vec<Vec<u32>> = Vec::new();
    for band in 0..bands {
        sketches.band_keys_into(band, band_width, 0, &mut keys);
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
    out.sort_unstable();
    out.dedup();
    out
}

/// Bucket shape of a banded join, for bench/telemetry introspection
/// (`repro bench` publishes these as the `banded_skew` fields). Computed
/// from a sequential bucket build, so the numbers are deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct BandedBucketStats {
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
}

/// Computes [`BandedBucketStats`] for a join shape without generating any
/// pairs.
pub fn banded_bucket_stats(
    sketches: &SketchSet,
    bands: usize,
    band_width: usize,
) -> BandedBucketStats {
    let n = sketches.len();
    let mut stats = BandedBucketStats {
        records: n as u64,
        ..Default::default()
    };
    if n < 2 || bands == 0 {
        return stats;
    }
    let mut keys = vec![0u64; n];
    let mut counts: FxHashMap<u64, usize> =
        FxHashMap::with_capacity_and_hasher(n, Default::default());
    for band in 0..bands {
        sketches.band_keys_into(band, band_width, 0, &mut keys);
        for &key in &keys {
            *counts.entry(key).or_insert(0) += 1;
        }
        for (_, m) in counts.drain().filter(|&(_, m)| m >= 2) {
            let pairs = bucket_pair_count(m);
            stats.buckets += 1;
            stats.total_pairs += pairs;
            if m as u64 > stats.hot_bucket_members {
                stats.hot_bucket_members = m as u64;
                stats.hot_bucket_pairs = pairs;
            }
        }
    }
    stats
}

/// `m·(m−1)/2` in `u128` intermediate arithmetic, so even a
/// `u32::MAX`-member bucket (the largest addressable with `u32` record
/// ids) cannot overflow en route to the `u64` result.
fn bucket_pair_count(members: usize) -> u64 {
    let m = members as u128;
    u64::try_from(m * m.saturating_sub(1) / 2).expect("bucket pair count overflows u64")
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

/// Epoch-persistent band buckets: the one banded join, cold or
/// incremental.
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
        let fresh = self.join_new(sketches);
        if !fresh.is_empty() {
            self.pairs = Arc::new(merge_sorted_unique(&self.pairs, &fresh));
        }
        self.delta = Arc::new(fresh);
        self.delta_range = (from, n);
        self.recount_bytes();
        Arc::clone(&self.pairs)
    }

    /// The join itself: hashes records `[covered, n)` into every band,
    /// pairs each against its bucket's prior members, advances every
    /// watermark to `n`, and returns the fresh pairs sorted unique. A band
    /// whose watermark trails `covered` first re-buckets that prefix
    /// without emitting pairs.
    fn join_new(&mut self, sketches: &SketchSet) -> Vec<(u32, u32)> {
        let n = sketches.len();
        let from = self.covered;
        let mut keys: Vec<u64> = Vec::new();
        let mut fresh: Vec<(u32, u32)> = Vec::new();
        for (band, map) in self.maps.iter_mut().enumerate() {
            // An evicted band (or every band of a cold join from `from`)
            // restarts below the watermark: its prefix records re-join
            // their buckets without emitting pairs — those pairs are
            // already in `pairs`, or not wanted — so eviction can never
            // change outputs.
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
        fresh
    }

    /// The new-records-only candidate slice of the most recent extension,
    /// if it covered exactly `[from, to)`: every cached pair that touches
    /// a record in that range, sorted unique — bit-identical to
    /// [`banded_join`] from `from` over the same snapshot. Returns `None`
    /// when the cache's last extension covered a different range (the
    /// caller must fall back to the cold [`banded_join`]).
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
    fn banded_finds_near_duplicates() {
        // Three clones and one unrelated record: the clones must pair up.
        let a = SparseVector::from_set((0..50).collect());
        let b = SparseVector::from_set((0..50).collect());
        let c = SparseVector::from_set((0..50).collect());
        let z = SparseVector::from_set((500..550).collect());
        let sk = Sketcher::new(LshFamily::MinHash, 64, 1).sketch_all(&[a, b, c, z]);
        let cands = banded_join(&sk, 8, 8, 0);
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
        let cands = banded_join(&sk, 8, 8, 0);
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
        let cands = banded_join(&sk, 8, 8, 0);
        for w in cands.windows(2) {
            assert!(w[0] < w[1], "output must be sorted and deduplicated");
        }
        for &(i, j) in &cands {
            assert!(i < j);
        }
    }

    #[test]
    fn banded_join_matches_reference_under_cross_band_duplication() {
        // Near-duplicate clusters generate heavy cross-band duplication;
        // the cold join must still produce the reference's sorted unique
        // list.
        let records: Vec<SparseVector> = (0..30u32)
            .map(|i| SparseVector::from_set((i / 3 * 40..i / 3 * 40 + 45).collect()))
            .collect();
        let sk = Sketcher::new(LshFamily::MinHash, 64, 5).sketch_all(&records);
        let reference = banded_sequential(&sk, 16, 4);
        assert!(!reference.is_empty());
        assert_eq!(banded_join(&sk, 16, 4, 0), reference);
    }

    #[test]
    fn empty_and_singleton_datasets_yield_empty_candidates() {
        // The 0-record/1-record allocation guard: capacity hints must not
        // assume a non-empty dataset, on any path.
        for n in [0usize, 1] {
            let records: Vec<SparseVector> = (0..n as u32)
                .map(|_| SparseVector::from_set(vec![1, 2, 3]))
                .collect();
            let sk = Sketcher::new(LshFamily::MinHash, 64, 3).sketch_all(&records);
            assert!(banded_sequential(&sk, 8, 8).is_empty());
            assert!(banded_join(&sk, 8, 8, 0).is_empty());
            let stats = banded_bucket_stats(&sk, 8, 8);
            assert_eq!(stats.records, n as u64);
            assert_eq!((stats.buckets, stats.total_pairs), (0, 0));
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
        // The cold join from `from` must equal the full sequential join
        // filtered down to pairs touching `[from, n)` — at every split
        // point, including from=0 (whole join) and from=n (empty delta).
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
            assert_eq!(banded_join(&sk, 8, 8, from), expect, "from={from}");
        }
        assert!(banded_join(&sk, 0, 8, 0).is_empty());
    }

    #[test]
    fn bucket_cache_delta_matches_cold_delta_at_every_epoch() {
        // Every extension's fresh slice must equal the cold join from the
        // same watermark, and delta_covering must refuse ranges the last
        // extension did not produce.
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
            assert_eq!(*delta, banded_join(&set, 8, 8, lo), "range {lo}..{hi}");
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
            assert_eq!(*delta, banded_join(&set, 8, 8, lo), "delta {lo}..{hi}");
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
    fn shard_stats_see_the_hot_bucket() {
        // 40 identical records + 10 distinct: every band has one 40-member
        // bucket, and the stats see it in every band.
        let mut records: Vec<SparseVector> = (0..40)
            .map(|_| SparseVector::from_set((0..50).collect()))
            .collect();
        records.extend(
            (0..10u32)
                .map(|i| SparseVector::from_set((1000 + i * 100..1000 + i * 100 + 30).collect())),
        );
        let sk = Sketcher::new(LshFamily::MinHash, 64, 9).sketch_all(&records);
        let stats = banded_bucket_stats(&sk, 8, 8);
        assert_eq!(stats.records, 50);
        assert_eq!(stats.hot_bucket_members, 40);
        assert_eq!(stats.hot_bucket_pairs, bucket_pair_count(40));
        assert!(stats.buckets >= 8, "one hot bucket per band: {stats:?}");
        assert!(stats.total_pairs >= 8 * stats.hot_bucket_pairs);
    }
}
