//! Differential suite for the one banded join, [`BandBuckets`]: on random,
//! skewed, and adversarial inputs, every way into it must return
//! **exactly** the independent sequential reference — the same pair set,
//! in the same canonical (sorted) order, with zero duplicates:
//!
//! * the cold join (`banded_join` from 0) equals `banded_sequential`;
//! * a `BandBuckets` grown over a random batch split equals the reference
//!   of each prefix after every extension, and its `delta_covering` slice
//!   equals the reference filtered to the batch;
//! * the cold delta from a random watermark equals the reference filtered
//!   to `j >= from`.
//!
//! This is the safety net under every candidate-path refactor: if a change
//! ever reorders, drops, or duplicates a candidate, one of these fails.

use proptest::prelude::*;
use rand::Rng;

use plasma_data::rng::seeded;
use plasma_data::vector::SparseVector;
use plasma_data::zipf::Zipf;
use plasma_lsh::candidates::{banded_bucket_stats, banded_join, banded_sequential, BandBuckets};
use plasma_lsh::family::LshFamily;
use plasma_lsh::sketch::Sketcher;

/// The reference pairs whose larger record lies in `[lo, hi)`.
fn j_in(reference: &[(u32, u32)], lo: usize, hi: usize) -> Vec<(u32, u32)> {
    reference
        .iter()
        .copied()
        .filter(|&(_, j)| (lo..hi).contains(&(j as usize)))
        .collect()
}

/// Asserts the canonical-output contract on the reference, then the three
/// ways into the one join against it. `seed` draws the batch split and the
/// cold-delta watermark.
fn assert_one_join_matches_reference(
    sketcher: &Sketcher,
    records: &[SparseVector],
    bands: usize,
    width: usize,
    seed: u64,
    label: &str,
) {
    let n = records.len();
    let sketches = sketcher.sketch_all(records);
    let reference = banded_sequential(&sketches, bands, width);
    // The reference itself is sorted, unique, i < j, in range.
    for w in reference.windows(2) {
        assert!(w[0] < w[1], "{label}: reference not sorted-unique");
    }
    for &(i, j) in &reference {
        assert!(i < j, "{label}: pair order");
        assert!((j as usize) < n, "{label}: pair range");
    }
    assert_eq!(
        banded_join(&sketches, bands, width, 0),
        reference,
        "{label}: cold join"
    );

    let mut rng = seeded(seed);
    let from = rng.gen_range(0..=n);
    assert_eq!(
        banded_join(&sketches, bands, width, from),
        j_in(&reference, from, n),
        "{label}: cold delta from {from}"
    );

    let mut cuts: Vec<usize> = (0..rng.gen_range(1..4usize))
        .map(|_| rng.gen_range(0..=n))
        .collect();
    cuts.push(n);
    cuts.sort_unstable();
    cuts.dedup();
    let mut set = sketcher.sketch_all(&[]);
    let mut buckets = BandBuckets::new(bands, width);
    let mut lo = 0;
    for hi in cuts {
        sketcher.extend_batch(&records[lo..hi], &mut set);
        let pairs = buckets.extend_and_generate(&set);
        assert_eq!(*pairs, j_in(&reference, 0, hi), "{label}: grown to {hi}");
        let delta = buckets.delta_covering(lo, hi);
        if hi > lo && bands > 0 {
            let delta = delta.expect("an extension records its range");
            assert_eq!(
                *delta,
                j_in(&reference, lo, hi),
                "{label}: delta {lo}..{hi}"
            );
        }
        lo = hi;
    }
}

/// A Zipf-clustered corpus: each record is an exact copy of its cluster's
/// base set, cluster drawn from `Zipf(s)` — so every band has one bucket
/// per cluster and the rank-0 bucket's share grows with `s`. At `s = 2.0`
/// the head cluster holds well over half of all records.
fn zipf_clustered(n: usize, clusters: usize, s: f64, seed: u64) -> Vec<SparseVector> {
    let zipf = Zipf::new(clusters, s);
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            let c = zipf.sample(&mut rng) as u32;
            // Cluster supports are disjoint (60-wide strides, 45 items).
            SparseVector::from_set((c * 60..c * 60 + 45).collect())
        })
        .collect()
}

fn minhash() -> Sketcher {
    Sketcher::new(LshFamily::MinHash, 64, 11)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random sparse-set corpora. A small universe (0..120) forces genuine
    /// collisions; band counts beyond `n_hashes / width` produce
    /// degenerate constant-key bands — every record in one bucket, the
    /// worst skew possible — on purpose.
    #[test]
    fn random_corpora_match_reference(
        records in proptest::collection::vec(
            proptest::collection::vec(0u32..120, 1..40).prop_map(SparseVector::from_set),
            0..60,
        ),
        bands in 1usize..16,
        width in 1usize..8,
    ) {
        let split = (records.len() * 131 + bands * 7 + width) as u64;
        assert_one_join_matches_reference(&minhash(), &records, bands, width, split, "random corpus");
    }

    /// Zipf-keyed corpora over the skew ladder: the heavier the tail, the
    /// hotter the head bucket; output must not care.
    #[test]
    fn zipf_skewed_corpora_match_reference(
        seed in 0u64..500,
        n in 40usize..140,
    ) {
        for s in [0.8f64, 1.2, 2.0] {
            let records = zipf_clustered(n, 30, s, seed);
            assert_one_join_matches_reference(&minhash(), &records, 8, 8, seed, &format!("zipf s={s}"));
        }
    }

    /// Clustered near-duplicates (heavy cross-band duplication) at random
    /// cluster granularity.
    #[test]
    fn near_duplicate_clusters_match_reference(
        seed in 0u64..500,
        cluster_size in 2usize..12,
    ) {
        let mut rng = seeded(seed);
        let records: Vec<SparseVector> = (0..60)
            .map(|i| {
                let c = (i / cluster_size) as u32;
                let mut items: Vec<u32> = (c * 50..c * 50 + 40).collect();
                // A little per-record noise so clusters are near-, not
                // exact-duplicates: some bands match, some don't.
                items.push(2000 + rng.gen_range(0..6u32));
                SparseVector::from_set(items)
            })
            .collect();
        assert_one_join_matches_reference(&minhash(), &records, 16, 4, seed, "near-duplicate clusters");
    }
}

/// The pathological extreme: every record identical, so every band is one
/// bucket holding 100% of records. Pair-count arithmetic must hold up,
/// and the output is exactly all `n·(n−1)/2` pairs.
#[test]
fn all_identical_records_fan_out_without_overflow() {
    let n = 150usize;
    let records: Vec<SparseVector> = (0..n)
        .map(|_| SparseVector::from_set((0..50).collect()))
        .collect();
    let sk = minhash().sketch_all(&records);
    let reference = banded_sequential(&sk, 8, 8);
    assert_eq!(reference.len(), n * (n - 1) / 2);
    assert_one_join_matches_reference(&minhash(), &records, 8, 8, 3, "all-identical");
    // The hot bucket is the whole dataset, in every band.
    let stats = banded_bucket_stats(&sk, 8, 8);
    assert_eq!(stats.hot_bucket_members, n as u64);
    assert_eq!(stats.hot_bucket_pairs, (n * (n - 1) / 2) as u64);
    assert_eq!(
        (stats.buckets, stats.total_pairs),
        (8, 8 * stats.hot_bucket_pairs)
    );
}

/// The opposite extreme: all-distinct disjoint records — buckets are
/// (almost) all singletons and candidates (almost) empty.
#[test]
fn all_distinct_records_yield_no_hot_bucket() {
    let records: Vec<SparseVector> = (0..80u32)
        .map(|i| SparseVector::from_set((i * 100..i * 100 + 50).collect()))
        .collect();
    assert_one_join_matches_reference(&minhash(), &records, 8, 8, 5, "all-distinct");
    let reference = banded_sequential(&minhash().sketch_all(&records), 8, 8);
    assert!(reference.len() <= 4, "disjoint sets should rarely collide");
}

/// Zipf(2.0) genuinely produces the ">50% of records in one bucket"
/// shape — pinned via the stats surface so the skew-stress scenarios in
/// this file are known to be stressing skew.
#[test]
fn zipf_two_puts_majority_in_the_hot_bucket() {
    let n = 400usize;
    let records = zipf_clustered(n, 40, 2.0, 13);
    let stats = banded_bucket_stats(&minhash().sketch_all(&records), 8, 8);
    assert!(
        stats.hot_bucket_members as f64 > n as f64 / 2.0,
        "rank-0 cluster should dominate: {} of {n}",
        stats.hot_bucket_members
    );
    assert_one_join_matches_reference(&minhash(), &records, 8, 8, 13, "zipf s=2.0 majority bucket");
}

/// Zero and one-record datasets: empty candidates on every path, no
/// allocation panics from capacity hints, empty bucket stats.
#[test]
fn degenerate_datasets_are_empty_and_panic_free() {
    for n in [0usize, 1] {
        let records: Vec<SparseVector> = (0..n)
            .map(|_| SparseVector::from_set(vec![7, 9, 11]))
            .collect();
        let sk = minhash().sketch_all(&records);
        for bands in [0usize, 1, 8] {
            let label = format!("n={n} bands={bands}");
            assert!(banded_sequential(&sk, bands, 8).is_empty(), "{label}");
            assert_one_join_matches_reference(&minhash(), &records, bands, 8, 7, &label);
            let stats = banded_bucket_stats(&sk, bands, 8);
            assert_eq!((stats.buckets, stats.total_pairs), (0, 0), "{label}");
        }
    }
}

/// Zero bands: no buckets, no candidates, cold or grown.
#[test]
fn zero_bands_yield_empty_candidates() {
    let records: Vec<SparseVector> = (0..20)
        .map(|_| SparseVector::from_set((0..30).collect()))
        .collect();
    let sk = minhash().sketch_all(&records);
    assert!(banded_join(&sk, 0, 8, 0).is_empty());
    assert!(BandBuckets::new(0, 8).extend_and_generate(&sk).is_empty());
    assert_one_join_matches_reference(&minhash(), &records, 0, 8, 1, "zero bands");
}

/// SimHash sketches go through the same banded join; the differential
/// guarantee is family-independent.
#[test]
fn simhash_banding_matches_reference() {
    let mut rng = seeded(29);
    let records: Vec<SparseVector> = (0..50)
        .map(|i| {
            let base = (i / 5) as f64;
            SparseVector::from_dense(&[
                base + rng.gen_range(-0.1..0.1),
                1.0 + rng.gen_range(-0.1..0.1),
                base * 0.5,
                rng.gen_range(-0.2..0.2),
            ])
        })
        .collect();
    let simhash = Sketcher::new(LshFamily::SimHash, 64, 17);
    assert_one_join_matches_reference(&simhash, &records, 8, 8, 29, "simhash");
}
