//! Bounded-cache guarantees: with a byte cap configured, accounted memo
//! bytes never exceed the cap, eviction never changes any probe output
//! (bit-identical to an unbounded cache at every thread/session count,
//! even with probes racing from OS threads), and the registry's
//! cache-count/byte limits evict least-recently-used datasets without
//! breaking dedupe.

use std::sync::Arc;

use proptest::prelude::*;

use plasma_core::apss::{apss_with_sketches, build_sketches, ApssConfig};
use plasma_core::cache::{CacheCapacity, CacheRegistry, EvictionPolicy, RegistryCapacity};
use plasma_core::{ApssResult, SharedKnowledgeCache};
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;

fn dataset(n: usize, seed: u64) -> Vec<SparseVector> {
    GaussianSpec {
        separation: 3.5,
        spread: 0.7,
        ..GaussianSpec::new("bounded", n, 6, 3)
    }
    .generate(seed)
    .records
}

/// Everything interleaving-independent: pairs, estimates, and decision
/// counters. Work counters (`hashes_compared`, `cache_hits`) are *not*
/// compared — eviction is allowed to change how much work a probe pays,
/// never what it returns.
fn assert_same_outputs(a: &ApssResult, b: &ApssResult, label: &str) {
    assert_eq!(a.pairs.len(), b.pairs.len(), "{label}: pair count");
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((x.i, x.j), (y.i, y.j), "{label}: pair ids");
        assert_eq!(
            x.similarity.to_bits(),
            y.similarity.to_bits(),
            "{label}: similarity"
        );
    }
    assert_eq!(a.estimates.len(), b.estimates.len(), "{label}");
    for (x, y) in a.estimates.iter().zip(&b.estimates) {
        assert_eq!((x.0, x.1), (y.0, y.1), "{label}: estimate ids");
        assert_eq!(x.2.decision, y.2.decision, "{label}: decision");
        assert_eq!(x.2.matches, y.2.matches, "{label}: matches");
        assert_eq!(x.2.hashes, y.2.hashes, "{label}: hashes");
        assert_eq!(
            x.2.map_similarity.to_bits(),
            y.2.map_similarity.to_bits(),
            "{label}: MAP"
        );
        assert_eq!(x.2.variance.to_bits(), y.2.variance.to_bits(), "{label}");
    }
    assert_eq!(a.stats.candidates, b.stats.candidates, "{label}");
    assert_eq!(a.stats.pruned, b.stats.pruned, "{label}");
    assert_eq!(a.stats.accepted, b.stats.accepted, "{label}");
    assert_eq!(a.stats.exhausted, b.stats.exhausted, "{label}");
}

#[test]
fn zero_capacity_memoizes_nothing_and_stays_correct() {
    let records = dataset(50, 3);
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::with_capacity(sketches.clone(), CacheCapacity::bounded(0));
    for &t in &[0.8, 0.6, 0.8] {
        let capped = cache.probe(&records, Similarity::Cosine, t, &cfg);
        let fresh = apss_with_sketches(&records, Similarity::Cosine, &sketches, t, &cfg);
        assert_same_outputs(&fresh, &capped, &format!("zero-cap probe at {t}"));
        // Nothing is retained: every probe pays full fresh cost.
        assert_eq!(capped.stats.cache_hits, 0);
        assert_eq!(capped.stats.hashes_compared, fresh.stats.hashes_compared);
        let stats = cache.memory_stats();
        assert_eq!(stats.memo_bytes, 0, "zero cap retains zero bytes");
        assert_eq!(stats.entries, 0);
    }
    assert!(cache.is_empty());
    assert_eq!(cache.len(), 0);
    let stats = cache.memory_stats();
    assert!(stats.evicted_entries > 0, "publications were all evicted");
    assert!(stats.peak_memo_bytes > 0, "peak sees pre-eviction bytes");
}

#[test]
fn tiny_capacity_sweep_respects_cap_and_matches_unbounded() {
    let records = dataset(60, 11);
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cap = 8 << 10; // far below the sweep's unbounded footprint
    let capped = SharedKnowledgeCache::with_capacity(sketches.clone(), CacheCapacity::bounded(cap));
    let unbounded = SharedKnowledgeCache::new(sketches);
    for &t in &[0.9, 0.7, 0.5, 0.7, 0.9, 0.4] {
        let a = capped.probe(&records, Similarity::Cosine, t, &cfg);
        let b = unbounded.probe(&records, Similarity::Cosine, t, &cfg);
        assert_same_outputs(&b, &a, &format!("sweep step {t}"));
        let stats = capped.memory_stats();
        assert!(
            stats.memo_bytes <= cap,
            "accounted bytes {} exceed cap {cap} after probe at {t}",
            stats.memo_bytes
        );
    }
    let capped_stats = capped.memory_stats();
    let unbounded_stats = unbounded.memory_stats();
    assert!(capped_stats.evicted_entries > 0, "tiny cap must evict");
    assert!(capped_stats.evicted_bytes > 0);
    assert_eq!(unbounded_stats.evicted_entries, 0);
    assert!(
        unbounded_stats.memo_bytes > cap,
        "the workload really is bigger than the cap ({} vs {cap})",
        unbounded_stats.memo_bytes
    );
    assert!(
        capped_stats.cache_hits <= unbounded_stats.cache_hits,
        "eviction can only lose hits"
    );
    // Byte accounting is self-consistent: lifetime published bytes still
    // resident = peak path must have seen at least the resident amount.
    assert!(capped_stats.peak_memo_bytes >= capped_stats.memo_bytes);
}

#[test]
fn shallowest_first_policy_respects_cap_and_matches_unbounded() {
    let records = dataset(50, 29);
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cap = 8 << 10;
    let capacity = CacheCapacity::bounded(cap).with_policy(EvictionPolicy::ShallowestFirst);
    let capped = SharedKnowledgeCache::with_capacity(sketches.clone(), capacity);
    assert_eq!(capped.capacity(), capacity);
    for &t in &[0.85, 0.55, 0.7, 0.55] {
        let a = capped.probe(&records, Similarity::Cosine, t, &cfg);
        let fresh = apss_with_sketches(&records, Similarity::Cosine, &sketches, t, &cfg);
        assert_same_outputs(&fresh, &a, &format!("shallowest-first at {t}"));
        assert!(capped.memory_stats().memo_bytes <= cap);
    }
    assert!(capped.memory_stats().evicted_entries > 0);
}

#[test]
fn eviction_racing_concurrent_probes_stays_bit_identical() {
    let records = dataset(60, 7);
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    // Small enough that eviction churns *while* probes race.
    let cache = Arc::new(SharedKnowledgeCache::with_capacity(
        sketches.clone(),
        CacheCapacity::bounded(4 << 10),
    ));
    let thresholds = [0.9, 0.7, 0.5, 0.8, 0.6];
    let results: Vec<(f64, ApssResult)> = std::thread::scope(|s| {
        let joins: Vec<_> = thresholds
            .iter()
            .map(|&t| {
                let cache = &cache;
                let records = &records;
                let cfg = &cfg;
                s.spawn(move || (t, cache.probe(records, Similarity::Cosine, t, cfg)))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("racing probe panicked"))
            .collect()
    });
    for (t, result) in &results {
        let fresh = apss_with_sketches(&records, Similarity::Cosine, &sketches, *t, &cfg);
        assert_same_outputs(&fresh, result, &format!("raced capped probe at {t}"));
    }
    assert!(cache.memory_stats().memo_bytes <= 4 << 10);
}

#[test]
fn registry_count_cap_evicts_least_recently_used_dataset() {
    let cfg = ApssConfig::default();
    let registry = CacheRegistry::with_capacity(
        RegistryCapacity::unbounded().with_max_caches(2),
        CacheCapacity::unbounded(),
    );
    let (a, b, c) = (dataset(30, 1), dataset(30, 2), dataset(30, 3));
    let cache_a = registry.get_or_build(&a, Similarity::Cosine, &cfg);
    registry.get_or_build(&b, Similarity::Cosine, &cfg);
    // Touch A so B becomes the LRU…
    let cache_a2 = registry.get_or_build(&a, Similarity::Cosine, &cfg);
    assert!(Arc::ptr_eq(&cache_a, &cache_a2), "dedupe survives the cap");
    // …then C's arrival evicts B, not A.
    registry.get_or_build(&c, Similarity::Cosine, &cfg);
    assert_eq!(registry.len(), 2);
    assert_eq!(registry.evicted_caches(), 1);
    let cache_a3 = registry.get_or_build(&a, Similarity::Cosine, &cfg);
    assert!(
        Arc::ptr_eq(&cache_a, &cache_a3),
        "A stayed resident across B's eviction"
    );
    // B was evicted: its next lookup rebuilds (a fresh Arc identity)
    // and evicts the new LRU to stay at two.
    let fp_b = CacheRegistry::fingerprint(&b, Similarity::Cosine, &cfg);
    let rebuilt_b = registry.get_or_build(&b, Similarity::Cosine, &cfg);
    assert_eq!(registry.len(), 2);
    assert_eq!(registry.evicted_caches(), 2);
    assert!(rebuilt_b.sketches().len() == b.len());
    assert!(registry.evict(fp_b), "rebuilt B is registered under its fp");
}

#[test]
fn registry_byte_cap_bounds_total_footprint() {
    let cfg = ApssConfig::default();
    // Find a realistic per-cache footprint first, then set the cap to
    // hold roughly one cache.
    let probe_ds = dataset(40, 9);
    let sizing = CacheRegistry::new();
    let one = sizing.get_or_build(&probe_ds, Similarity::Cosine, &cfg);
    let per_cache = one.total_bytes();
    assert!(per_cache > 0);

    let registry = CacheRegistry::with_capacity(
        RegistryCapacity::unbounded().with_max_total_bytes(per_cache + per_cache / 2),
        CacheCapacity::unbounded(),
    );
    for seed in 10..14 {
        let ds = dataset(40, seed);
        registry.get_or_build(&ds, Similarity::Cosine, &cfg);
        assert!(
            registry.total_bytes() <= per_cache + per_cache / 2,
            "registry total {} exceeds byte cap",
            registry.total_bytes()
        );
    }
    assert!(
        registry.evicted_caches() >= 3,
        "each arrival evicts the last"
    );
    assert_eq!(registry.len(), 1, "cap holds one cache at a time");
}

#[test]
fn registry_per_cache_policy_reaches_built_caches() {
    let cfg = ApssConfig::default();
    let cap = 4 << 10;
    let registry =
        CacheRegistry::with_capacity(RegistryCapacity::unbounded(), CacheCapacity::bounded(cap));
    let records = dataset(50, 17);
    let mut session = registry.session(records.clone(), Similarity::Cosine, cfg);
    for &t in &[0.9, 0.6, 0.4] {
        session.probe(t);
        let stats = session.shared_cache().expect("attached").memory_stats();
        assert!(stats.memo_bytes <= cap, "{} > {cap}", stats.memo_bytes);
    }
    assert!(
        session
            .shared_cache()
            .expect("attached")
            .memory_stats()
            .evicted_entries
            > 0,
        "a 4 KiB cap over a 3-probe sweep must evict"
    );
}

/// A fixed probe workload round-robined across `sessions` handles to one
/// capped shared cache, probes serialized in global order, each probe run
/// at `threads` workers.
fn run_capped_workload(
    records: &[SparseVector],
    capacity: CacheCapacity,
    threads: usize,
    sessions: usize,
    workload: &[f64],
) -> (Vec<ApssResult>, usize) {
    let cfg = ApssConfig {
        parallelism: Some(threads),
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(records, Similarity::Cosine, &cfg);
    let cache = Arc::new(SharedKnowledgeCache::with_capacity(sketches, capacity));
    let handles: Vec<Arc<SharedKnowledgeCache>> = (0..sessions).map(|_| cache.clone()).collect();
    let mut max_bytes_seen = 0usize;
    let results = workload
        .iter()
        .enumerate()
        .map(|(q, &t)| {
            let r = handles[q % sessions].probe(records, Similarity::Cosine, t, &cfg);
            max_bytes_seen = max_bytes_seen.max(cache.memo_bytes());
            r
        })
        .collect();
    (results, max_bytes_seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance pin: for any byte cap, thread count, and session
    /// count, a capped serialized workload returns exactly what the
    /// unbounded single-threaded workload returns, and its accounted
    /// bytes never exceed the cap at any probe boundary.
    #[test]
    fn capped_workload_is_output_identical_across_threads_and_sessions(
        n in 30usize..70,
        seed in 0u64..500,
        cap in 0usize..32_768,
        threads in 1usize..5,
        sessions in 1usize..4,
    ) {
        let records = dataset(n, seed);
        let workload = [0.9, 0.6, 0.75, 0.6, 0.5];
        let (reference, _) =
            run_capped_workload(&records, CacheCapacity::unbounded(), 1, 1, &workload);
        let (capped, max_bytes) = run_capped_workload(
            &records,
            CacheCapacity::bounded(cap),
            threads,
            sessions,
            &workload,
        );
        for (q, (a, b)) in reference.iter().zip(&capped).enumerate() {
            assert_same_outputs(
                a,
                b,
                &format!("cap={cap} threads={threads} sessions={sessions} probe#{q}"),
            );
        }
        prop_assert!(
            max_bytes <= cap,
            "accounted bytes {max_bytes} exceeded cap {cap}"
        );
    }
}
