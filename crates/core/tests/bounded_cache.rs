//! The one memory bound: a cache never evicts a memo, so a process bounds
//! its caches through the registry. A [`RegistryCapacity`] caps how many
//! dataset caches stay resident and their total bytes, dropping whole
//! least-recently-used caches without breaking dedupe.

use std::sync::Arc;

use plasma_core::apss::ApssConfig;
use plasma_core::cache::{CacheRegistry, RegistryCapacity};
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

#[test]
fn registry_count_cap_evicts_least_recently_used_dataset() {
    let cfg = ApssConfig::default();
    let registry = CacheRegistry::with_capacity(RegistryCapacity::unbounded().with_max_caches(2));
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
