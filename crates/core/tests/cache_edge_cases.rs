//! Knowledge-cache edge cases: empty datasets, identical-threshold
//! re-probes (must be pure cache hits), and descending threshold sweeps.

use plasma_core::apss::{apss_with_sketches, build_sketches, ApssConfig};
use plasma_core::{CacheRegistry, SharedKnowledgeCache};
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;

fn dataset(n: usize, seed: u64) -> Vec<SparseVector> {
    GaussianSpec {
        separation: 4.0,
        spread: 0.6,
        ..GaussianSpec::new("edge", n, 8, 3)
    }
    .generate(seed)
    .records
}

#[test]
fn probing_an_empty_dataset_is_a_no_op_not_a_panic() {
    let records: Vec<SparseVector> = Vec::new();
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::new(sketches);
    let result = cache.probe(&records, Similarity::Cosine, 0.7, &cfg);
    assert_eq!(result.pairs.len(), 0);
    assert_eq!(result.estimates.len(), 0);
    assert_eq!(result.stats.candidates, 0);
    assert_eq!(result.stats.hashes_compared, 0);
    assert!(cache.is_empty());
    assert_eq!(cache.len(), 0);

    // The full session loop tolerates emptiness too: report, curve, and
    // cues all come back trivial.
    use plasma_core::StreamingSession;
    let mut session = StreamingSession::from_records(Vec::new(), Similarity::Cosine, cfg);
    assert!(session.is_empty());
    let report = session.probe(0.7);
    assert_eq!(report.pairs.len(), 0);
    assert_eq!(report.candidates, 0);
    assert!(report.curve.expected.iter().all(|&e| e == 0.0));
    let cue = session.triangle_cue(&report.pairs);
    assert_eq!(cue.total_triangles, 0);
}

#[test]
fn identical_threshold_reprobe_is_a_pure_cache_hit() {
    let records = dataset(60, 5);
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::new(sketches);
    let first = cache.probe(&records, Similarity::Cosine, 0.8, &cfg);
    assert!(first.stats.hashes_compared > 0);
    let again = cache.probe(&records, Similarity::Cosine, 0.8, &cfg);
    // Zero new hashing, every candidate answered from the memo pool, and
    // the exact same output.
    assert_eq!(again.stats.hashes_compared, 0);
    assert_eq!(again.stats.cache_hits, again.stats.candidates);
    assert_eq!(again.pairs, first.pairs);
    assert_eq!(again.estimates.len(), first.estimates.len());
    for (a, b) in first.estimates.iter().zip(&again.estimates) {
        assert_eq!((a.0, a.1), (b.0, b.1));
        assert_eq!(a.2.decision, b.2.decision);
        assert_eq!(a.2.matches, b.2.matches);
        assert_eq!(a.2.hashes, b.2.hashes);
    }
}

#[test]
fn identical_threshold_reprobe_with_exact_similarities_recomputes_nothing() {
    let records = dataset(50, 9);
    let cfg = ApssConfig {
        exact_on_accept: true,
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::new(sketches);
    let first = cache.probe(&records, Similarity::Cosine, 0.7, &cfg);
    let again = cache.probe(&records, Similarity::Cosine, 0.7, &cfg);
    assert_eq!(again.stats.hashes_compared, 0);
    assert_eq!(
        again.pairs, first.pairs,
        "memoized exact sims must be reused"
    );
}

#[test]
fn descending_sweep_deepens_monotonically_and_matches_fresh_probes() {
    let records = dataset(60, 13);
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::new(sketches.clone());
    let sweep = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3];
    let mut cached_hash_total = 0u64;
    let mut fresh_hash_total = 0u64;
    let mut hits_seen = false;
    for &t in &sweep {
        let cached = cache.probe(&records, Similarity::Cosine, t, &cfg);
        let fresh = apss_with_sketches(&records, Similarity::Cosine, &sketches, t, &cfg);
        // Bit-identical output at every step of the sweep…
        assert_eq!(cached.pairs, fresh.pairs, "sweep step {t}");
        assert_eq!(cached.estimates.len(), fresh.estimates.len());
        for (a, b) in cached.estimates.iter().zip(&fresh.estimates) {
            assert_eq!(a.2.matches, b.2.matches, "sweep step {t}");
            assert_eq!(a.2.hashes, b.2.hashes, "sweep step {t}");
            assert_eq!(a.2.decision, b.2.decision, "sweep step {t}");
        }
        // …while the cache only ever pays for *deepening*, never repeats.
        assert!(
            cached.stats.hashes_compared <= fresh.stats.hashes_compared,
            "cached sweep step {t} must not out-hash a fresh probe"
        );
        cached_hash_total += cached.stats.hashes_compared;
        fresh_hash_total += fresh.stats.hashes_compared;
        hits_seen |= cached.stats.cache_hits > 0;
    }
    // Across the whole sweep each pair pays only for its deepest walk
    // (profiles extend, never repeat), so the cached total is bounded by
    // the sum of fresh per-step costs — per pair, max over steps vs sum
    // over steps — and in practice far below it.
    assert!(
        cached_hash_total <= fresh_hash_total,
        "sweep total {cached_hash_total} vs fresh-per-step sum {fresh_hash_total}"
    );
    assert!(
        hits_seen,
        "a 7-step sweep must answer some pairs from cache"
    );
    // After the sweep, every threshold in it re-probes for free.
    for &t in &sweep {
        let again = cache.probe(&records, Similarity::Cosine, t, &cfg);
        assert_eq!(again.stats.hashes_compared, 0, "re-probe at {t}");
    }
}

#[test]
fn registry_sessions_share_one_cache_per_dataset() {
    let records = dataset(50, 21);
    let cfg = ApssConfig::default();
    let registry = CacheRegistry::new();
    let mut alice = registry.session(records.clone(), Similarity::Cosine, cfg);
    let mut bob = registry.session(records.clone(), Similarity::Cosine, cfg);
    assert_eq!(registry.len(), 1, "same corpus + config → one cache");
    let cache = alice.shared_cache().expect("attached at open");
    assert!(std::sync::Arc::ptr_eq(
        &cache,
        &bob.shared_cache().expect("attached")
    ));

    // Alice explores; Bob re-treads her threshold without any hashing.
    let a = alice.probe(0.75);
    assert!(a.hashes_compared > 0);
    assert_eq!(a.sketch_seconds, 0.0, "registry built the sketches");
    let b = bob.probe(0.75);
    assert_eq!(b.hashes_compared, 0);
    assert_eq!(b.cache_hits, b.candidates);
    let a_pairs: Vec<(u32, u32)> = a.pairs.iter().map(|p| (p.i, p.j)).collect();
    let b_pairs: Vec<(u32, u32)> = b.pairs.iter().map(|p| (p.i, p.j)).collect();
    assert_eq!(a_pairs, b_pairs);

    // A different corpus gets its own cache.
    let other = registry.session(dataset(50, 22), Similarity::Cosine, cfg);
    assert_eq!(registry.len(), 2);
    drop(other);
}

#[test]
fn grown_cache_keeps_its_registry_lineage() {
    // Growth mutates the registered cache in place: no duplicate entry,
    // no registry eviction, and the epoch-0 fingerprint keeps resolving
    // to the same (now larger) cache.
    use plasma_core::cache::RegistryCapacity;
    use plasma_core::StreamingSession;
    use std::sync::Arc;
    let records = dataset(44, 33);
    let cfg = ApssConfig::default();
    let registry = CacheRegistry::with_capacity(RegistryCapacity::unbounded().with_max_caches(2));
    let head = records[..28].to_vec();
    let cache = registry.get_or_build(&head, Similarity::Cosine, &cfg);
    let bytes_before = registry.total_bytes();

    let mut streaming = StreamingSession::from_records(head.clone(), Similarity::Cosine, cfg)
        .with_shared_cache(cache.clone());
    streaming.probe(0.7);
    streaming.ingest(&records[28..]);
    assert_eq!(cache.epoch(), 1);
    assert_eq!(cache.sketches().len(), records.len());

    // Still exactly one registry entry, nothing evicted, and the grown
    // sketches show up in the registry's byte accounting.
    assert_eq!(registry.len(), 1, "growth must not mint a second entry");
    assert_eq!(registry.evicted_caches(), 0);
    assert!(registry.total_bytes() > bytes_before);

    // The epoch-0 corpus still resolves to the very same cache.
    let again = registry.get_or_build(&head, Similarity::Cosine, &cfg);
    assert!(
        Arc::ptr_eq(&cache, &again),
        "lineage lookup must not rebuild"
    );
    assert_eq!(registry.len(), 1);

    // And the grown corpus probes through it with carried memos.
    let report = streaming.probe(0.7);
    assert!(report.cache_hits > 0);
}

#[test]
fn empty_ingest_never_bumps_a_registry_cache() {
    use plasma_core::StreamingSession;
    let records = dataset(30, 35);
    let cfg = ApssConfig::default();
    let registry = CacheRegistry::new();
    let cache = registry.get_or_build(&records, Similarity::Cosine, &cfg);
    let mut streaming = StreamingSession::from_records(records, Similarity::Cosine, cfg)
        .with_shared_cache(cache.clone());
    let report = streaming.ingest(&[]);
    assert_eq!(report.records_added, 0);
    assert_eq!(cache.epoch(), 0, "a zero-record batch is not an epoch");
    assert_eq!(registry.len(), 1);
}

#[test]
#[should_panic(expected = "extend the current corpus byte for byte")]
fn grow_rejects_a_diverged_corpus() {
    // Adopting sketches that are not a prefix-extension would silently
    // poison every carried memo — the cache must refuse loudly.
    use plasma_lsh::family::LshFamily;
    use plasma_lsh::sketch::Sketcher;
    let records = dataset(20, 37);
    let other = dataset(24, 38);
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::new(sketches);
    // Sketch a *different* corpus and bump its epoch via a batch extend.
    let sketcher = Sketcher::new(LshFamily::SimHash, cfg.n_hashes, cfg.seed);
    let mut diverged = sketcher.sketch_all(&other[..20]);
    sketcher.extend_batch(&other[20..], &mut diverged);
    cache.grow(diverged);
}

#[test]
#[should_panic(expected = "re-sync the corpus before probing a grown cache")]
fn probing_a_grown_cache_with_stale_records_fails_loudly() {
    // A session holding the pre-growth record list must not receive
    // candidate pairs that index records it never supplied.
    use plasma_core::StreamingSession;
    let records = dataset(40, 39);
    let cfg = ApssConfig::default();
    let head = records[..25].to_vec();
    let cache = {
        let mut streaming = StreamingSession::from_records(head.clone(), Similarity::Cosine, cfg);
        streaming.probe(0.7);
        streaming.ingest(&records[25..]);
        streaming.shared_cache().expect("probed")
    };
    cache.probe(&head, Similarity::Cosine, 0.7, &cfg);
}

#[test]
#[should_panic(expected = "mixing hash universes")]
fn streaming_attach_rejects_a_seed_mismatched_cache() {
    // Ingest re-derives the sketcher from the session config; attaching a
    // cache sketched under a different seed would extend one hash
    // universe with another and silently poison every cross-batch pair —
    // the attach must refuse up front.
    use plasma_core::StreamingSession;
    let records = dataset(20, 41);
    let cfg = ApssConfig::default();
    let reseeded = ApssConfig {
        seed: cfg.seed + 1,
        ..cfg
    };
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &reseeded);
    let cache = std::sync::Arc::new(SharedKnowledgeCache::new(sketches));
    let _ =
        StreamingSession::from_records(records, Similarity::Cosine, cfg).with_shared_cache(cache);
}

#[test]
#[should_panic(expected = "grown past this session's corpus")]
fn batch_session_cannot_attach_a_grown_cache_over_a_stale_prefix() {
    // The registry keeps serving a lineage's epoch-0 fingerprint after
    // growth; a batch Session opening over the stale prefix must get a
    // guided panic, not out-of-range candidate pairs.
    use plasma_core::StreamingSession;
    let records = dataset(40, 43);
    let cfg = ApssConfig::default();
    let head = records[..25].to_vec();
    let registry = CacheRegistry::new();
    let cache = registry.get_or_build(&head, Similarity::Cosine, &cfg);
    let mut streaming = StreamingSession::from_records(head.clone(), Similarity::Cosine, cfg)
        .with_shared_cache(cache);
    streaming.probe(0.7);
    streaming.ingest(&records[25..]);
    let _ = registry.session(head, Similarity::Cosine, cfg);
}
