//! The streaming-equivalence differential suite.
//!
//! Pins the streaming ingest engine's contract: a history of
//! `ingest(batch)` / `probe(threshold)` calls is **bit-identical**, probe
//! for probe, to cold batch runs over the corpus as of each epoch —
//! pairs, estimates, and decision counters — for every batch-split
//! schedule, parallelism in {1, 2, 4}, and session count in {1, 2}. Work
//! counters are pinned twice over:
//!
//! * across thread counts, a streamed history's
//!   `hashes_compared` / `cache_hits` are bit-identical (probes are
//!   serialized, so warmth is deterministic);
//! * against cold runs, the carry-over arithmetic is *exact*: the first
//!   re-probe of a threshold after an epoch bump pays
//!   `cold(full).hashes − cold(old prefix).hashes` new hash comparisons
//!   and scores exactly `cold(old prefix).candidates` cache hits — every
//!   old-pair memo survived, and only pairs touching new records are
//!   computed fresh.
//!
//! Carried-memo economy is also asserted at the cache level: lifetime
//! `memory_stats().cache_hits` must grow across every epoch bump.

use proptest::prelude::*;

use plasma_core::apss::{apss, apss_with_sketches, build_sketches, ApssConfig, CandidateStrategy};
use plasma_core::streaming::StreamingSession;
use plasma_core::ApssResult;
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;

/// The threshold ladder every session sweeps after every epoch (high →
/// low, the interactive exploration shape).
const LADDER: [f64; 2] = [0.85, 0.65];

fn dataset(n: usize, seed: u64) -> Vec<SparseVector> {
    GaussianSpec {
        separation: 3.5,
        spread: 0.7,
        ..GaussianSpec::new("stream-diff", n, 6, 3)
    }
    .generate(seed)
    .records
}

/// Everything a probe returns except timings: pairs, estimates, decision
/// counters — and optionally the work counters too (exact for serialized
/// streamed runs compared across thread counts).
fn assert_same_outputs(a: &ApssResult, b: &ApssResult, work_counters: bool, label: &str) {
    assert_eq!(a.pairs.len(), b.pairs.len(), "{label}: pair count");
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((x.i, x.j), (y.i, y.j), "{label}: pair ids");
        assert_eq!(
            x.similarity.to_bits(),
            y.similarity.to_bits(),
            "{label}: similarity of ({}, {})",
            x.i,
            x.j
        );
    }
    assert_eq!(a.estimates.len(), b.estimates.len(), "{label}: estimates");
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
    if work_counters {
        assert_eq!(
            a.stats.hashes_compared, b.stats.hashes_compared,
            "{label}: hashes_compared"
        );
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits, "{label}: hits");
    }
}

/// One full streamed history over `records`: seed the corpus with
/// `bounds[0]` records, then ingest up to each further bound; after the
/// seed and after every epoch, `sessions` sessions each sweep [`LADDER`]
/// (serialized, so work counters are deterministic). With two sessions
/// the ingests alternate between the original session and a fork.
struct StreamedRun {
    /// All probe results, epoch-major, then session, then ladder index.
    results: Vec<ApssResult>,
    /// Lifetime cache hits after each epoch's sweeps (index 0 = seed).
    hits_after_epoch: Vec<u64>,
}

fn run_streamed(
    records: &[SparseVector],
    bounds: &[usize],
    sessions: usize,
    cfg: ApssConfig,
) -> StreamedRun {
    let mut driver =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg)
            .with_parallelism(cfg.parallelism);
    // An empty ingest forces the epoch-0 sketch build so the cache handle
    // exists before the first sweep.
    driver.ingest(&[]);
    let mut fork = driver.fork();
    let cache = driver.shared_cache().expect("cache built by ingest");
    let mut results = Vec::new();
    let mut hits_after_epoch = Vec::new();
    let mut sweep = |prefix: &[SparseVector]| {
        for _ in 0..sessions {
            for &t in &LADDER {
                results.push(cache.probe(prefix, Similarity::Cosine, t, &cfg));
            }
        }
    };
    sweep(&records[..bounds[0]]);
    hits_after_epoch.push(cache.memory_stats().cache_hits);
    let mut prev = bounds[0];
    for (k, &hi) in bounds[1..].iter().enumerate() {
        let ingester = if sessions > 1 && k % 2 == 1 {
            &mut fork
        } else {
            &mut driver
        };
        let report = ingester.ingest(&records[prev..hi]);
        assert_eq!(report.epoch, (k + 1) as u64, "one bump per batch");
        assert_eq!(report.total_records, hi);
        prev = hi;
        sweep(&records[..prev]);
        hits_after_epoch.push(cache.memory_stats().cache_hits);
    }
    StreamedRun {
        results,
        hits_after_epoch,
    }
}

/// Cold reference: fresh sketches over a prefix, cache-less evaluation.
fn cold(prefix: &[SparseVector], t: f64, cfg: &ApssConfig) -> ApssResult {
    let (sketches, _) = build_sketches(prefix, Similarity::Cosine, cfg);
    apss_with_sketches(prefix, Similarity::Cosine, &sketches, t, cfg)
}

/// The shared body of the property and the fixed banded grid: runs the
/// streamed history at `parallelism = 1` as the reference, re-runs it at
/// 2 and 4 threads pinning *every* output including work counters, then
/// pins each epoch's sweeps against cold batch runs — with the exact
/// carry-over arithmetic on the first post-bump probe.
fn check_schedule(records: &[SparseVector], bounds: &[usize], sessions: usize, base: ApssConfig) {
    let cfg_at = |p: usize| ApssConfig {
        parallelism: Some(p),
        ..base
    };
    let reference = run_streamed(records, bounds, sessions, cfg_at(1));
    for p in [2usize, 4] {
        let run = run_streamed(records, bounds, sessions, cfg_at(p));
        assert_eq!(run.results.len(), reference.results.len());
        for (i, (a, b)) in reference.results.iter().zip(&run.results).enumerate() {
            assert_same_outputs(a, b, true, &format!("probe {i}: 1 vs {p} threads"));
        }
        assert_eq!(run.hits_after_epoch, reference.hits_after_epoch);
    }

    let per_epoch = sessions * LADDER.len();
    let cfg1 = cfg_at(1);
    let mut cold_prev: Vec<ApssResult> = Vec::new();
    for (e, &hi) in bounds.iter().enumerate() {
        let prefix = &records[..hi];
        let cold_now: Vec<ApssResult> = LADDER.iter().map(|&t| cold(prefix, t, &cfg1)).collect();
        for rep in 0..sessions {
            for (ti, cold_full) in cold_now.iter().enumerate() {
                let streamed = &reference.results[e * per_epoch + rep * LADDER.len() + ti];
                assert_same_outputs(
                    streamed,
                    cold_full,
                    false,
                    &format!("epoch {e} rep {rep} t={}", LADDER[ti]),
                );
                if rep > 0 {
                    // A repeat sweep re-reads published memos: pure hits.
                    assert_eq!(streamed.stats.hashes_compared, 0, "epoch {e} rep {rep}");
                    assert_eq!(streamed.stats.cache_hits, streamed.stats.candidates);
                }
            }
        }
        // Exact carry-over arithmetic on the first probe of each epoch:
        // old pairs are answered entirely from carried memos, new pairs
        // pay exactly their cold cost.
        let first = &reference.results[e * per_epoch];
        if e == 0 {
            assert_eq!(first.stats.cache_hits, 0, "seed sweep starts cold");
            assert_eq!(
                first.stats.hashes_compared,
                cold_now[0].stats.hashes_compared
            );
        } else {
            assert_eq!(
                first.stats.hashes_compared,
                cold_now[0].stats.hashes_compared - cold_prev[0].stats.hashes_compared,
                "epoch {e}: new hashes must be exactly the new pairs' cold cost"
            );
            assert_eq!(
                first.stats.cache_hits, cold_prev[0].stats.candidates,
                "epoch {e}: every old pair must be a carried-memo hit"
            );
            // The carried-memo economy is visible in the cache's lifetime
            // stats: hits grow across every bump.
            assert!(
                reference.hits_after_epoch[e] > reference.hits_after_epoch[e - 1],
                "epoch {e}: carried memos produced no hits"
            );
        }
        cold_prev = cold_now;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The headline pin: random batch-split schedules × parallelism
    /// {1,2,4} × sessions {1,2}, exhaustive candidates.
    #[test]
    fn streamed_ingest_probe_equals_cold_batch_run(
        n in 36usize..60,
        seed in 1u64..400,
        cuts in proptest::collection::vec(0.1f64..0.9, 1..3),
        sessions in 1usize..3,
    ) {
        let records = dataset(n, seed);
        // Turn the cut fractions into a strictly increasing prefix-length
        // schedule: seed corpus ≥ 4 records, final bound = n.
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|&f| 4 + ((n - 5) as f64 * f) as usize)
            .collect();
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();
        check_schedule(&records, &bounds, sessions, ApssConfig::default());
    }
}

/// The same contract through the banded join: streamed probes over a
/// grown corpus are bit-identical to cold banded runs, and the whole
/// history — including work counters — is invariant across thread
/// counts.
#[test]
fn banded_streamed_history_is_thread_invariant_and_matches_cold() {
    let records = dataset(110, 23);
    let bounds = [50usize, 80, 110];
    let base = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        ..ApssConfig::default()
    };
    check_schedule(&records, &bounds, 2, base);
}

/// The cached-bucket probe path, explicitly: banded candidates over a
/// growing corpus are served incrementally from the epoch-persistent
/// bucket cache (`CacheMemoryStats::bucket_cache_bytes` is live and
/// counted in `total_bytes`), ingest reports an O(segments + tail)
/// snapshot-clone cost, and a capacity too small for the bucket cache
/// drops it without changing any probe output — including the outputs
/// of threshold watches riding the same epoch ladder, whose delta
/// concatenation must equal cold probes whether their delta candidates
/// come from the warm bucket cache or the cold fallback join.
#[test]
fn bucket_cache_accounting_and_capacity_drop() {
    use plasma_core::cache::CacheCapacity;

    let records = dataset(90, 31);
    let bounds = [30usize, 31, 60, 90];
    let cfg = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        ..ApssConfig::default()
    };

    let mut cached =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg);
    // bounded(0) cannot hold the bucket cache (or any memo): the dropped
    // cache must change work, never answers.
    let mut dropped =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg)
            .with_cache_capacity(CacheCapacity::bounded(0));

    // One watch per ladder threshold on each session: every epoch below
    // also checks that the watches' concatenated deltas reproduce the
    // cold pair lists, on both sides of the eviction divide.
    let watches: Vec<_> = [&cached, &dropped]
        .iter()
        .flat_map(|s| LADDER.iter().map(|&t| s.watch(t)))
        .collect();
    let mut merged: Vec<Vec<plasma_core::apss::SimilarPair>> = vec![Vec::new(); watches.len()];

    let mut prev = bounds[0];
    for (e, &hi) in bounds.iter().enumerate() {
        if e > 0 {
            let report = cached.ingest(&records[prev..hi]);
            dropped.ingest(&records[prev..hi]);
            assert!(report.snapshot_clone_bytes > 0, "epoch {e}");
            assert!(
                report.snapshot_clone_bytes
                    <= cached.sketches().expect("built").byte_size()
                        + cached.sketches().expect("built").sealed_segments()
                            * std::mem::size_of::<std::sync::Arc<[u64]>>(),
                "epoch {e}: clone cost bounded by tail + segment pointers"
            );
            prev = hi;
        }
        for (w, handle) in watches.iter().enumerate() {
            let delta = handle.poll().expect("one delta per adopted epoch");
            assert_eq!(delta.epoch, e as u64, "watch {w}");
            assert!(handle.poll().is_none(), "watch {w}: exactly one delta");
            merged[w].extend(delta.new_pairs);
            merged[w].sort_unstable_by_key(|p| (p.i, p.j));
        }
        for (ti, &t) in LADDER.iter().enumerate() {
            let warm = cached.probe(t);
            let cold_dropped = dropped.probe(t);
            let cold = apss(&records[..hi], Similarity::Cosine, t, &cfg);
            assert_eq!(warm.pairs, cold.pairs, "epoch {e} t={t}");
            assert_eq!(warm.candidates, cold.stats.candidates, "epoch {e}");
            assert_eq!(warm.pairs, cold_dropped.pairs, "epoch {e} t={t} dropped");
            assert_eq!(warm.pruned, cold_dropped.pruned, "epoch {e}");
            // Both sessions' watches concatenate to the same cold truth,
            // eviction or not.
            assert_eq!(merged[ti], cold.pairs, "epoch {e} t={t} watch");
            assert_eq!(
                merged[LADDER.len() + ti],
                cold.pairs,
                "epoch {e} t={t} watch under bounded(0)"
            );
        }
        let stats = cached.shared_cache().expect("built").memory_stats();
        assert!(
            stats.bucket_cache_bytes > 0,
            "epoch {e}: banded probes must keep the bucket cache resident"
        );
        assert_eq!(
            cached.shared_cache().expect("built").total_bytes(),
            stats.sketch_bytes + stats.memo_bytes + stats.bucket_cache_bytes,
            "epoch {e}: bucket bytes must be accounted in the total"
        );
        assert_eq!(
            dropped
                .shared_cache()
                .expect("built")
                .memory_stats()
                .bucket_cache_bytes,
            0,
            "epoch {e}: a zero cap cannot hold the bucket cache"
        );
    }
}

/// The middle rung of the eviction ladder, explicitly: a byte cap
/// *between* "fits everything" and "fits nothing" triggers partial
/// coldest-bands-first eviction — the bucket cache stays resident under
/// its cap (warm bands survive memory pressure instead of the old
/// whole-cache drop), and every probe output stays bit-identical to the
/// cold reference while bands come and go.
#[test]
fn partial_eviction_ladder_rung_survives_memory_pressure() {
    use plasma_core::cache::CacheCapacity;

    // Many small clusters: the candidate pair set (not evictable — it is
    // the cache's canonical answer) stays small, so the cap pressure
    // lands on the per-band bucket maps partial eviction can actually
    // shed. The heavily-clustered `dataset()` corpus would be pair-set
    // dominated and bottom out on the whole-drop rung instead.
    let records = GaussianSpec {
        spread: 0.8,
        ..GaussianSpec::new("pressure", 90, 8, 30)
    }
    .generate(31)
    .records;
    let bounds = [30usize, 60, 90];
    let cfg = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        ..ApssConfig::default()
    };

    // Measure the unbounded footprint first; the partial rung's cap must
    // sit strictly inside the ladder.
    let mut unbounded =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg);
    let mut prev = bounds[0];
    for &hi in &bounds {
        if hi > prev {
            unbounded.ingest(&records[prev..hi]);
            prev = hi;
        }
        for &t in &LADDER {
            unbounded.probe(t);
        }
    }
    let full_bytes = unbounded
        .shared_cache()
        .expect("built")
        .memory_stats()
        .bucket_cache_bytes;
    assert!(full_bytes > 0);

    let cap = full_bytes * 3 / 4;
    let mut partial =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg)
            .with_cache_capacity(CacheCapacity::bounded(cap));
    let mut prev = bounds[0];
    for (e, &hi) in bounds.iter().enumerate() {
        if hi > prev {
            partial.ingest(&records[prev..hi]);
            prev = hi;
        }
        for &t in &LADDER {
            let warm = partial.probe(t);
            let cold = apss(&records[..hi], Similarity::Cosine, t, &cfg);
            assert_eq!(warm.pairs, cold.pairs, "epoch {e} t={t}");
            assert_eq!(warm.candidates, cold.stats.candidates, "epoch {e}");
            assert_eq!(warm.pruned, cold.stats.pruned, "epoch {e}");
        }
        let bytes = partial
            .shared_cache()
            .expect("built")
            .memory_stats()
            .bucket_cache_bytes;
        assert!(
            bytes <= cap,
            "epoch {e}: cap must be honored ({bytes} > {cap})"
        );
    }
    let bytes = partial
        .shared_cache()
        .expect("built")
        .memory_stats()
        .bucket_cache_bytes;
    assert!(
        bytes > 0,
        "partial eviction must keep the cache resident, not drop it whole"
    );
    assert!(
        bytes < full_bytes,
        "memory pressure must actually evict something ({bytes} vs {full_bytes})"
    );
}

/// Driver-level pin: `StreamingSession::probe` reports (the user-facing
/// surface) agree with a cold `apss` run at every epoch, for both forks of
/// a two-session corpus.
#[test]
fn streaming_session_reports_match_cold_sessions_at_every_epoch() {
    let records = dataset(56, 77);
    let bounds = [24usize, 40, 56];
    let cfg = ApssConfig::default();
    let mut a =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg);
    let mut b = a.fork();
    let mut prev = 0usize;
    for (e, &hi) in bounds.iter().enumerate() {
        if e > 0 {
            // Alternate which session ingests.
            let ingester = if e % 2 == 1 { &mut b } else { &mut a };
            ingester.ingest(&records[prev..hi]);
        }
        prev = hi;
        for (label, s) in [("a", &mut a), ("b", &mut b)] {
            for &t in &LADDER {
                let streamed = s.probe(t);
                let cold = apss(&records[..hi], Similarity::Cosine, t, &cfg);
                assert_eq!(streamed.pairs, cold.pairs, "epoch {e} {label} t={t}");
                assert_eq!(streamed.candidates, cold.stats.candidates, "epoch {e}");
                assert_eq!(streamed.pruned, cold.stats.pruned, "epoch {e}");
            }
        }
        if e > 0 {
            let stats = a.shared_cache().expect("built").memory_stats();
            assert!(stats.cache_hits > 0, "carried memos must score hits");
        }
    }
    assert_eq!(a.epoch(), 2);
    assert_eq!(b.len(), records.len());
}
