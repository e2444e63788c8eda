//! Property tests pinning the parallel APSS engine's core guarantees:
//!
//! * `apss_with_sketches` returns identical pairs, estimates, and counter
//!   stats for `parallelism = 1` and `parallelism = N`, on both hash
//!   families and both candidate strategies;
//! * a `SharedKnowledgeCache` workload returns bit-identical results for
//!   every `(threads × concurrent sessions)` configuration, probes racing
//!   from OS threads return exactly the fresh sequential answer, and a
//!   re-probe at an already-probed threshold compares zero new hashes;
//! * banded probe outputs — estimates, stats, and work counters, cold and
//!   through the knowledge cache — are bit-identical at every thread count
//!   on a hot-bucket corpus;
//! * `incremental_apss` reports bit-identical estimates at 1 and 4
//!   workers, over enough pairs to span several evaluation blocks;
//! * every entry into the shared evaluation loop (cold APSS, cold / warm /
//!   batch-mismatched cached probes, 4-worker runs) equals an oracle that
//!   walks the reference candidates (`exhaustive` / `banded_sequential`)
//!   directly with the un-tabled `BayesLsh::evaluate_pair`.

use std::sync::Arc;

use proptest::prelude::*;

use plasma_core::apss::{
    apss_with_sketches, build_sketches, ApssConfig, ApssStats, CandidateStrategy, SimilarPair,
};
use plasma_core::{ApssResult, SharedKnowledgeCache, StreamingSession};
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::{BayesLsh, PairDecision};
use plasma_lsh::candidates::{banded_sequential, exhaustive};
use plasma_lsh::sketch::SketchSet;

fn gaussian_records(n: usize, seed: u64) -> Vec<SparseVector> {
    GaussianSpec {
        separation: 3.5,
        spread: 0.7,
        ..GaussianSpec::new("det", n, 6, 3)
    }
    .generate(seed)
    .records
}

fn set_records(n: usize, seed: u64) -> Vec<SparseVector> {
    use rand::Rng;
    let mut rng = plasma_data::rng::seeded(seed);
    (0..n)
        .map(|i| {
            // Overlapping windows of a small universe → a healthy mix of
            // pruned, accepted, and exhausted pairs.
            let base = (i as u32 / 4) * 30;
            let len = rng.gen_range(20usize..60);
            let items: Vec<u32> = (0..len).map(|_| base + rng.gen_range(0..90u32)).collect();
            SparseVector::from_set(items)
        })
        .collect()
}

/// Pairs, estimates, and the decision counters — everything that is
/// interleaving-independent even for probes racing on one shared cache.
fn assert_same_outputs(serial: &ApssResult, parallel: &ApssResult, label: &str) {
    assert_eq!(
        serial.pairs.len(),
        parallel.pairs.len(),
        "{label}: pair count"
    );
    for (a, b) in serial.pairs.iter().zip(&parallel.pairs) {
        assert_eq!((a.i, a.j), (b.i, b.j), "{label}: pair ids");
        assert_eq!(
            a.similarity.to_bits(),
            b.similarity.to_bits(),
            "{label}: similarity of ({}, {})",
            a.i,
            a.j
        );
    }
    assert_eq!(
        serial.estimates.len(),
        parallel.estimates.len(),
        "{label}: estimate count"
    );
    for (a, b) in serial.estimates.iter().zip(&parallel.estimates) {
        assert_eq!((a.0, a.1), (b.0, b.1), "{label}: estimate ids");
        assert_eq!(
            a.2.decision, b.2.decision,
            "{label}: decision of ({}, {})",
            a.0, a.1
        );
        assert_eq!(a.2.matches, b.2.matches, "{label}: matches");
        assert_eq!(a.2.hashes, b.2.hashes, "{label}: hashes");
        assert_eq!(
            a.2.map_similarity.to_bits(),
            b.2.map_similarity.to_bits(),
            "{label}: MAP estimate"
        );
        assert_eq!(
            a.2.variance.to_bits(),
            b.2.variance.to_bits(),
            "{label}: variance"
        );
    }
    // Decision counters must agree exactly.
    assert_eq!(
        serial.stats.candidates, parallel.stats.candidates,
        "{label}"
    );
    assert_eq!(serial.stats.pruned, parallel.stats.pruned, "{label}");
    assert_eq!(serial.stats.accepted, parallel.stats.accepted, "{label}");
    assert_eq!(serial.stats.exhausted, parallel.stats.exhausted, "{label}");
}

/// Full bit-identity: outputs plus the work counters, which are pinned
/// for any *serialized* probe order (and any thread count).
fn assert_identical(serial: &ApssResult, parallel: &ApssResult, label: &str) {
    assert_same_outputs(serial, parallel, label);
    assert_eq!(
        serial.stats.hashes_compared, parallel.stats.hashes_compared,
        "{label}"
    );
    assert_eq!(
        serial.stats.cache_hits, parallel.stats.cache_hits,
        "{label}"
    );
}

fn check_both_strategies(
    records: &[SparseVector],
    measure: Similarity,
    threshold: f64,
    threads: usize,
    exact: bool,
) {
    for strategy in [
        CandidateStrategy::Exhaustive,
        CandidateStrategy::Banded { bands: 8, width: 8 },
    ] {
        let serial_cfg = ApssConfig {
            candidates: strategy,
            exact_on_accept: exact,
            parallelism: Some(1),
            ..ApssConfig::default()
        };
        let parallel_cfg = ApssConfig {
            parallelism: Some(threads),
            ..serial_cfg
        };
        let (sketches, _) = build_sketches(records, measure, &serial_cfg);
        let serial = apss_with_sketches(records, measure, &sketches, threshold, &serial_cfg);
        let parallel = apss_with_sketches(records, measure, &sketches, threshold, &parallel_cfg);
        assert_identical(
            &serial,
            &parallel,
            &format!("{measure:?}/{strategy:?}/threads={threads}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simhash_probe_is_thread_count_invariant(
        n in 30usize..90,
        seed in 0u64..1000,
        threshold in 0.5f64..0.95,
        threads in 2usize..9,
    ) {
        let records = gaussian_records(n, seed);
        check_both_strategies(&records, Similarity::Cosine, threshold, threads, false);
    }

    #[test]
    fn minhash_probe_is_thread_count_invariant(
        n in 30usize..90,
        seed in 0u64..1000,
        threshold in 0.3f64..0.9,
        threads in 2usize..9,
    ) {
        let records = set_records(n, seed);
        check_both_strategies(&records, Similarity::Jaccard, threshold, threads, false);
    }

    #[test]
    fn exact_on_accept_is_thread_count_invariant(
        seed in 0u64..200,
        threads in 2usize..7,
    ) {
        let records = gaussian_records(50, seed);
        check_both_strategies(&records, Similarity::Cosine, 0.7, threads, true);
    }
}

/// A fixed probe workload round-robined across `sessions` live handles to
/// one shared cache, probes serialized in global order, each probe run at
/// `threads` workers. Returns every probe's full result.
fn run_shared_workload(
    records: &[SparseVector],
    threads: usize,
    sessions: usize,
    workload: &[f64],
) -> Vec<ApssResult> {
    let cfg = ApssConfig {
        parallelism: Some(threads),
        ..ApssConfig::default()
    };
    run_shared_workload_cfg(records, &cfg, sessions, workload)
}

/// [`run_shared_workload`] with a caller-supplied config (candidate
/// strategy and thread count pinned by the caller).
fn run_shared_workload_cfg(
    records: &[SparseVector],
    cfg: &ApssConfig,
    sessions: usize,
    workload: &[f64],
) -> Vec<ApssResult> {
    let cfg = *cfg;
    let (sketches, _) = build_sketches(records, Similarity::Cosine, &cfg);
    let cache = Arc::new(SharedKnowledgeCache::new(sketches));
    let handles: Vec<Arc<SharedKnowledgeCache>> = (0..sessions).map(|_| cache.clone()).collect();
    workload
        .iter()
        .enumerate()
        .map(|(q, &t)| handles[q % sessions].probe(records, Similarity::Cosine, t, &cfg))
        .collect()
}

/// The tentpole guarantee: for a serialized probe workload over one
/// shared cache, *everything* — pairs, estimates, decision counters, and
/// the work counters — is bit-identical across every
/// `(threads × concurrent sessions)` configuration. The memo pool's
/// deepest-wins merge is order-free, so which session published a memo
/// never shows in any later probe.
#[test]
fn shared_cache_workload_invariant_across_threads_and_sessions() {
    let records = gaussian_records(70, 99);
    let workload = [0.9, 0.6, 0.75, 0.8, 0.6, 0.5];
    let reference = run_shared_workload(&records, 1, 1, &workload);
    assert!(reference[1].stats.cache_hits > 0, "workload must hit cache");
    for threads in [1usize, 2, 4] {
        for sessions in [1usize, 2, 4] {
            let run = run_shared_workload(&records, threads, sessions, &workload);
            for (q, (a, b)) in reference.iter().zip(&run).enumerate() {
                assert_identical(
                    a,
                    b,
                    &format!("threads={threads} sessions={sessions} probe#{q}"),
                );
            }
        }
    }
}

/// Same matrix through the user-facing API: real `StreamingSession`s attached via
/// `with_shared_cache`, each folding its own cumulative curve, reports
/// compared field by field against the single-threaded single-session
/// reference.
#[test]
fn attached_sessions_report_invariant_across_threads_and_sessions() {
    let records = gaussian_records(60, 17);
    let workload = [0.85, 0.6, 0.85, 0.7];
    // (threshold, pair ids, candidates, cache hits, hashes compared).
    type ReportRow = (f64, Vec<(u32, u32)>, u64, u64, u64);
    let run = |threads: usize, sessions: usize| -> Vec<ReportRow> {
        let cfg = ApssConfig {
            parallelism: Some(threads),
            ..ApssConfig::default()
        };
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        let cache = Arc::new(SharedKnowledgeCache::new(sketches));
        let mut open: Vec<StreamingSession> = (0..sessions)
            .map(|_| {
                StreamingSession::from_records(records.clone(), Similarity::Cosine, cfg)
                    .with_shared_cache(cache.clone())
            })
            .collect();
        workload
            .iter()
            .enumerate()
            .map(|(q, &t)| {
                let r = open[q % sessions].probe(t);
                let pairs = r.pairs.iter().map(|p| (p.i, p.j)).collect();
                (t, pairs, r.candidates, r.cache_hits, r.hashes_compared)
            })
            .collect()
    };
    let reference = run(1, 1);
    for threads in [1usize, 2, 4] {
        for sessions in [1usize, 2, 4] {
            assert_eq!(
                run(threads, sessions),
                reference,
                "threads={threads} sessions={sessions}"
            );
        }
    }
}

/// Probes racing from OS threads against one shared cache: outputs are
/// still exactly the fresh sequential answer (only the work counters may
/// redistribute between racers), and afterwards every probed threshold
/// re-probes for free. A second round races those free re-probes, which
/// read resident profiles in place, against probes at lower thresholds
/// that deepen the same profiles.
#[test]
fn racing_sessions_return_fresh_results_and_warm_the_cache() {
    let records = gaussian_records(60, 7);
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cache = Arc::new(SharedKnowledgeCache::new(sketches.clone()));
    let race = |thresholds: &[f64]| -> Vec<(f64, ApssResult)> {
        std::thread::scope(|s| {
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
        })
    };
    let assert_fresh = |results: &[(f64, ApssResult)], round: &str| {
        for (t, result) in results {
            let fresh = apss_with_sketches(&records, Similarity::Cosine, &sketches, *t, &cfg);
            assert_same_outputs(&fresh, result, &format!("{round} probe at {t}"));
        }
    };
    let thresholds = [0.9, 0.7, 0.5, 0.8];
    assert_fresh(&race(&thresholds), "raced");
    // The cache now covers every pair to each threshold's depth: every
    // re-probe is answered without a single new hash comparison.
    for &t in &thresholds {
        let again = cache.probe(&records, Similarity::Cosine, t, &cfg);
        assert_eq!(again.stats.hashes_compared, 0, "re-probe at {t}");
        assert_eq!(again.stats.cache_hits, again.stats.candidates);
    }
    let mixed = race(&[0.9, 0.6, 0.7, 0.4, 0.5, 0.8]);
    assert_fresh(&mixed, "replay-vs-deepen");
    let deepened: u64 = (mixed.iter())
        .filter(|(t, _)| [0.6, 0.4].contains(t))
        .map(|(_, r)| r.stats.hashes_compared)
        .sum();
    assert!(
        deepened > 0,
        "the lower thresholds deepen resident profiles"
    );
}

/// A corpus where well over half of all records are exact copies of one
/// template — every band has a dominant bucket.
fn hot_bucket_records(n: usize) -> Vec<SparseVector> {
    (0..n)
        .map(|i| {
            // 75% land in cluster 0; the rest spread over clusters 2/4/6.
            let c = if i % 4 != 3 { 0 } else { 1 + (i % 6) as u32 };
            SparseVector::from_set((c * 50..c * 50 + 40).collect())
        })
        .collect()
}

/// Full banded probe outputs are bit-identical at every thread count on
/// the hot-bucket corpus — including the work counters (the candidate
/// set is the same, so the evaluation schedule is the same).
#[test]
fn banded_probe_invariant_across_threads() {
    let records = hot_bucket_records(70);
    let reference_cfg = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(&records, Similarity::Jaccard, &reference_cfg);
    let reference = apss_with_sketches(
        &records,
        Similarity::Jaccard,
        &sketches,
        0.7,
        &reference_cfg,
    );
    assert!(
        reference.stats.candidates > 0,
        "hot-bucket corpus must generate candidates"
    );
    for threads in [2usize, 4] {
        let cfg = ApssConfig {
            parallelism: Some(threads),
            ..reference_cfg
        };
        let run = apss_with_sketches(&records, Similarity::Jaccard, &sketches, 0.7, &cfg);
        assert_identical(&reference, &run, &format!("threads={threads}"));
    }
}

/// The same guarantee through the knowledge cache: a serialized probe
/// workload over one shared cache — banded candidates, multiple sessions
/// — is bit-identical (work counters included) for every
/// `(threads × sessions)` configuration.
#[test]
fn banded_shared_cache_workload_invariant_across_threads_and_sessions() {
    let records = hot_bucket_records(60);
    let workload = [0.9, 0.6, 0.75, 0.6];
    let base = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let reference = run_shared_workload_cfg(&records, &base, 1, &workload);
    assert!(
        reference[1].stats.cache_hits > 0,
        "workload must exercise the cache"
    );
    for threads in [1usize, 4] {
        for sessions in [1usize, 3] {
            let cfg = ApssConfig {
                parallelism: Some(threads),
                ..base
            };
            let run = run_shared_workload_cfg(&records, &cfg, sessions, &workload);
            for (q, (a, b)) in reference.iter().zip(&run).enumerate() {
                assert_identical(
                    a,
                    b,
                    &format!("threads={threads} sessions={sessions} probe#{q}"),
                );
            }
        }
    }
}

/// `incremental_apss`: 256 records (32 640 pairs) engage 4 evaluation
/// workers and span several blocks, and the run reports estimates
/// bit-identical to the sequential one.
#[test]
fn incremental_apss_invariant_across_threads() {
    let records = gaussian_records(256, 23);
    let report_t = [0.75, 0.85];
    let report_at = [0.25, 0.5, 1.0];
    let run = |parallelism| {
        let cfg = ApssConfig {
            parallelism: Some(parallelism),
            ..ApssConfig::default()
        };
        plasma_core::incremental::incremental_apss(
            &records,
            Similarity::Cosine,
            0.5,
            &report_t,
            &report_at,
            &cfg,
        )
    };
    let (plain, wide) = (run(1), run(4));
    assert_eq!(plain.steps.len(), wide.steps.len());
    for (a, b) in plain.steps.iter().zip(&wide.steps) {
        assert_eq!(a.fraction.to_bits(), b.fraction.to_bits());
        for (x, y) in a.estimates.iter().zip(&b.estimates) {
            assert_eq!(x.to_bits(), y.to_bits(), "estimate diverged");
        }
    }
    for (x, y) in plain.final_estimates.iter().zip(&wide.final_estimates) {
        assert_eq!(x.to_bits(), y.to_bits(), "final estimate");
    }
}

#[test]
fn knowledge_cache_probes_are_thread_count_invariant() {
    let records = gaussian_records(70, 99);
    let serial_cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let parallel_cfg = ApssConfig {
        parallelism: Some(6),
        ..ApssConfig::default()
    };
    let (sk1, _) = build_sketches(&records, Similarity::Cosine, &serial_cfg);
    let (sk2, _) = build_sketches(&records, Similarity::Cosine, &parallel_cfg);
    let serial_cache = SharedKnowledgeCache::new(sk1);
    let parallel_cache = SharedKnowledgeCache::new(sk2);
    for threshold in [0.9, 0.6, 0.75] {
        let serial = serial_cache.probe(&records, Similarity::Cosine, threshold, &serial_cfg);
        let parallel = parallel_cache.probe(&records, Similarity::Cosine, threshold, &parallel_cfg);
        assert_identical(&serial, &parallel, &format!("cache probe at {threshold}"));
        assert!(threshold == 0.9 || parallel.stats.cache_hits > 0);
    }
}

/// The expected probe result built without the shared evaluation loop or
/// the served join: a direct walk over the reference candidates with the
/// un-tabled `BayesLsh::evaluate_pair`.
fn oracle(
    records: &[SparseVector],
    measure: Similarity,
    sketches: &SketchSet,
    t: f64,
    cfg: &ApssConfig,
) -> ApssResult {
    let engine = BayesLsh::new(sketches.family(), cfg.bayes);
    let (mut pairs, mut estimates, mut stats) = (Vec::new(), Vec::new(), ApssStats::default());
    let candidates = match cfg.candidates {
        CandidateStrategy::Exhaustive => exhaustive(sketches.len()),
        CandidateStrategy::Banded { bands, width } => banded_sequential(sketches, bands, width),
    };
    for (i, j) in candidates {
        let est = engine.evaluate_pair(sketches, i as usize, j as usize, t);
        stats.candidates += 1;
        stats.hashes_compared += est.hashes as u64;
        match est.decision {
            PairDecision::Pruned => stats.pruned += 1,
            PairDecision::Accepted => stats.accepted += 1,
            PairDecision::Exhausted => stats.exhausted += 1,
        }
        let similarity = if cfg.exact_on_accept {
            measure.compute(&records[i as usize], &records[j as usize])
        } else {
            est.map_similarity
        };
        if est.decision != PairDecision::Pruned && similarity >= t {
            pairs.push(SimilarPair { i, j, similarity });
        }
        estimates.push((i, j, est));
    }
    ApssResult {
        threshold: t,
        pairs,
        estimates,
        stats,
    }
}

#[test]
fn every_entry_into_the_evaluation_loop_matches_a_direct_walk() {
    let records = gaussian_records(70, 17);
    let (measure, t) = (Similarity::Cosine, 0.7);
    for exact in [false, true] {
        for strategy in [
            CandidateStrategy::Exhaustive,
            CandidateStrategy::Banded { bands: 8, width: 8 },
        ] {
            let label = format!("exact={exact}/{strategy:?}");
            let cfg = ApssConfig {
                candidates: strategy,
                exact_on_accept: exact,
                parallelism: Some(1),
                ..ApssConfig::default()
            };
            let (sketches, _) = build_sketches(&records, measure, &cfg);
            let expected = oracle(&records, measure, &sketches, t, &cfg);
            assert!(expected.stats.pruned > 0 && !expected.pairs.is_empty());

            let cold = apss_with_sketches(&records, measure, &sketches, t, &cfg);
            assert_identical(&expected, &cold, &format!("{label}: cold apss"));

            let cache = SharedKnowledgeCache::new(sketches.clone());
            let first = cache.probe(&records, measure, t, &cfg);
            assert_identical(&expected, &first, &format!("{label}: cold cached probe"));

            let warm = cache.probe(&records, measure, t, &cfg);
            assert_same_outputs(&expected, &warm, &format!("{label}: warm re-probe"));
            assert_eq!(warm.stats.hashes_compared, 0, "{label}");
            assert_eq!(warm.stats.cache_hits, warm.stats.candidates, "{label}");

            // A batch the pinned schedule rejects runs the cold walk (of
            // its own schedule) against the same cache.
            let mut other = cfg;
            other.bayes.batch = cfg.bayes.batch / 2;
            let mismatched = cache.probe(&records, measure, t, &other);
            let expected_other = oracle(&records, measure, &sketches, t, &other);
            assert_identical(
                &expected_other,
                &mismatched,
                &format!("{label}: batch mismatch"),
            );

            let sharded_cfg = ApssConfig {
                parallelism: Some(4),
                ..cfg
            };
            let sharded = apss_with_sketches(&records, measure, &sketches, t, &sharded_cfg);
            assert_identical(&expected, &sharded, &format!("{label}: 4 workers, cold"));
            let sharded =
                SharedKnowledgeCache::new(sketches).probe(&records, measure, t, &sharded_cfg);
            assert_identical(&expected, &sharded, &format!("{label}: 4 workers, cached"));
        }
    }
}
