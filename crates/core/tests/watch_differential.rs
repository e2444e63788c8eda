//! The watch-equivalence differential suite.
//!
//! Pins the continuous-probe contract end to end: a `watch(threshold)`
//! registered on a streaming corpus receives, per adopted epoch, a
//! [`WatchDelta`] such that
//!
//! * **concatenated deltas == cold probe at every epoch** — merging the
//!   deltas delivered up to epoch `e` reproduces a cold batch probe of
//!   the epoch-`e` corpus bit for bit: pair ids, similarity bits,
//!   estimate decision records, and canonical ascending `(i, j)` order;
//! * deltas are **disjoint across epochs** (a pair is delivered exactly
//!   once, at the epoch that created it) and each delta is internally
//!   sorted;
//! * the whole delta history — including work counters — is invariant
//!   across parallelism {1, 2, 4} and segment geometry {8, 512}, for any
//!   batch-split schedule;
//! * a watch whose band shape differs from the probes' takes the cold
//!   delta join with unchanged outputs, and a late-registered watch's
//!   first delta equals the full cold probe at its registration epoch;
//! * the evaluation side is exactly as incremental as the carry-over
//!   arithmetic promises: an epoch's delta pays
//!   `cold(full).hashes − cold(old).hashes` hash comparisons, and a
//!   second watch at the same threshold rides the first one's published
//!   memos hit for hit.

use proptest::prelude::*;

use plasma_core::apss::{apss_with_sketches, build_sketches, ApssConfig, CandidateStrategy};
use plasma_core::cache::SharedKnowledgeCache;
use plasma_core::streaming::StreamingSession;
use plasma_core::watch::{WatchDelta, WatchRegistry};
use plasma_core::ApssResult;
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::PairEstimate;
use plasma_lsh::family::LshFamily;
use plasma_lsh::sketch::Sketcher;

/// The thresholds every run watches simultaneously (high → low): each
/// must be exact independently, sharing one memo pool.
const WATCHED: [f64; 2] = [0.85, 0.65];

fn dataset(n: usize, seed: u64) -> Vec<SparseVector> {
    GaussianSpec {
        separation: 3.5,
        spread: 0.7,
        ..GaussianSpec::new("watch-diff", n, 6, 3)
    }
    .generate(seed)
    .records
}

/// One watched history: seed the corpus with `bounds[0]` records,
/// register one watch per `thresholds` entry, then ingest up to each
/// further bound. Returns each watch's drained deltas — registration
/// delta first, then one per epoch. `segment_records` pins a custom
/// sketch-store geometry by seeding the epoch-0 cache explicitly.
fn run_watched(
    records: &[SparseVector],
    bounds: &[usize],
    thresholds: &[f64],
    cfg: ApssConfig,
    segment_records: Option<usize>,
) -> Vec<Vec<WatchDelta>> {
    let seed = records[..bounds[0]].to_vec();
    let session = match segment_records {
        Some(g) => {
            // Geometry is a property of the sketch set, preserved by
            // every extend: seeding the cache with a custom-geometry
            // build pins it for the whole run.
            let sketches = Sketcher::new(
                LshFamily::for_measure(Similarity::Cosine),
                cfg.n_hashes,
                cfg.seed,
            )
            .with_parallelism(cfg.parallelism)
            .with_segment_records(g)
            .sketch_all(&seed);
            StreamingSession::from_records(seed, Similarity::Cosine, cfg)
                .with_shared_cache(std::sync::Arc::new(SharedKnowledgeCache::new(sketches)))
        }
        None => StreamingSession::from_records(seed, Similarity::Cosine, cfg),
    };
    let mut session = session.with_parallelism(cfg.parallelism);
    let handles: Vec<_> = thresholds.iter().map(|&t| session.watch(t)).collect();
    // Ingest through an alternating fork: watches belong to the corpus,
    // not the registering session.
    let mut fork = session.fork();
    let mut prev = bounds[0];
    for (k, &hi) in bounds[1..].iter().enumerate() {
        let ingester = if k % 2 == 1 { &mut fork } else { &mut session };
        let report = ingester.ingest(&records[prev..hi]);
        assert_eq!(report.epoch, (k + 1) as u64, "one bump per batch");
        prev = hi;
    }
    handles.iter().map(|h| h.drain()).collect()
}

/// Cold reference: fresh sketches over a prefix, cache-less evaluation.
fn cold(prefix: &[SparseVector], t: f64, cfg: &ApssConfig) -> ApssResult {
    let (sketches, _) = build_sketches(prefix, Similarity::Cosine, cfg);
    apss_with_sketches(prefix, Similarity::Cosine, &sketches, t, cfg)
}

/// Merged view of one watch's deltas: `(i, j, similarity)` pairs plus
/// the per-candidate estimates, both in canonical order.
type MergedDeltas = (Vec<(u32, u32, f64)>, Vec<(u32, u32, PairEstimate)>);

/// Merges the first `upto` deltas of one watch into (pairs, estimates),
/// asserting along the way that each delta is internally sorted and that
/// no pair or candidate appears in two deltas (disjointness) — so a
/// plain sort of the concatenation is a faithful merge.
fn merge_deltas(deltas: &[WatchDelta], upto: usize, label: &str) -> MergedDeltas {
    let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
    let mut estimates: Vec<(u32, u32, PairEstimate)> = Vec::new();
    for (e, delta) in deltas[..upto].iter().enumerate() {
        assert!(
            delta
                .new_pairs
                .windows(2)
                .all(|w| (w[0].i, w[0].j) < (w[1].i, w[1].j)),
            "{label}: delta {e} pairs must be strictly sorted by (i, j)"
        );
        assert!(
            delta
                .estimates
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "{label}: delta {e} estimates must be strictly sorted by (i, j)"
        );
        pairs.extend(delta.new_pairs.iter().map(|p| (p.i, p.j, p.similarity)));
        estimates.extend(delta.estimates.iter().cloned());
    }
    pairs.sort_unstable_by_key(|&(i, j, _)| (i, j));
    estimates.sort_unstable_by_key(|&(i, j, _)| (i, j));
    assert!(
        pairs
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
        "{label}: deltas must be pair-disjoint across epochs"
    );
    assert!(
        estimates
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
        "{label}: deltas must be candidate-disjoint across epochs"
    );
    (pairs, estimates)
}

/// The headline equivalence: the merged deltas equal a cold probe bit
/// for bit — pairs, estimates, canonical order.
fn assert_merged_equals_cold(merged: &MergedDeltas, cold_full: &ApssResult, label: &str) {
    let (pairs, estimates) = merged;
    assert_eq!(pairs.len(), cold_full.pairs.len(), "{label}: pair count");
    for (x, y) in pairs.iter().zip(&cold_full.pairs) {
        assert_eq!((x.0, x.1), (y.i, y.j), "{label}: pair ids");
        assert_eq!(
            x.2.to_bits(),
            y.similarity.to_bits(),
            "{label}: similarity of ({}, {})",
            x.0,
            x.1
        );
    }
    assert_eq!(
        estimates.len(),
        cold_full.estimates.len(),
        "{label}: candidate count"
    );
    for (x, y) in estimates.iter().zip(&cold_full.estimates) {
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
}

/// Two watched histories (e.g. different parallelism or geometry) must
/// be bit-identical delta for delta — including work counters, since
/// watch evaluations are serialized by ingest order.
fn assert_same_history(a: &[Vec<WatchDelta>], b: &[Vec<WatchDelta>], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: watch count");
    for (w, (da, db)) in a.iter().zip(b).enumerate() {
        assert_eq!(da.len(), db.len(), "{label}: watch {w} delta count");
        for (e, (x, y)) in da.iter().zip(db).enumerate() {
            let at = format!("{label}: watch {w} epoch-delta {e}");
            assert_eq!(x.epoch, y.epoch, "{at}: epoch");
            assert_eq!(x.threshold.to_bits(), y.threshold.to_bits(), "{at}");
            assert_eq!(x.new_pairs.len(), y.new_pairs.len(), "{at}: pairs");
            for (p, q) in x.new_pairs.iter().zip(&y.new_pairs) {
                assert_eq!((p.i, p.j), (q.i, q.j), "{at}: pair ids");
                assert_eq!(p.similarity.to_bits(), q.similarity.to_bits(), "{at}");
            }
            assert_eq!(x.estimates.len(), y.estimates.len(), "{at}: estimates");
            for (p, q) in x.estimates.iter().zip(&y.estimates) {
                assert_eq!((p.0, p.1), (q.0, q.1), "{at}: estimate ids");
                assert_eq!(p.2.decision, q.2.decision, "{at}");
                assert_eq!(p.2.matches, q.2.matches, "{at}");
                assert_eq!(p.2.hashes, q.2.hashes, "{at}");
                assert_eq!(
                    p.2.map_similarity.to_bits(),
                    q.2.map_similarity.to_bits(),
                    "{at}"
                );
            }
            assert_eq!(x.work.candidates, y.work.candidates, "{at}");
            assert_eq!(x.work.pruned, y.work.pruned, "{at}");
            assert_eq!(x.work.accepted, y.work.accepted, "{at}");
            assert_eq!(x.work.exhausted, y.work.exhausted, "{at}");
            assert_eq!(x.work.hashes_compared, y.work.hashes_compared, "{at}");
            assert_eq!(x.work.cache_hits, y.work.cache_hits, "{at}");
        }
    }
}

/// The shared body: run the watched history at `parallelism = 1` as the
/// reference, re-run it at 2 and 4 threads pinning every delta including
/// work counters, then pin each watch's merged deltas against cold
/// probes at every epoch.
fn check_schedule(records: &[SparseVector], bounds: &[usize], base: ApssConfig) {
    let cfg_at = |p: usize| ApssConfig {
        parallelism: Some(p),
        ..base
    };
    let reference = run_watched(records, bounds, &WATCHED, cfg_at(1), None);
    for p in [2usize, 4] {
        let run = run_watched(records, bounds, &WATCHED, cfg_at(p), None);
        assert_same_history(&reference, &run, &format!("1 vs {p} threads"));
    }

    let cfg1 = cfg_at(1);
    for (w, &t) in WATCHED.iter().enumerate() {
        let deltas = &reference[w];
        assert_eq!(deltas.len(), bounds.len(), "one delta per epoch");
        for (e, (delta, &hi)) in deltas.iter().zip(bounds).enumerate() {
            assert_eq!(delta.epoch, e as u64, "t={t}: delta/epoch alignment");
            assert_eq!(delta.threshold.to_bits(), t.to_bits());
            // Every delivered pair and candidate touches this epoch's
            // batch — nothing old is ever re-delivered.
            if e > 0 {
                let from = bounds[e - 1] as u32;
                assert!(delta.new_pairs.iter().all(|p| p.j >= from), "t={t} e={e}");
                assert!(delta.estimates.iter().all(|c| c.1 >= from), "t={t} e={e}");
            }
            let merged = merge_deltas(deltas, e + 1, &format!("t={t} epoch {e}"));
            let cold_full = cold(&records[..hi], t, &cfg1);
            assert_merged_equals_cold(&merged, &cold_full, &format!("t={t} epoch {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The headline pin: random batch-split schedules × parallelism
    /// {1, 2, 4} × two simultaneous watches, exhaustive candidates.
    #[test]
    fn watch_deltas_concatenate_to_cold_probes(
        n in 36usize..60,
        seed in 1u64..400,
        cuts in proptest::collection::vec(0.1f64..0.9, 1..3),
    ) {
        let records = dataset(n, seed);
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|&f| 4 + ((n - 5) as f64 * f) as usize)
            .collect();
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();
        check_schedule(&records, &bounds, ApssConfig::default());
    }
}

/// The same contract through the banded join, with the delta candidates
/// served from the epoch-persistent bucket cache: the full differential,
/// then the whole delta history pinned bit-identical across parallelism ×
/// segment geometry {8, 512}.
#[test]
fn banded_watch_history_is_thread_and_geometry_invariant() {
    let records = dataset(110, 23);
    let bounds = [50usize, 80, 110];
    let base = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        ..ApssConfig::default()
    };
    check_schedule(&records, &bounds, base);
    let reference = run_watched(
        &records,
        &bounds,
        &WATCHED,
        ApssConfig {
            parallelism: Some(1),
            ..base
        },
        None,
    );
    for p in [1usize, 4] {
        for geometry in [Some(8), Some(512)] {
            let run = run_watched(
                &records,
                &bounds,
                &WATCHED,
                ApssConfig {
                    parallelism: Some(p),
                    ..base
                },
                geometry,
            );
            assert_same_history(
                &reference,
                &run,
                &format!("{p} threads, segment_records {geometry:?}"),
            );
        }
    }
}

/// A watch whose band shape differs from the probes' on one corpus finds
/// the bucket cache in the probes' shape, so its delta candidates come
/// from the cold `banded_join` fallback and never touch the shared
/// buckets. Its deltas still concatenate to cold probes at every epoch.
#[test]
fn a_watch_of_another_band_shape_takes_the_cold_delta_join() {
    let records = dataset(90, 31);
    let bounds = [30usize, 31, 60, 90];
    let probe_cfg = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let watch_cfg = ApssConfig {
        candidates: CandidateStrategy::Banded {
            bands: 16,
            width: 4,
        },
        ..probe_cfg
    };
    let family = LshFamily::for_measure(Similarity::Cosine);
    let sketcher = Sketcher::new(family, probe_cfg.n_hashes, probe_cfg.seed);
    let cache = SharedKnowledgeCache::new(sketcher.sketch_all(&records[..bounds[0]]));
    let watches = WatchRegistry::new();
    let handles: Vec<_> = (WATCHED.iter())
        .map(|&t| {
            watches.register(
                &cache,
                &records[..bounds[0]],
                Similarity::Cosine,
                t,
                &watch_cfg,
            )
        })
        .collect();
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        // The probe leaves the bucket cache in its own shape.
        cache.probe(&records[..lo], Similarity::Cosine, WATCHED[0], &probe_cfg);
        let bucketed = cache.bucket_build_records();
        let mut grown = (*cache.sketches()).clone();
        sketcher.extend_batch(&records[lo..hi], &mut grown);
        cache.grow(grown);
        watches.notify_ingest(&cache, &records[..hi], Similarity::Cosine, lo);
        assert_eq!(
            cache.bucket_build_records(),
            bucketed,
            "epoch {hi}: the watches' delta bucketed nothing into the shared cache"
        );
    }
    for (handle, &t) in handles.iter().zip(&WATCHED) {
        let deltas = handle.drain();
        assert_eq!(deltas.len(), bounds.len());
        for (e, &hi) in bounds.iter().enumerate() {
            let label = format!("t={t} epoch {e}");
            let merged = merge_deltas(&deltas, e + 1, &label);
            assert_merged_equals_cold(&merged, &cold(&records[..hi], t, &watch_cfg), &label);
        }
    }
}

/// A watch registered mid-history starts from truth: its first delta is
/// the full cold probe at its registration epoch, and from then on it
/// receives exactly what an epoch-0 watch at the same threshold does.
#[test]
fn late_registration_first_delta_is_the_full_cold_probe() {
    let records = dataset(72, 91);
    let bounds = [24usize, 48, 72];
    let cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let t = WATCHED[0];
    let mut session =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg);
    let early = session.watch(t);
    session.ingest(&records[bounds[0]..bounds[1]]);
    let late = session.watch(t);
    session.ingest(&records[bounds[1]..bounds[2]]);

    let late_deltas = late.drain();
    assert_eq!(late_deltas.len(), 2, "registration + one epoch");
    assert_eq!(late_deltas[0].epoch, 1, "registered at epoch 1");
    let first = merge_deltas(&late_deltas, 1, "late registration");
    assert_merged_equals_cold(
        &first,
        &cold(&records[..bounds[1]], t, &cfg),
        "late @ epoch 1",
    );
    // Thereafter the late watch sees exactly what the early one sees.
    let early_deltas = early.drain();
    assert_eq!(early_deltas.len(), 3);
    let (a, b) = (&early_deltas[2], &late_deltas[1]);
    assert_eq!(a.epoch, b.epoch);
    assert_eq!(a.new_pairs.len(), b.new_pairs.len());
    for (x, y) in a.new_pairs.iter().zip(&b.new_pairs) {
        assert_eq!((x.i, x.j), (y.i, y.j));
        assert_eq!(x.similarity.to_bits(), y.similarity.to_bits());
    }
    // And both concatenate to the same cold truth at the final epoch.
    let me = merge_deltas(&early_deltas, 3, "early");
    let ml = merge_deltas(&late_deltas, 2, "late");
    let final_cold = cold(&records, t, &cfg);
    assert_merged_equals_cold(&me, &final_cold, "early @ final epoch");
    assert_merged_equals_cold(&ml, &final_cold, "late @ final epoch");
}

/// Empty batches are invisible to watches: no delta, no epoch bump. And
/// the degenerate thresholds stay exact at every epoch — 0.0 delivers
/// every non-pruned pair, 1.0 almost none, both matching cold probes.
#[test]
fn empty_batches_and_degenerate_thresholds() {
    let records = dataset(56, 77);
    let bounds = [24usize, 40, 56];
    let cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let mut session =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg);
    let lo = session.watch(0.0);
    let hi = session.watch(1.0);
    assert_eq!(session.watch_count(), 2);
    assert_eq!((lo.pending(), hi.pending()), (1, 1), "registration delta");

    let before = session.epoch();
    session.ingest(&[]);
    assert_eq!(session.epoch(), before, "empty batch: no bump");
    assert_eq!(
        (lo.pending(), hi.pending()),
        (1, 1),
        "empty batch: no delta"
    );

    let mut prev = bounds[0];
    for &b in &bounds[1..] {
        session.ingest(&records[prev..b]);
        prev = b;
    }
    for (handle, t) in [(lo, 0.0f64), (hi, 1.0)] {
        let deltas = handle.drain();
        assert_eq!(deltas.len(), bounds.len());
        for (e, &b) in bounds.iter().enumerate() {
            let label = format!("t={t} epoch {e}");
            let merged = merge_deltas(&deltas, e + 1, &label);
            assert_merged_equals_cold(&merged, &cold(&records[..b], t, &cfg), &label);
        }
    }
}

/// The evaluation side is exactly as incremental as promised: a fresh
/// watch's epoch delta pays `cold(full) − cold(old)` hash comparisons
/// with zero hits (every candidate is new), and a second watch at the
/// same threshold is answered entirely from the first one's published
/// memos.
#[test]
fn watch_work_counters_obey_the_carry_over_arithmetic() {
    let records = dataset(60, 11);
    let bounds = [28usize, 60];
    let cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let t = WATCHED[0];
    let mut session =
        StreamingSession::from_records(records[..bounds[0]].to_vec(), Similarity::Cosine, cfg);
    let first = session.watch(t);
    let second = session.watch(t);
    session.ingest(&records[bounds[0]..]);

    let cold_old = cold(&records[..bounds[0]], t, &cfg);
    let cold_full = cold(&records, t, &cfg);

    let f = first.drain();
    // Registration on a cold corpus is a cold probe, work included.
    assert_eq!(f[0].work.hashes_compared, cold_old.stats.hashes_compared);
    assert_eq!(f[0].work.cache_hits, 0);
    // The epoch delta evaluates only new candidates, all fresh: its hash
    // bill is exactly the cold difference.
    assert_eq!(
        f[1].work.hashes_compared,
        cold_full.stats.hashes_compared - cold_old.stats.hashes_compared,
        "delta must pay exactly the new pairs' cold cost"
    );
    assert_eq!(f[1].work.cache_hits, 0, "no new candidate has a memo yet");
    assert_eq!(
        f[1].work.candidates,
        cold_full.stats.candidates - cold_old.stats.candidates
    );

    let s = second.drain();
    // The second watch re-reads what the first published: pure hits.
    assert_eq!(s[0].work.hashes_compared, 0);
    assert_eq!(s[0].work.cache_hits, s[0].work.candidates);
    assert_eq!(s[1].work.hashes_compared, 0);
    assert_eq!(s[1].work.cache_hits, s[1].work.candidates);
}

/// Dropping a handle cancels its watch: the registry forgets it at the
/// next ingest, and surviving watches are unaffected.
#[test]
fn dropped_handles_cancel_without_disturbing_survivors() {
    let records = dataset(48, 5);
    let cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let mut session =
        StreamingSession::from_records(records[..24].to_vec(), Similarity::Cosine, cfg);
    let keep = session.watch(WATCHED[0]);
    let cancel = session.watch(WATCHED[1]);
    assert_eq!(session.watch_count(), 2);
    drop(cancel);
    assert_eq!(session.watch_count(), 1, "drop cancels immediately");
    session.ingest(&records[24..]);
    assert_eq!(keep.pending(), 2, "survivor still gets its delta");
    let merged = merge_deltas(&keep.drain(), 2, "survivor");
    assert_merged_equals_cold(&merged, &cold(&records, WATCHED[0], &cfg), "survivor");
}

/// Satellite pin: K watches on one corpus are a **single evaluation
/// pass** per epoch — the fresh-candidate slice is generated once and
/// shared, however many watches consume it, and the deltas each watch
/// receives are still bit-identical to cold probes.
#[test]
fn k_watches_share_one_candidate_generation_per_epoch() {
    let records = dataset(60, 19);
    let cfg = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let mut session =
        StreamingSession::from_records(records[..30].to_vec(), Similarity::Cosine, cfg);
    let thresholds = [0.9, 0.8, 0.7, 0.6, 0.5];
    let watches: Vec<_> = thresholds.iter().map(|&t| session.watch(t)).collect();
    let cache = session.shared_cache().expect("built by registration");
    assert_eq!(cache.delta_builds(), 0, "registrations are full probes");

    session.ingest(&records[30..45]);
    assert_eq!(
        cache.delta_builds(),
        1,
        "epoch 1: one candidate generation feeds all {} watches",
        watches.len()
    );
    session.ingest(&records[45..60]);
    assert_eq!(
        cache.delta_builds(),
        2,
        "epoch 2: still one generation per epoch"
    );
    assert_eq!(
        cache.bucket_build_records(),
        60,
        "each record bucketed exactly once, however many watches"
    );

    // The shared slice changes no output: every watch's merged history
    // still equals a cold probe of the full corpus at its threshold.
    for (t, handle) in thresholds.iter().zip(&watches) {
        let merged = merge_deltas(&handle.drain(), 3, &format!("k-watch t={t}"));
        assert_merged_equals_cold(
            &merged,
            &cold(&records, *t, &cfg),
            &format!("k-watch t={t}"),
        );
    }
}

/// Satellite pin: sessions that never ingest, sharing a cache, ride the
/// same epoch-persistent bucket cache — a second identical-shape probe
/// builds zero buckets, from this or any other session, and the counter
/// is visible in `memory_stats`.
#[test]
fn batch_sessions_build_buckets_once_per_corpus() {
    let records = dataset(64, 3);
    let cfg = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        ..ApssConfig::default()
    };
    let mut first = StreamingSession::from_records(records.clone(), Similarity::Cosine, cfg);
    first.probe(0.8);
    let cache = first.shared_cache().expect("built by first probe");
    assert_eq!(
        cache.bucket_build_records(),
        records.len() as u64,
        "first banded probe buckets the whole corpus"
    );
    first.probe(0.6);
    assert_eq!(
        cache.bucket_build_records(),
        records.len() as u64,
        "second identical-shape probe builds zero buckets"
    );
    let mut second = StreamingSession::from_records(records.clone(), Similarity::Cosine, cfg)
        .with_shared_cache(cache.clone());
    second.probe(0.7);
    assert_eq!(
        cache.bucket_build_records(),
        records.len() as u64,
        "a sibling session reuses the same buckets"
    );
    assert_eq!(
        cache.memory_stats().bucket_build_records,
        records.len() as u64
    );
    // An exhaustive probe never touches the bucket cache.
    let mut exhaustive =
        StreamingSession::from_records(records.clone(), Similarity::Cosine, ApssConfig::default());
    exhaustive.probe(0.8);
    exhaustive.probe(0.6);
    assert_eq!(
        exhaustive
            .shared_cache()
            .expect("built")
            .bucket_build_records(),
        0,
        "exhaustive probes never bucket"
    );
}
