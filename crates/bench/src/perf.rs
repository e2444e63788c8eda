//! The counter snapshot (`repro bench [--json]`).
//!
//! Runs the scenarios the interactive-speed promise rests on — N sessions
//! sweeping thresholds over one `SharedKnowledgeCache`, the posterior
//! work, the memo copies and the memo walks' stripe guards of first and
//! repeated probes, the banded join over a Zipf-skewed corpus whose
//! hottest bucket holds most records, streaming ingest with carried
//! memos, fixed batches into a ~10×-growing corpus, a ladder of threshold
//! watches, a warm restart from snapshot + WAL, and the serial load
//! harness ([`crate::loadgen`]) — on fixed inputs, and records what each
//! one counted: pairs, candidates, records, bytes, epochs, deltas, syncs,
//! registry evictions. Nothing here keeps a clock: `benchmark/` times the
//! wire and every layer under it, and the criterion `kernels` bench times
//! the kernels.
//!
//! Each scenario builds its member of one JSON tree, and [`SNAPSHOT`]
//! lists every leaf of that tree with the gate `repro check-bench
//! --against` applies to it. The schema check ([`validate_snapshot_json`]),
//! the regression gate ([`compare_snapshots`]) and [`summary`] all read
//! that one table. With `--json` the tree is written to `BENCH_apss.json`
//! by [`render`].

use std::sync::Arc;

use plasma_core::apss::{build_sketches, ApssConfig, ApssStats};
use plasma_core::cache::{CacheCapacity, CacheRegistry};
use plasma_core::durable::{self, CorpusStore};
use plasma_core::{SharedKnowledgeCache, StreamingSession};
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::rng::seeded;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_data::zipf::Zipf;
use plasma_lsh::candidates::{banded_bucket_stats, banded_join};
use plasma_lsh::family::LshFamily;
use plasma_lsh::sketch::Sketcher;
use plasma_server::json::{self, Json};

use crate::loadgen;

/// How `repro check-bench --against` compares one leaf with the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Equal to the baseline: a pure function of the scenario's inputs.
    Exact,
    /// Within this absolute tolerance of the baseline.
    Within(f64),
    /// Exact when both snapshots share one segment geometry, skipped
    /// otherwise: CI sweeps `PLASMA_SEGMENT_RECORDS` across matrix cells.
    SameGeometry,
    /// Required by the schema, never compared.
    Recorded,
}

/// What a leaf holds; the schema check requires it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A non-negative integer.
    Count,
    /// A number in `[0, 1]`.
    Ratio,
    /// An array of non-negative integers.
    CountList,
    /// A string.
    Name,
    /// An object of non-negative integers (a per-verb tally).
    Tally,
}

impl Kind {
    fn admits(self, v: &Json) -> bool {
        let is_count = |x: &Json| x.as_u64().is_some();
        match self {
            Kind::Count => is_count(v),
            Kind::Ratio => v.as_f64().is_some_and(|x| (0.0..=1.0).contains(&x)),
            Kind::CountList => v.as_arr().is_some_and(|items| items.iter().all(is_count)),
            Kind::Name => v.as_str().is_some(),
            Kind::Tally => {
                matches!(v, Json::Obj(fields) if fields.iter().all(|(_, x)| is_count(x)))
            }
        }
    }
}

/// The document id every snapshot carries as its first member.
const BENCHMARK_ID: (&str, &str) = ("benchmark", "apss");

/// The segment geometry [`Gate::SameGeometry`] leaves depend on.
const GEOMETRY: &str = "ingest_scaling.segment_records";

/// The loadgen seed: another seed is another plan, so a baseline from
/// another seed is not comparable.
const SEED: &str = "loadgen.seed";

use Gate::{Exact, Recorded, SameGeometry, Within};
use Kind::{Count, CountList, Name, Ratio, Tally};

/// Every leaf of the snapshot, in rendering order. `[i]` stands for each
/// element of the array; a row naming one element outranks the `[i]` row
/// that follows it.
pub const SNAPSHOT: &[(&str, Kind, Gate)] = &[
    ("multi_session[i].sessions", Count, Exact),
    ("multi_session[i].probes", Count, Exact),
    ("multi_session[i].cache_hit_rate", Ratio, Exact),
    ("posterior_evals.first_probe", CountList, Exact),
    ("posterior_evals.second_probe", CountList, Exact),
    ("memo_clones.first_probe", CountList, Exact),
    ("memo_clones.second_probe", CountList, Exact),
    ("row_guards.first_probe", CountList, Exact),
    ("row_guards.second_probe", CountList, Exact),
    ("curve_rows.first_probe", CountList, Exact),
    ("curve_rows.second_probe", CountList, Exact),
    ("banded_skew.records", Count, Exact),
    ("banded_skew.hot_bucket_share", Ratio, Recorded),
    ("banded_skew.hot_bucket_pairs", Count, Exact),
    ("banded_skew.total_pairs", Count, Exact),
    ("banded_skew.candidates", Count, Exact),
    ("streaming.batches", Count, Exact),
    ("streaming.batch_records", Count, Exact),
    ("streaming.final_records", Count, Exact),
    ("streaming.final_epoch", Count, Exact),
    ("streaming.carried_hit_rate", Ratio, Within(0.05)),
    ("ingest_scaling.batches", Count, Exact),
    ("ingest_scaling.batch_records", Count, Exact),
    ("ingest_scaling.initial_records", Count, Exact),
    ("ingest_scaling.final_records", Count, Exact),
    (
        "ingest_scaling.snapshot_clone_bytes",
        CountList,
        SameGeometry,
    ),
    ("ingest_scaling.corpus_bytes", Count, Exact),
    ("ingest_scaling.sealed_segments", Count, SameGeometry),
    (GEOMETRY, Count, Recorded),
    ("watch_scaling.watches", Count, Exact),
    ("watch_scaling.batches", Count, Exact),
    ("watch_scaling.batch_records", Count, Recorded),
    ("watch_scaling.initial_records", Count, Recorded),
    ("watch_scaling.final_records", Count, Exact),
    ("watch_scaling.per_epoch_delta_pairs", CountList, Exact),
    ("watch_scaling.total_delta_pairs", Count, Exact),
    ("recovery.initial_records", Count, Exact),
    ("recovery.batches", Count, Exact),
    ("recovery.batch_records", Count, Recorded),
    ("recovery.final_records", Count, Exact),
    ("recovery.snapshot_bytes", Count, Exact),
    ("recovery.wal_replay_records", Count, Exact),
    (SEED, Count, Exact),
    ("loadgen.scenarios[i].scenario", Name, Exact),
    ("loadgen.scenarios[i].sessions", Count, Recorded),
    ("loadgen.scenarios[i].watchers", Count, Recorded),
    ("loadgen.scenarios[i].tenants", Count, Recorded),
    ("loadgen.scenarios[i].planned_requests", Count, Exact),
    ("loadgen.scenarios[i].completed_requests", Count, Exact),
    ("loadgen.scenarios[i].error_requests", Count, Exact),
    ("loadgen.scenarios[i].verbs", Tally, Exact),
    ("loadgen.scenarios[i].watch_deltas", Count, Exact),
    ("loadgen.scenarios[i].watch_deltas_expected", Count, Exact),
    ("loadgen.scenarios[i].wal_acked_appends", Count, Exact),
    ("loadgen.scenarios[i].wal_syncs", Count, Exact),
    ("loadgen.scenarios[i].registry_evictions", Count, Exact),
    (
        "loadgen.scenarios[i].registry_evictions_expected",
        Count,
        Exact,
    ),
];

/// A counter leaf.
pub(crate) fn count(n: u64) -> Json {
    Json::Int(n as i64)
}

/// A ratio leaf, rounded to four places so baseline diffs stay readable.
fn ratio(x: f64) -> Json {
    Json::Float((x * 1e4).round() / 1e4)
}

/// Measures the snapshot; `seed` seeds the load harness (every other
/// scenario uses fixed inputs).
pub fn measure(seed: u64) -> Json {
    let ds = GaussianSpec::new("bench", 200, 10, 4).generate(3);
    let multi_session = [1usize, 2, 4]
        .iter()
        .map(|&s| sweep_shared_cache(&ds.records, ds.measure, s))
        .collect();
    json::obj(vec![
        (BENCHMARK_ID.0, Json::Str(BENCHMARK_ID.1.into())),
        ("multi_session", Json::Arr(multi_session)),
        (
            "posterior_evals",
            measure_posterior_evals(&ds.records, ds.measure),
        ),
        ("memo_clones", measure_memo_clones(&ds.records, ds.measure)),
        ("row_guards", measure_row_guards(&ds.records, ds.measure)),
        ("curve_rows", measure_curve_rows(&ds.records, ds.measure)),
        ("banded_skew", measure_banded_skew_sized(1000)),
        ("streaming", measure_streaming_sized(100, 40, 3)),
        // Fixed 200-record batches growing the corpus 200 → 2000 (10×).
        ("ingest_scaling", measure_ingest_scaling_sized(200, 200, 9)),
        // The ingest_scaling growth shape at half depth, with a ladder of
        // 8 threshold watches evaluated on every batch.
        ("watch_scaling", measure_watch_scaling_sized(200, 200, 4, 8)),
        // Snapshot a 160-record corpus, log 3 × 40-record batches to the
        // WAL, then recover.
        ("recovery", measure_recovery_sized(160, 40, 3)),
        (
            "loadgen",
            loadgen::run(seed)
                .unwrap_or_else(|e| panic!("load harness failed: {e}"))
                .to_json(),
        ),
    ])
}

/// The durability shape: seed a scratch corpus directory the way the
/// serving layer does — publish-time snapshot of `initial` records, then
/// `batches` WAL-logged ingest batches of `batch_records` — and bring it
/// back with [`plasma_core::durable::recover`] (snapshot load,
/// `is_prefix_of` overlap verification, WAL tail replay through the
/// normal ingest path). Records the snapshot's bytes on disk, the
/// recovered corpus size, and the records recovery replayed.
fn measure_recovery_sized(initial: usize, batch_records: usize, batches: usize) -> Json {
    let total = initial + batch_records * batches;
    let ds = GaussianSpec::new("bench-recovery", total, 10, 4).generate(19);
    let cfg = ApssConfig::default();
    // Unique per call so concurrently-running tests never share a dir.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "plasma-bench-recovery-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Publish: snapshot the epoch-0 corpus the way `plasma-serve` does.
    let fp = CacheRegistry::fingerprint(&ds.records[..initial], ds.measure, &cfg);
    let mut live = StreamingSession::from_records(ds.records[..initial].to_vec(), ds.measure, cfg);
    live.ingest(&[]); // force the lazy epoch-0 build without bumping the epoch
    let (records, sketches, _) = live.persist_view().expect("epoch-0 cache built");
    let store = CorpusStore::open(&dir, fp).expect("open bench corpus store");
    let snapshot_bytes = store
        .write_snapshot(&records, &sketches)
        .expect("publish-time snapshot");
    // Serve: ingest each batch WAL-first (the append-before-ack order).
    for b in 0..batches {
        let lo = initial + b * batch_records;
        let batch = &ds.records[lo..lo + batch_records];
        let report = live.ingest(batch);
        store
            .append_ingest(
                report.epoch,
                report.total_records - report.records_added,
                batch,
            )
            .expect("wal append");
    }
    drop((live, store));

    let recovered = durable::recover(&dir, ds.measure, cfg, CacheCapacity::unbounded());
    let _ = std::fs::remove_dir_all(&dir);
    let rec = recovered.expect("bench recovery");
    assert_eq!(
        rec.epoch, batches as u64,
        "recovery must replay every batch"
    );
    assert!(
        !rec.wal_tail_discarded,
        "every logged batch was acked, so no WAL tail may be torn"
    );
    json::obj(vec![
        ("initial_records", count(initial as u64)),
        ("batches", count(batches as u64)),
        ("batch_records", count(batch_records as u64)),
        ("final_records", count(rec.session.len() as u64)),
        ("snapshot_bytes", count(snapshot_bytes)),
        ("wal_replay_records", count(rec.replayed_records as u64)),
    ])
}

/// The ingest-scaling shape: seed a [`StreamingSession`] with `initial`
/// records, then ingest `batches` fixed-size batches of `batch_records`
/// with no probes in between. Records the bytes each epoch's snapshot
/// clone copied ([`plasma_core::streaming::IngestReport::snapshot_clone_bytes`]):
/// with the segmented sketch store that is the mutable tail plus one
/// pointer per sealed segment, never the corpus words (`corpus_bytes`,
/// what a flat store would copy).
fn measure_ingest_scaling_sized(initial: usize, batch_records: usize, batches: usize) -> Json {
    let total = initial + batch_records * batches;
    let ds = GaussianSpec::new("bench-ingest", total, 10, 4).generate(11);
    let cfg = ApssConfig::default();
    let mut session =
        StreamingSession::from_records(ds.records[..initial].to_vec(), ds.measure, cfg);
    // Force the lazy epoch-0 build now so every counted batch is a pure
    // ingest, not the seed corpus's sketch_all.
    session.ingest(&[]);
    let snapshot_clone_bytes = (0..batches)
        .map(|b| {
            let lo = initial + b * batch_records;
            let report = session.ingest(&ds.records[lo..lo + batch_records]);
            count(report.snapshot_clone_bytes as u64)
        })
        .collect();
    let sketches = session.sketches().expect("ingest built the sketch store");
    json::obj(vec![
        ("batches", count(batches as u64)),
        ("batch_records", count(batch_records as u64)),
        ("initial_records", count(initial as u64)),
        ("final_records", count(session.len() as u64)),
        ("snapshot_clone_bytes", Json::Arr(snapshot_clone_bytes)),
        ("corpus_bytes", count(sketches.byte_size() as u64)),
        ("sealed_segments", count(sketches.sealed_segments() as u64)),
        ("segment_records", count(sketches.segment_records() as u64)),
    ])
}

/// The continuous-probe shape: seed a [`StreamingSession`] with `initial`
/// records, register `watches` threshold watches on a descending ladder,
/// then ingest `batches` fixed-size batches — each ingest delivers one
/// [`plasma_core::watch::WatchDelta`] per watch, and only that epoch's
/// new candidates are evaluated (the first watch pays their cold cost,
/// the rest ride its published memos). Registration deltas (full probes
/// by construction) are drained first; the new pairs delivered per epoch
/// are counted, summed across watches.
fn measure_watch_scaling_sized(
    initial: usize,
    batch_records: usize,
    batches: usize,
    watches: usize,
) -> Json {
    let total = initial + batch_records * batches;
    let ds = GaussianSpec::new("bench-watch", total, 10, 4).generate(13);
    let cfg = ApssConfig::default();
    let mut session =
        StreamingSession::from_records(ds.records[..initial].to_vec(), ds.measure, cfg);
    // Force the lazy epoch-0 build so registration probes hit a warm store.
    session.ingest(&[]);
    let handles: Vec<_> = (0..watches)
        .map(|w| session.watch(0.9 - 0.05 * w as f64))
        .collect();
    for h in &handles {
        h.drain();
    }
    let per_epoch_delta_pairs: Vec<u64> = (0..batches)
        .map(|b| {
            let lo = initial + b * batch_records;
            session.ingest(&ds.records[lo..lo + batch_records]);
            handles
                .iter()
                .flat_map(|h| h.drain())
                .map(|d| d.new_pairs.len() as u64)
                .sum()
        })
        .collect();
    json::obj(vec![
        ("watches", count(watches as u64)),
        ("batches", count(batches as u64)),
        ("batch_records", count(batch_records as u64)),
        ("initial_records", count(initial as u64)),
        ("final_records", count(session.len() as u64)),
        (
            "per_epoch_delta_pairs",
            Json::Arr(per_epoch_delta_pairs.iter().map(|&n| count(n)).collect()),
        ),
        (
            "total_delta_pairs",
            count(per_epoch_delta_pairs.iter().sum()),
        ),
    ])
}

/// The streaming-ingest shape: seed a [`StreamingSession`] with `initial`
/// records and one warm probe, then ingest `batches` batches of
/// `batch_records`, re-probing the same threshold after each epoch.
/// `carried_hit_rate` is the fraction of post-ingest pair evaluations
/// answered from memos carried across epoch bumps — with one re-probed
/// threshold per epoch it approaches the old-pair share of the corpus,
/// the whole point of the carry-over.
fn measure_streaming_sized(initial: usize, batch_records: usize, batches: usize) -> Json {
    let total = initial + batch_records * batches;
    let ds = GaussianSpec::new("bench-stream", total, 10, 4).generate(7);
    let cfg = ApssConfig::default();
    let mut session =
        StreamingSession::from_records(ds.records[..initial].to_vec(), ds.measure, cfg);
    session.probe(0.7);
    let mut hits = 0u64;
    let mut candidates = 0u64;
    for b in 0..batches {
        let lo = initial + b * batch_records;
        session.ingest(&ds.records[lo..lo + batch_records]);
        let report = session.probe(0.7);
        hits += report.cache_hits;
        candidates += report.candidates;
    }
    json::obj(vec![
        ("batches", count(batches as u64)),
        ("batch_records", count(batch_records as u64)),
        ("final_records", count(session.len() as u64)),
        ("final_epoch", count(session.epoch())),
        (
            "carried_hit_rate",
            ratio(hits as f64 / candidates.max(1) as f64),
        ),
    ])
}

/// A Zipf(2.0)-clustered corpus: each record is an exact copy of its
/// cluster's base set, cluster drawn from `Zipf` over 64 ranks — the
/// rank-0 cluster holds ~60% of records, so every band of its sketches
/// has one bucket carrying the majority of the corpus.
pub fn zipf_skewed_records(n: usize, seed: u64) -> Vec<SparseVector> {
    let zipf = Zipf::new(64, 2.0);
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            let c = zipf.sample(&mut rng) as u32;
            SparseVector::from_set((c * 60..c * 60 + 45).collect())
        })
        .collect()
}

/// Banded join bands used by the skew measurement.
pub const SKEW_BANDS: usize = 8;
/// Banded join band width used by the skew measurement.
pub const SKEW_WIDTH: usize = 8;

/// The banded-skew shape: candidate generation over an `n`-record
/// Zipf-skewed corpus whose hottest bucket holds the majority of all
/// records (`hot_bucket_share` > 0.5). Records the bucket shape — pairs
/// in the hottest bucket and pre-dedup pairs across all buckets, the
/// generation work a probe must distribute — and the deduplicated
/// candidates of the production join (`banded_join`).
fn measure_banded_skew_sized(n: usize) -> Json {
    let records = zipf_skewed_records(n, 9);
    let sketches = Sketcher::new(LshFamily::MinHash, 64, 7).sketch_all(&records);
    let stats = banded_bucket_stats(&sketches, SKEW_BANDS, SKEW_WIDTH);
    let candidates = banded_join(&sketches, SKEW_BANDS, SKEW_WIDTH, 0).len();
    json::obj(vec![
        ("records", count(n as u64)),
        (
            "hot_bucket_share",
            ratio(stats.hot_bucket_members as f64 / (n as f64).max(1.0)),
        ),
        ("hot_bucket_pairs", count(stats.hot_bucket_pairs)),
        ("total_pairs", count(stats.total_pairs)),
        ("candidates", count(candidates as u64)),
    ])
}

/// Threshold ladder each benchmark session sweeps (high → low, the
/// interactive exploration shape; overlapping sweeps are what the shared
/// cache exists to amortize).
const SESSION_SWEEP: [f64; 5] = [0.9, 0.8, 0.7, 0.6, 0.5];

/// One rung of the shared-cache shape: `sessions` [`StreamingSession`]s
/// attached to one fresh [`SharedKnowledgeCache`], each sweeping
/// [`SESSION_SWEEP`], round-robin on the calling thread — every session
/// probes a threshold before any session moves to the next. Returns
/// probes issued and the fraction of candidate evaluations answered from
/// the shared memo pool; one schedule makes that fraction a pure function
/// of the inputs. Concurrent cache use is pinned by the determinism
/// suites, not here. Per-probe evaluation is pinned sequential.
fn sweep_shared_cache(records: &[SparseVector], measure: Similarity, sessions: usize) -> Json {
    let cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(records, measure, &cfg);
    let cache = Arc::new(SharedKnowledgeCache::new(sketches));
    let mut all: Vec<StreamingSession> = (0..sessions)
        .map(|_| {
            StreamingSession::from_records(records.to_vec(), measure, cfg)
                .with_shared_cache(cache.clone())
        })
        .collect();
    let (mut probes, mut hits, mut candidates) = (0u64, 0u64, 0u64);
    for &t in &SESSION_SWEEP {
        for session in &mut all {
            let r = session.probe(t);
            probes += 1;
            hits += r.cache_hits;
            candidates += r.candidates;
        }
    }
    json::obj(vec![
        ("sessions", count(sessions as u64)),
        ("probes", count(probes)),
        (
            "cache_hit_rate",
            ratio(hits as f64 / candidates.max(1) as f64),
        ),
    ])
}

/// Thresholds the posterior-work shape probes, each twice in a row.
const POSTERIOR_SWEEP: [f64; 3] = [0.5, 0.7, 0.9];

/// The posterior-work shape: one fresh cache over the fixed corpus,
/// probed twice at each threshold of [`POSTERIOR_SWEEP`]. Records each
/// probe's `posterior_evals` — the decision cells it filled. The first
/// probe fills its threshold's table; the second finds every cell filled
/// and evaluates no posterior. The count is the same at every thread
/// count, because all workers fill one table.
fn measure_posterior_evals(records: &[SparseVector], measure: Similarity) -> Json {
    probe_twice(records, measure, &POSTERIOR_SWEEP, |s| s.posterior_evals)
}

/// Thresholds the memo-copy shape probes, each twice in a row. Descending,
/// so each first probe deepens profiles the previous threshold left.
const MEMO_SWEEP: [f64; 3] = [0.9, 0.7, 0.5];

/// The memo-copy shape: one fresh cache over the fixed corpus, probed
/// twice at each threshold of [`MEMO_SWEEP`]. Records each probe's
/// `memo_clones` — the non-empty profiles it copied out of the cache. A
/// first probe copies one per partial hit (none at the top threshold,
/// where the cache is empty); the second reads every profile in place and
/// copies none.
fn measure_memo_clones(records: &[SparseVector], measure: Similarity) -> Json {
    probe_twice(records, measure, &MEMO_SWEEP, |s| s.memo_clones)
}

/// The memo-walk shape: one fresh cache over the fixed corpus, probed
/// twice at each threshold of [`MEMO_SWEEP`]. Records each probe's
/// `row_guards` — the shared stripe guards its memo walks took. A walk
/// holds one guard over a whole row run and re-takes it only after a pair
/// that needed work, so a first probe of an empty cache takes one per
/// candidate and the second, all full hits, one per distinct first record.
fn measure_row_guards(records: &[SparseVector], measure: Similarity) -> Json {
    probe_twice(records, measure, &MEMO_SWEEP, |s| s.row_guards)
}

/// The curve-fold shape: one fresh [`StreamingSession`] over the fixed
/// corpus, probed twice at each threshold of [`MEMO_SWEEP`]. Records each
/// probe's `curve_rows` — the tail rows its curve fold computed. A first
/// probe computes one per `(m, n)` cell the session had not met; the
/// second meets only known cells and computes none.
fn measure_curve_rows(records: &[SparseVector], measure: Similarity) -> Json {
    let mut session =
        StreamingSession::from_records(records.to_vec(), measure, ApssConfig::default());
    let mut probe = |t| count(session.probe(t).curve_rows);
    let (first, second) = MEMO_SWEEP.iter().map(|&t| (probe(t), probe(t))).unzip();
    json::obj(vec![
        ("first_probe", Json::Arr(first)),
        ("second_probe", Json::Arr(second)),
    ])
}

/// Probes one fresh cache over `records` twice at each of `sweep`, in
/// order, and records `stat` of every probe as `first_probe` and
/// `second_probe` lists.
fn probe_twice(
    records: &[SparseVector],
    measure: Similarity,
    sweep: &[f64],
    stat: fn(&ApssStats) -> u64,
) -> Json {
    let cfg = ApssConfig::default();
    let (sketches, _) = build_sketches(records, measure, &cfg);
    let cache = SharedKnowledgeCache::new(sketches);
    let probe = |t| count(stat(&cache.probe(records, measure, t, &cfg).stats));
    let (first, second) = sweep.iter().map(|&t| (probe(t), probe(t))).unzip();
    json::obj(vec![
        ("first_probe", Json::Arr(first)),
        ("second_probe", Json::Arr(second)),
    ])
}

/// Renders a snapshot as JSON, one top-level member per line so baseline
/// diffs stay readable.
pub fn render(snapshot: &Json) -> String {
    let Json::Obj(members) = snapshot else {
        return snapshot.encode();
    };
    let lines: Vec<String> = members
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {}", value.encode()))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Human-readable summary: `path = value` per [`SNAPSHOT`] row whose
/// scenario `snapshot` carries, grouped by scenario.
pub fn summary(snapshot: &Json) -> String {
    let rows = rows(snapshot);
    let mut out = String::new();
    let mut last_group = "";
    for (path, _, _) in &rows {
        let Some(value) = lookup(snapshot, path) else {
            continue;
        };
        if group(path) != last_group {
            last_group = group(path);
            out.push_str(&format!("  [{last_group}]\n"));
        }
        out.push_str(&format!("    {path} = {}\n", value.encode()));
    }
    out
}

/// The scenario a path belongs to: its first segment.
fn group(path: &str) -> &str {
    path.split(['.', '[']).next().unwrap_or(path)
}

/// Elements of the array at `path` in `doc` (0 when absent).
fn entries(doc: &Json, path: &str) -> usize {
    lookup(doc, path)
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len)
}

/// The array a table row's `[i]` ranges over, if it has one.
fn array_of(row: &str) -> Option<&str> {
    Some(row.split_once("[i]")?.0)
}

/// [`SNAPSHOT`] with every `[i]` expanded over the array's elements in
/// `doc`, element by element, so each element's leaves stay together; the
/// first row naming a path wins. A row whose array is absent or empty
/// stays unexpanded, so [`lookup`] misses it and the row is reported
/// once, as written.
fn rows(doc: &Json) -> Vec<(String, Kind, Gate)> {
    let mut out: Vec<(String, Kind, Gate)> = Vec::new();
    let same_array = |a: &(&str, Kind, Gate), b: &(&str, Kind, Gate)| {
        array_of(a.0).is_some() && array_of(a.0) == array_of(b.0)
    };
    for block in SNAPSHOT.chunk_by(same_array) {
        let n = array_of(block[0].0).map_or(0, |array| entries(doc, array));
        let indices: Vec<String> = match n {
            0 => vec!["[i]".into()],
            n => (0..n).map(|i| format!("[{i}]")).collect(),
        };
        for index in &indices {
            for &(row, kind, gate) in block {
                let path = row.replacen("[i]", index, 1);
                if !out.iter().any(|(p, _, _)| *p == path) {
                    out.push((path, kind, gate));
                }
            }
        }
    }
    out
}

/// Validates a `BENCH_apss.json` document against [`SNAPSHOT`]: it
/// parses, carries the benchmark id, and every row's path resolves to a
/// value of the row's [`Kind`]. Returns every violation found, so a CI
/// failure names all of them at once.
pub fn validate_snapshot_json(text: &str) -> Result<(), Vec<String>> {
    let doc = json::parse(text).map_err(|e| vec![format!("snapshot does not parse: {e}")])?;
    let mut problems = Vec::new();
    let (key, id) = BENCHMARK_ID;
    if doc.get(key).and_then(Json::as_str) != Some(id) {
        problems.push(format!(
            "missing or wrong benchmark id (want \"{key}\": \"{id}\")"
        ));
    }
    for (path, kind, _) in rows(&doc) {
        if !lookup(&doc, &path).is_some_and(|v| kind.admits(v)) {
            problems.push(format!("{path}: missing, or not a {kind:?}"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Walks a dotted path with optional indices (`multi_session[1].probes`).
fn lookup<'a>(root: &'a Json, path: &str) -> Option<&'a Json> {
    let mut cur = root;
    for part in path.split('.') {
        let (name, index) = match part.find('[') {
            Some(open) => (
                &part[..open],
                Some(part[open + 1..part.len() - 1].parse::<usize>().ok()?),
            ),
            None => (part, None),
        };
        cur = cur.get(name)?;
        if let Some(i) = index {
            cur = cur.as_arr()?.get(i)?;
        }
    }
    Some(cur)
}

/// Compares a fresh `BENCH_apss.json` against the committed baseline —
/// the CI regression gate behind `repro check-bench --against`.
///
/// One pass over [`SNAPSHOT`] applies each row's [`Gate`]; absolute
/// throughput is never compared. The arrays must keep their length, every
/// top-level member of the baseline must be one some row reads (a deleted
/// scenario's numbers cannot linger unchecked), and a baseline from
/// another loadgen seed is refused as not comparable.
/// The fresh run must also pass its own loadgen correctness checks,
/// whatever the baseline says.
pub fn compare_snapshots(fresh_json: &str, committed_json: &str) -> Result<(), Vec<String>> {
    let parse = |which: &str, text: &str| {
        json::parse(text).map_err(|e| vec![format!("{which} snapshot does not parse: {e}")])
    };
    let fresh = parse("fresh", fresh_json)?;
    let committed = parse("committed", committed_json)?;
    let mut problems = Vec::new();

    if let Json::Obj(members) = &committed {
        for (key, _) in members {
            if key != BENCHMARK_ID.0 && !SNAPSHOT.iter().any(|r| group(r.0) == key) {
                problems.push(format!(
                    "{key}: committed member that no snapshot row reads (regenerate the baseline)"
                ));
            }
        }
    }
    let mut arrays: Vec<&str> = SNAPSHOT.iter().filter_map(|r| array_of(r.0)).collect();
    arrays.dedup();
    for array in arrays {
        let (a, b) = (entries(&fresh, array), entries(&committed, array));
        if a != b {
            problems.push(format!("{array}: fresh has {a} entries, committed {b}"));
        }
    }
    if !problems.is_empty() {
        return Err(problems);
    }

    let same = |path: &str| lookup(&fresh, path) == lookup(&committed, path);
    let same_geometry = same(GEOMETRY);
    let same_plan = same(SEED);
    if !same_plan {
        let seed = |doc: &Json| lookup(doc, SEED).map(Json::encode);
        problems.push(format!(
            "loadgen baselines not comparable: {SEED} fresh {:?} vs committed {:?}",
            seed(&fresh),
            seed(&committed)
        ));
    }
    for (path, _, gate) in rows(&fresh) {
        let skipped = match gate {
            Recorded => true,
            SameGeometry => !same_geometry,
            Exact | Within(_) => false,
        };
        if skipped || (!same_plan && group(&path) == group(SEED)) {
            continue;
        }
        let (Some(a), Some(b)) = (lookup(&fresh, &path), lookup(&committed, &path)) else {
            problems.push(format!(
                "{path}: missing from the fresh or committed snapshot"
            ));
            continue;
        };
        match gate {
            Within(tol) => {
                let near =
                    matches!((a.as_f64(), b.as_f64()), (Some(x), Some(y)) if (x - y).abs() <= tol);
                if !near {
                    problems.push(format!(
                        "{path}: fresh {} outside tolerance band ±{tol} around committed {}",
                        a.encode(),
                        b.encode()
                    ));
                }
            }
            _ if a != b => problems.push(format!(
                "{path}: fresh {} != committed {} (deterministic counter drifted)",
                a.encode(),
                b.encode()
            )),
            _ => {}
        }
    }

    check_fresh_run(&fresh, &mut problems);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Correctness of the fresh run on its own: each loadgen scenario
/// completed its plan, delivered the watch deltas and registry evictions
/// its plan predicts, and covered its acked WAL appends with at least
/// one sync and never more syncs than appends.
fn check_fresh_run(fresh: &Json, problems: &mut Vec<String>) {
    let scenarios = lookup(fresh, "loadgen.scenarios").and_then(Json::as_arr);
    for s in scenarios.unwrap_or_default() {
        let name = s.get("scenario").and_then(Json::as_str).unwrap_or("?");
        let n = |key: &str| s.get(key).and_then(Json::as_u64).unwrap_or(0);
        for (got, want) in [
            ("completed_requests", "planned_requests"),
            ("watch_deltas", "watch_deltas_expected"),
            ("registry_evictions", "registry_evictions_expected"),
        ] {
            if n(got) != n(want) {
                problems.push(format!(
                    "loadgen {name}: {got} ({}) != {want} ({}) — invariant broken",
                    n(got),
                    n(want)
                ));
            }
        }
        let (acked, syncs) = (n("wal_acked_appends"), n("wal_syncs"));
        if syncs > acked {
            problems.push(format!(
                "loadgen {name}: wal_syncs ({syncs}) exceeds wal_acked_appends ({acked})"
            ));
        }
        if acked > 0 && syncs == 0 {
            problems.push(format!(
                "loadgen {name}: appends were acked without a single sync"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_lsh::candidates::banded_sequential;

    /// A fully populated snapshot with internally consistent values,
    /// shared by the schema and regression-gate tests; `loadgen` comes
    /// from [`loadgen::fixture_report`].
    const FIXTURE: &str = r#"{
      "benchmark": "apss",
      "multi_session": [{"sessions": 1, "probes": 5, "cache_hit_rate": 0.42},
        {"sessions": 2, "probes": 10, "cache_hit_rate": 0.7},
        {"sessions": 4, "probes": 20, "cache_hit_rate": 0.81}],
      "posterior_evals": {"first_probe": [610, 540, 420], "second_probe": [0, 0, 0]},
      "memo_clones": {"first_probe": [0, 3100, 7400], "second_probe": [0, 0, 0]},
      "row_guards": {"first_probe": [19900, 3300, 7600], "second_probe": [199, 199, 199]},
      "curve_rows": {"first_probe": [200, 150, 120], "second_probe": [0, 0, 0]},
      "banded_skew": {"records": 1000, "hot_bucket_share": 0.61, "hot_bucket_pairs": 185745,
        "total_pairs": 1600000, "candidates": 250000},
      "streaming": {"batches": 3, "batch_records": 40, "final_records": 220,
        "final_epoch": 3, "carried_hit_rate": 0.73},
      "ingest_scaling": {"batches": 3, "batch_records": 200, "initial_records": 200,
        "final_records": 800, "snapshot_clone_bytes": [4096, 4112, 4128],
        "corpus_bytes": 1638400, "sealed_segments": 1, "segment_records": 512},
      "watch_scaling": {"watches": 8, "batches": 3, "batch_records": 200,
        "initial_records": 200, "final_records": 800, "per_epoch_delta_pairs": [300, 410, 520],
        "total_delta_pairs": 1230},
      "recovery": {"initial_records": 160, "batches": 3, "batch_records": 40,
        "final_records": 280, "snapshot_bytes": 25105, "wal_replay_records": 120}
    }"#;

    fn fixture() -> Json {
        let mut doc = json::parse(FIXTURE).expect("fixture parses");
        let Json::Obj(members) = &mut doc else {
            panic!("the fixture is an object")
        };
        members.push(("loadgen".into(), loadgen::fixture_report().to_json()));
        doc
    }

    /// The value at `path` (same syntax as [`lookup`]), for editing.
    fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
        let mut cur = doc;
        for part in path.split('.') {
            let (name, index) = match part.split_once('[') {
                Some((name, i)) => (name, i.trim_end_matches(']').parse::<usize>().ok()),
                None => (part, None),
            };
            let Json::Obj(fields) = cur else {
                panic!("{path}: {name} is not under an object")
            };
            cur = &mut fields.iter_mut().find(|(k, _)| k == name).expect(path).1;
            if let Some(i) = index {
                let Json::Arr(items) = cur else {
                    panic!("{path}: {name} is not an array")
                };
                cur = &mut items[i];
            }
        }
        cur
    }

    /// The fixture with one leaf replaced, encoded.
    fn with(path: &str, value: Json) -> String {
        let mut doc = fixture();
        *at(&mut doc, path) = value;
        doc.encode()
    }

    fn flagged(problems: &[String], needle: &str) -> bool {
        problems.iter().any(|p| p.contains(needle))
    }

    fn n(doc: &Json, path: &str) -> u64 {
        lookup(doc, path).and_then(Json::as_u64).expect(path)
    }

    fn rate(doc: &Json, path: &str) -> f64 {
        lookup(doc, path).and_then(Json::as_f64).expect(path)
    }

    /// Schema problems of one scenario's measured tree.
    fn schema_problems(scenario: &str, tree: Json) -> Vec<String> {
        let doc = json::obj(vec![(scenario, tree)]);
        let problems = validate_snapshot_json(&doc.encode()).unwrap_err();
        problems
            .into_iter()
            .filter(|p| group(p) == scenario)
            .collect()
    }

    #[test]
    fn json_shape_is_parseable_by_eye_and_machine() {
        let text = render(&fixture());
        // One top-level member per line, the benchmark id first.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "  \"benchmark\": \"apss\",");
        assert_eq!(lines.len(), 2 + 12, "{text}");
        let doc = json::parse(&text).expect("rendered snapshot parses");
        assert_eq!(doc, fixture());
        validate_snapshot_json(&text).expect("every table path resolves");

        // The table covers every leaf the snapshot carries.
        let rows = rows(&doc);
        fn uncovered(node: &Json, path: String, rows: &[(String, Kind, Gate)]) -> Vec<String> {
            let children: Vec<(String, &Json)> = match node {
                _ if rows.iter().any(|r| r.0 == path) => return vec![],
                Json::Obj(fields) if path.is_empty() => {
                    fields.iter().map(|(k, v)| (k.clone(), v)).collect()
                }
                Json::Obj(fields) => fields
                    .iter()
                    .map(|(k, v)| (format!("{path}.{k}"), v))
                    .collect(),
                Json::Arr(items) => (items.iter().enumerate())
                    .map(|(i, v)| (format!("{path}[{i}]"), v))
                    .collect(),
                _ => return vec![path],
            };
            (children.into_iter())
                .flat_map(|(p, v)| uncovered(v, p, rows))
                .collect()
        }
        assert_eq!(uncovered(&doc, String::new(), &rows), [BENCHMARK_ID.0]);

        // The summary prints every row, grouped by scenario.
        let summary = summary(&doc);
        assert!(summary.contains("  [recovery]\n    recovery.initial_records = 160\n"));
        for (path, _, _) in &rows {
            assert!(summary.contains(&format!("    {path} = ")), "{path}");
        }
    }

    #[test]
    fn compare_accepts_a_faithful_rerun_of_the_baseline() {
        let doc = render(&fixture());
        compare_snapshots(&doc, &doc).expect("a snapshot is never a regression of itself");
    }

    #[test]
    fn compare_flags_a_deliberate_counter_regression() {
        // The negative test the gate's wiring is judged by: perturb one
        // deterministic counter by one unit and the comparison must fail.
        let doc = fixture().encode();
        for (path, value) in [
            ("banded_skew.total_pairs", 1_599_999),
            // Loadgen plan-derived counters are gated the same way...
            ("loadgen.scenarios[1].wal_acked_appends", 18),
            // ...and so are the observed ones: one sync fewer than the
            // baseline is drift even though it still covers every append.
            ("loadgen.scenarios[1].wal_syncs", 18),
            ("recovery.snapshot_bytes", 25_104),
            ("watch_scaling.per_epoch_delta_pairs[1]", 411),
        ] {
            let problems = compare_snapshots(&with(path, count(value)), &doc)
                .expect_err("drift must be flagged");
            // A list element's drift is reported at the list.
            let leaf = path.strip_suffix("[1]").unwrap_or(path);
            assert!(flagged(&problems, leaf), "{path}: {problems:?}");
        }
    }

    #[test]
    fn compare_flags_a_regressed_posterior_eval_count() {
        // A re-probe that evaluates a posterior again, or a first probe
        // that evaluates one more than the baseline, fails the gate.
        let doc = fixture().encode();
        for (path, value) in [
            ("posterior_evals.second_probe[1]", 1),
            ("posterior_evals.first_probe[1]", 541),
        ] {
            let problems = compare_snapshots(&with(path, count(value)), &doc)
                .expect_err("posterior work drifted");
            let list = path.strip_suffix("[1]").expect("a list element");
            assert!(flagged(&problems, list), "{path}: {problems:?}");
        }
    }

    #[test]
    fn posterior_measurement_re_probes_for_free() {
        let ds = GaussianSpec::new("bench", 60, 10, 4).generate(3);
        let tree = measure_posterior_evals(&ds.records, ds.measure);
        let doc = json::obj(vec![("posterior_evals", tree.clone())]);
        let list = |path: &str| -> Vec<u64> {
            let items = lookup(&doc, path).and_then(Json::as_arr).expect(path);
            items.iter().map(|v| v.as_u64().expect("count")).collect()
        };
        let first = list("posterior_evals.first_probe");
        assert_eq!(first.len(), POSTERIOR_SWEEP.len());
        assert!(first.iter().all(|&n| n > 0), "{first:?}");
        assert_eq!(list("posterior_evals.second_probe"), [0, 0, 0]);
        assert_eq!(
            schema_problems("posterior_evals", tree),
            Vec::<String>::new()
        );
    }

    #[test]
    fn compare_flags_a_regressed_memo_clone_count() {
        // A re-probe that copies a profile out of the cache again, or a
        // first probe that copies one more than the baseline, fails.
        let doc = fixture().encode();
        for (path, value) in [
            ("memo_clones.second_probe[1]", 1),
            ("memo_clones.first_probe[1]", 3101),
        ] {
            let problems = compare_snapshots(&with(path, count(value)), &doc)
                .expect_err("memo copies drifted");
            let list = path.strip_suffix("[1]").expect("a list element");
            assert!(flagged(&problems, list), "{path}: {problems:?}");
        }
    }

    #[test]
    fn memo_clone_measurement_copies_only_partial_hits() {
        let ds = GaussianSpec::new("bench", 60, 10, 4).generate(3);
        let tree = measure_memo_clones(&ds.records, ds.measure);
        let doc = json::obj(vec![("memo_clones", tree.clone())]);
        let list = |path: &str| -> Vec<u64> {
            let items = lookup(&doc, path).and_then(Json::as_arr).expect(path);
            items.iter().map(|v| v.as_u64().expect("count")).collect()
        };
        let first = list("memo_clones.first_probe");
        assert_eq!(first.len(), MEMO_SWEEP.len());
        // The top threshold finds an empty cache; the lower ones resume.
        assert_eq!(first[0], 0, "{first:?}");
        assert!(first[1..].iter().all(|&n| n > 0), "{first:?}");
        assert_eq!(list("memo_clones.second_probe"), [0, 0, 0]);
        assert_eq!(schema_problems("memo_clones", tree), Vec::<String>::new());
    }

    #[test]
    fn compare_flags_a_walk_that_guards_each_pair() {
        // A re-probe that re-takes the stripe guard per pair reads the
        // candidate count instead of the row count, and fails the gate.
        let doc = fixture().encode();
        for (path, value) in [
            ("row_guards.second_probe[1]", 19900),
            ("row_guards.first_probe[1]", 3301),
        ] {
            let problems =
                compare_snapshots(&with(path, count(value)), &doc).expect_err("memo walks drifted");
            let list = path.strip_suffix("[1]").expect("a list element");
            assert!(flagged(&problems, list), "{path}: {problems:?}");
        }
    }

    #[test]
    fn row_guard_measurement_takes_one_guard_per_row_run() {
        let ds = GaussianSpec::new("bench", 60, 10, 4).generate(3);
        let tree = measure_row_guards(&ds.records, ds.measure);
        let doc = json::obj(vec![("row_guards", tree.clone())]);
        let list = |path: &str| -> Vec<u64> {
            let items = lookup(&doc, path).and_then(Json::as_arr).expect(path);
            items.iter().map(|v| v.as_u64().expect("count")).collect()
        };
        let (candidates, rows) = (60 * 59 / 2, 59);
        let first = list("row_guards.first_probe");
        assert_eq!(first.len(), MEMO_SWEEP.len());
        // An empty cache stops every walk at its first pair.
        assert_eq!(first[0], candidates, "{first:?}");
        assert!(
            first[1..].iter().all(|&n| rows < n && n < candidates),
            "{first:?}"
        );
        assert_eq!(list("row_guards.second_probe"), [rows; 3]);
        assert_eq!(schema_problems("row_guards", tree), Vec::<String>::new());
    }

    #[test]
    fn compare_flags_a_regressed_curve_row_count() {
        // A re-probe that computes a tail row again, or a first probe that
        // computes one more than the baseline, fails the gate.
        let doc = fixture().encode();
        for (path, value) in [
            ("curve_rows.second_probe[1]", 1),
            ("curve_rows.first_probe[1]", 151),
        ] {
            let problems =
                compare_snapshots(&with(path, count(value)), &doc).expect_err("curve rows drifted");
            let list = path.strip_suffix("[1]").expect("a list element");
            assert!(flagged(&problems, list), "{path}: {problems:?}");
        }
    }

    #[test]
    fn curve_row_measurement_re_probes_for_free() {
        let ds = GaussianSpec::new("bench", 60, 10, 4).generate(3);
        let tree = measure_curve_rows(&ds.records, ds.measure);
        let doc = json::obj(vec![("curve_rows", tree.clone())]);
        let list = |path: &str| -> Vec<u64> {
            let items = lookup(&doc, path).and_then(Json::as_arr).expect(path);
            items.iter().map(|v| v.as_u64().expect("count")).collect()
        };
        let first = list("curve_rows.first_probe");
        assert_eq!(first.len(), MEMO_SWEEP.len());
        assert!(first[0] > 0, "{first:?}");
        assert_eq!(list("curve_rows.second_probe"), [0, 0, 0]);
        assert_eq!(schema_problems("curve_rows", tree), Vec::<String>::new());
    }

    #[test]
    fn compare_tolerates_ratio_jitter_inside_the_band_only() {
        let doc = fixture().encode();
        let nudged = with("streaming.carried_hit_rate", Json::Float(0.715));
        compare_snapshots(&nudged, &doc).expect("±0.015 sits inside the ±0.05 band");
        let broken = with("streaming.carried_hit_rate", Json::Float(0.5));
        let problems = compare_snapshots(&broken, &doc).expect_err("a hit-rate collapse is real");
        assert!(flagged(&problems, "carried_hit_rate"), "{problems:?}");
        // The shared-cache rungs run on one schedule, so they are exact.
        let drifted = with("multi_session[2].cache_hit_rate", Json::Float(0.8));
        let problems = compare_snapshots(&drifted, &doc).expect_err("one schedule, one rate");
        assert!(flagged(&problems, "multi_session[2]"), "{problems:?}");
    }

    #[test]
    fn compare_refuses_a_baseline_member_no_row_reads() {
        // A deleted scenario's numbers left in the baseline fail the gate
        // instead of sitting there unchecked.
        let doc = fixture().encode();
        let mut stale = fixture();
        let Json::Obj(members) = &mut stale else {
            panic!("the fixture is an object")
        };
        let bounded = json::obj(vec![("cap_bytes", count(65536)), ("hit_rate", ratio(0.55))]);
        members.insert(2, ("bounded_cache".into(), bounded));
        let problems =
            compare_snapshots(&doc, &stale.encode()).expect_err("a dead baseline member");
        assert!(flagged(&problems, "bounded_cache"), "{problems:?}");
        assert_eq!(problems.len(), 1, "{problems:?}");
    }

    #[test]
    fn compare_enforces_intra_snapshot_invariants_of_the_fresh_run() {
        // A fresh run whose watch deltas miss their plan-derived
        // expectation is broken even if the committed baseline agrees.
        let short = with("loadgen.scenarios[1].watch_deltas", count(40));
        let problems = compare_snapshots(&short, &short).expect_err("lost deltas must be flagged");
        assert!(flagged(&problems, "watch_deltas"), "{problems:?}");
        // Group commit can never sync more often than it acks.
        let oversync = with("loadgen.scenarios[1].wal_syncs", count(25));
        let problems = compare_snapshots(&oversync, &oversync).expect_err("syncs > acks");
        assert!(flagged(&problems, "wal_syncs"), "{problems:?}");
    }

    #[test]
    fn compare_refuses_baselines_from_a_different_plan() {
        let doc = fixture().encode();
        let reseeded = with(SEED, count(43));
        let problems =
            compare_snapshots(&reseeded, &doc).expect_err("different seeds are not comparable");
        assert!(flagged(&problems, "not comparable"), "{problems:?}");
        // The arrays keep their length: a dropped scenario is no rerun.
        let mut shorter = fixture();
        let Json::Arr(scenarios) = at(&mut shorter, "loadgen.scenarios") else {
            panic!("scenarios is an array")
        };
        scenarios.pop();
        let problems = compare_snapshots(&shorter.encode(), &doc).expect_err("length drifted");
        assert!(flagged(&problems, "loadgen.scenarios"), "{problems:?}");
    }

    #[test]
    fn compare_ignores_segment_geometry_drift_across_matrix_cells() {
        let doc = fixture().encode();
        // A different PLASMA_SEGMENT_RECORDS cell: sealing counts and
        // clone bytes differ legitimately, so the gate stays quiet.
        let mut other_geometry = fixture();
        *at(&mut other_geometry, GEOMETRY) = count(8);
        *at(&mut other_geometry, "ingest_scaling.sealed_segments") = count(100);
        *at(
            &mut other_geometry,
            "ingest_scaling.snapshot_clone_bytes[0]",
        ) = count(64);
        compare_snapshots(&other_geometry.encode(), &doc)
            .expect("cross-geometry sealing counts are not comparable, not regressions");
        // Within one geometry they are exact.
        let resealed = with("ingest_scaling.sealed_segments", count(2));
        let problems = compare_snapshots(&resealed, &doc).expect_err("same geometry");
        assert!(flagged(&problems, "sealed_segments"), "{problems:?}");
    }

    #[test]
    fn validator_names_every_violation() {
        assert!(validate_snapshot_json("").is_err());
        // One problem per table row, each naming its row.
        let problems =
            validate_snapshot_json("{\"benchmark\": \"apss\"}").expect_err("leaves missing");
        assert_eq!(problems.len(), SNAPSHOT.len(), "{problems:?}");
        for (row, _, _) in SNAPSHOT {
            assert!(flagged(&problems, &format!("{row}: ")), "{row}");
        }
        // A wrong id or a leaf of the wrong kind is named too.
        let problems = validate_snapshot_json(&with(BENCHMARK_ID.0, Json::Str("other".into())))
            .expect_err("wrong id");
        assert!(flagged(&problems, "benchmark id"), "{problems:?}");
        let problems = validate_snapshot_json(&with("banded_skew.candidates", Json::Float(0.5)))
            .expect_err("a count is an integer");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(flagged(&problems, "banded_skew.candidates"));
    }

    #[test]
    fn validator_knows_where_a_key_lives() {
        // `batches` survives in three other scenarios; dropping it from
        // `recovery` must still fail, naming the full path.
        let mut doc = fixture();
        let Json::Obj(fields) = at(&mut doc, "recovery") else {
            panic!("recovery is an object")
        };
        fields.retain(|(k, _)| k != "batches");
        let problems = validate_snapshot_json(&doc.encode()).expect_err("recovery.batches gone");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(flagged(&problems, "recovery.batches"), "{problems:?}");
    }

    #[test]
    fn skew_measurement_fans_the_hot_bucket_across_shards() {
        // The acceptance shape in miniature: the hottest bucket holds the
        // majority of records, and the production join's candidates are
        // exactly the reference join's.
        let skew = measure_banded_skew_sized(500);
        assert_eq!(
            schema_problems("banded_skew", skew.clone()),
            Vec::<String>::new()
        );
        let share = rate(&skew, "hot_bucket_share");
        assert!(
            share > 0.5,
            "the scenario must be genuinely skewed: {share}"
        );
        let sketches =
            Sketcher::new(LshFamily::MinHash, 64, 7).sketch_all(&zipf_skewed_records(500, 9));
        let candidates = n(&skew, "candidates");
        assert_eq!(
            candidates,
            banded_sequential(&sketches, SKEW_BANDS, SKEW_WIDTH).len() as u64
        );
        assert!(candidates > 0 && n(&skew, "total_pairs") >= candidates);
    }

    #[test]
    fn streaming_measurement_carries_memos_across_epochs() {
        // Every ingested batch bumps the epoch exactly once, and the
        // re-probed threshold rides carried memos (hit rate strictly
        // positive).
        let streaming = measure_streaming_sized(30, 10, 2);
        assert_eq!(
            schema_problems("streaming", streaming.clone()),
            Vec::<String>::new()
        );
        assert_eq!(n(&streaming, "batches"), 2);
        assert_eq!(n(&streaming, "final_records"), 50);
        assert_eq!(
            n(&streaming, "final_epoch"),
            2,
            "one epoch per ingested batch"
        );
        assert!(
            rate(&streaming, "carried_hit_rate") > 0.0,
            "carried memos must answer old pairs: {streaming:?}"
        );
    }

    #[test]
    fn ingest_scaling_measurement_reports_segment_economy() {
        let scaling = measure_ingest_scaling_sized(40, 20, 4);
        assert_eq!(
            schema_problems("ingest_scaling", scaling.clone()),
            Vec::<String>::new()
        );
        assert_eq!(n(&scaling, "batches"), 4);
        assert_eq!(n(&scaling, "batch_records"), 20);
        assert_eq!(n(&scaling, "initial_records"), 40);
        let final_records = n(&scaling, "final_records");
        assert_eq!(final_records, 120);
        let clone_bytes = lookup(&scaling, "snapshot_clone_bytes").and_then(Json::as_arr);
        assert_eq!(clone_bytes.map(<[Json]>::len), Some(4));
        // Segment geometry comes from the environment-resolved default,
        // and sealing is eager: full segments only.
        let seg = plasma_lsh::resolve_segment_records(None) as u64;
        assert_eq!(n(&scaling, "segment_records"), seg);
        assert_eq!(n(&scaling, "sealed_segments"), final_records / seg);
        // Every epoch's snapshot clone copies at most one segment's worth
        // of tail words plus the sealed-segment pointer list — never the
        // whole corpus.
        let stride_bytes = n(&scaling, "corpus_bytes") / final_records;
        let arc_bytes = std::mem::size_of::<std::sync::Arc<[u64]>>() as u64;
        let bound = seg * stride_bytes + (final_records / seg.max(1) + 1) * arc_bytes;
        for bytes in clone_bytes
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_u64)
        {
            assert!(
                bytes <= bound,
                "snapshot clone must be O(tail + segments): {bytes} > {bound}"
            );
        }
    }

    #[test]
    fn watch_scaling_measurement_counts_only_delta_pairs() {
        let scaling = measure_watch_scaling_sized(40, 20, 3, 4);
        assert_eq!(
            schema_problems("watch_scaling", scaling.clone()),
            Vec::<String>::new()
        );
        assert_eq!(n(&scaling, "watches"), 4);
        assert_eq!(n(&scaling, "batches"), 3);
        assert_eq!(n(&scaling, "batch_records"), 20);
        assert_eq!(n(&scaling, "initial_records"), 40);
        assert_eq!(n(&scaling, "final_records"), 100);
        let per_epoch: Vec<u64> = (0..3)
            .map(|i| n(&scaling, &format!("per_epoch_delta_pairs[{i}]")))
            .collect();
        assert_eq!(
            n(&scaling, "total_delta_pairs"),
            per_epoch.iter().sum::<u64>()
        );
        // The delta pipeline must actually deliver pairs on this clustered
        // corpus: concatenated deltas are the cold answer, and a clustered
        // Gaussian corpus has similar pairs straddling every batch edge.
        assert!(
            n(&scaling, "total_delta_pairs") > 0,
            "watches must surface new pairs as the corpus grows: {scaling:?}"
        );
    }

    #[test]
    fn multi_session_measurement_shares_the_cache() {
        // Tiny corpus so the measurement stays fast in tests: with 2
        // sessions taking turns on the same ladder, the second session's
        // probe of every threshold is answered entirely from the memos
        // the first one just published, so the aggregate hit rate rises
        // above the single-session one.
        let ds = GaussianSpec::new("bench-test", 40, 6, 2).generate(5);
        let solo = sweep_shared_cache(&ds.records, ds.measure, 1);
        let duo = sweep_shared_cache(&ds.records, ds.measure, 2);
        let rungs = Json::Arr(vec![solo.clone(), duo.clone()]);
        assert_eq!(
            schema_problems("multi_session", rungs),
            Vec::<String>::new()
        );
        assert_eq!(n(&solo, "probes"), 5);
        assert_eq!(n(&duo, "probes"), 10);
        assert!(
            rate(&duo, "cache_hit_rate") > rate(&solo, "cache_hit_rate"),
            "sharing must raise the hit rate: {duo:?} vs {solo:?}"
        );
        assert_eq!(duo, sweep_shared_cache(&ds.records, ds.measure, 2));
    }

    #[test]
    fn recovery_measurement_replays_the_logged_lineage() {
        // The real shape at small size: a publish-time snapshot on disk,
        // every batch WAL-logged, then a genuine `durable::recover` (which
        // asserts that every batch replayed and no tail was torn).
        let recovery = measure_recovery_sized(40, 10, 2);
        assert_eq!(
            schema_problems("recovery", recovery.clone()),
            Vec::<String>::new()
        );
        assert_eq!(n(&recovery, "initial_records"), 40);
        assert_eq!(n(&recovery, "batches"), 2);
        assert_eq!(n(&recovery, "batch_records"), 10);
        assert_eq!(n(&recovery, "final_records"), 60);
        assert!(
            n(&recovery, "snapshot_bytes") > 0,
            "snapshot must land on disk"
        );
        assert_eq!(n(&recovery, "wal_replay_records"), 20);
    }
}
