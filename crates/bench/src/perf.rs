//! Quick APSS perf snapshot (`repro bench [--json]`).
//!
//! Times the two halves of the APSS hot path — sketching and exhaustive
//! pair evaluation — sequentially and at full parallelism on a fixed
//! 200-record corpus, plus the shared-cache serving shape: N concurrent
//! sessions sweeping thresholds over one `SharedKnowledgeCache` (probe
//! latency and cache hit-rate vs session count), the bounded-cache
//! shape: the same sweep under a byte cap, recording peak memo bytes,
//! hit rate, and evictions against the unbounded baseline, and the
//! banded-skew shape: candidate generation over a Zipf-clustered corpus
//! whose dominant bucket holds the majority of all records, recording the
//! bucket shape and the one join's rate against the sequential reference
//! (`banded_skew` fields), and the streaming
//! shape: N record batches ingested into a live `StreamingSession` with a
//! probe after each epoch, recording ingest throughput and the
//! carried-memo hit rate (`streaming` fields), and the ingest-scaling
//! shape: fixed-size batches ingested into a corpus growing ~10×,
//! recording per-batch ingest nanoseconds and snapshot-clone bytes — the
//! segmented store's O(batch) ingest and O(segments) epoch-snapshot
//! guarantees as measured numbers (`ingest_scaling` fields), and the
//! serving shape: the engine's verbs round-tripped through
//! `plasma-serve`'s newline-delimited JSON protocol against an
//! in-process loopback server, recording requests/sec and per-verb mean
//! round-trip microseconds (`serving` fields), and the recovery shape:
//! a snapshotted, WAL-logged corpus brought back warm via
//! `plasma_core::durable::recover`, recording snapshot bytes, WAL-replay
//! records/sec, and the warm-restart vs cold-build time ratio
//! (`recovery` fields). With `--json`
//! the snapshot is also written to `BENCH_apss.json` so CI can track the
//! perf trajectory across commits (`repro check-bench` validates the
//! schema). This is a smoke measurement (fractions of a second per
//! kernel), not a statistical benchmark; `cargo bench` owns the careful
//! numbers.

use std::sync::Arc;
use std::time::Instant;

use plasma_core::apss::{apss_with_sketches, build_sketches, ApssConfig};
use plasma_core::cache::{CacheCapacity, CacheMemoryStats, CacheRegistry};
use plasma_core::durable::{self, CorpusStore};
use plasma_core::{SharedKnowledgeCache, StreamingSession};
use plasma_data::datasets::corpus::CorpusSpec;
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::rng::seeded;
use plasma_data::vector::SparseVector;
use plasma_data::zipf::Zipf;
use plasma_lsh::candidates::{banded_bucket_stats, banded_join, banded_sequential};
use plasma_lsh::family::LshFamily;
use plasma_lsh::sketch::Sketcher;
use plasma_server::json::{self, Json};
use plasma_server::{ProbeClient, ProbeServer, ProbeService, PublishCfg, Request};

/// One kernel's sequential-vs-parallel rates (work units per second).
#[derive(Debug, Clone, Copy)]
pub struct KernelRates {
    /// Work units (records or pairs) per run.
    pub units: u64,
    /// Units per second with `parallelism = 1`.
    pub seq_per_sec: f64,
    /// Units per second with `parallelism = cores`.
    pub par_per_sec: f64,
}

impl KernelRates {
    /// Parallel speedup over sequential.
    pub fn speedup(&self) -> f64 {
        self.par_per_sec / self.seq_per_sec.max(f64::MIN_POSITIVE)
    }
}

/// One session-count configuration of the concurrent-probe measurement:
/// `sessions` OS threads, each driving its own [`StreamingSession`] attached to
/// one [`SharedKnowledgeCache`], each sweeping the same threshold ladder.
#[derive(Debug, Clone, Copy)]
pub struct MultiSessionRates {
    /// Concurrent sessions sharing the cache.
    pub sessions: usize,
    /// Total probes issued across all sessions.
    pub probes: u64,
    /// Probes completed per second of wall time (all sessions together).
    pub probes_per_sec: f64,
    /// Mean single-probe latency in milliseconds.
    pub mean_probe_ms: f64,
    /// Pair evaluations answered from the shared memo pool, as a fraction
    /// of all candidate evaluations.
    pub cache_hit_rate: f64,
}

/// Memory behavior of the shared cache under a byte cap, against the
/// unbounded baseline: the same 4-session threshold sweep run twice.
#[derive(Debug, Clone, Copy)]
pub struct BoundedCacheRates {
    /// The byte cap configured for the bounded run (a quarter of the
    /// unbounded run's peak, so eviction genuinely engages).
    pub cap_bytes: usize,
    /// Peak accounted memo bytes of the unbounded run.
    pub peak_memo_bytes_unbounded: usize,
    /// Peak accounted memo bytes of the capped run.
    pub peak_memo_bytes: usize,
    /// Aggregate cache hit-rate of the unbounded run.
    pub hit_rate_unbounded: f64,
    /// Aggregate cache hit-rate of the capped run.
    pub hit_rate: f64,
    /// Pair memos evicted during the capped run.
    pub evicted_entries: u64,
}

/// Banded candidate generation over a Zipf-clustered corpus whose
/// dominant bucket holds the majority of all records (`hot_bucket_share`
/// exceeds one half).
#[derive(Debug, Clone, Copy)]
pub struct BandedSkewRates {
    /// Records in the skewed corpus.
    pub records: u64,
    /// Fraction of records in the hottest bucket (> 0.5 by construction).
    pub hot_bucket_share: f64,
    /// Pairs inside that hottest bucket.
    pub hot_bucket_pairs: u64,
    /// Total pre-dedup pairs across all band buckets (the generation
    /// work a probe must distribute).
    pub total_pairs: u64,
    /// Deduplicated candidates the join returns.
    pub candidates: u64,
    /// Generated pairs per second, sequential reference.
    pub seq_per_sec: f64,
    /// Generated pairs per second, the one join (`banded_join`, cold).
    pub par_per_sec: f64,
}

impl BandedSkewRates {
    /// The one join's rate over the sequential reference's.
    pub fn speedup(&self) -> f64 {
        self.par_per_sec / self.seq_per_sec.max(f64::MIN_POSITIVE)
    }
}

/// The streaming-ingest shape: a live [`StreamingSession`] absorbs N
/// record batches (epoch-versioned batch-extend sketching) with one
/// probe per epoch. `carried_hit_rate` is the fraction of post-ingest
/// pair evaluations answered from memos carried across epoch bumps —
/// with one re-probed threshold per epoch it approaches the old-pair
/// share of the corpus, the whole point of the carry-over.
#[derive(Debug, Clone, Copy)]
pub struct StreamingRates {
    /// Batches ingested after the seed corpus.
    pub batches: u64,
    /// Records per ingested batch.
    pub batch_records: u64,
    /// Corpus size after every batch landed.
    pub final_records: u64,
    /// Corpus epoch after every batch landed (= `batches`).
    pub final_epoch: u64,
    /// Ingested records per second of ingest wall time (batch sketching
    /// + cache growth).
    pub ingest_records_per_sec: f64,
    /// Carried-memo hit rate across the post-ingest probes.
    pub carried_hit_rate: f64,
    /// Mean post-ingest probe latency in milliseconds.
    pub probe_mean_ms: f64,
}

/// The ingest-scaling shape: a fixed-size batch ingested repeatedly into
/// a growing [`StreamingSession`], timing each ingest. With the segmented
/// sketch store, per-batch ingest cost is O(batch) — the corpus growing
/// ~10× must not slow the same-size batch down — and each epoch's
/// snapshot clone copies only the mutable tail plus one pointer per
/// sealed segment, never the corpus words
/// ([`plasma_core::streaming::IngestReport::snapshot_clone_bytes`]).
#[derive(Debug, Clone)]
pub struct IngestScalingRates {
    /// Batches ingested after the seed corpus.
    pub batches: u64,
    /// Records per ingested batch (fixed across the run).
    pub batch_records: u64,
    /// Seed corpus size before the first timed batch.
    pub initial_records: u64,
    /// Corpus size after every batch landed.
    pub final_records: u64,
    /// Wall nanoseconds of each ingest call, in batch order.
    pub per_batch_ns: Vec<u64>,
    /// Bytes each epoch's snapshot clone actually copied (tail words +
    /// segment pointers), in batch order.
    pub snapshot_clone_bytes: Vec<u64>,
    /// Total sketch bytes of the final corpus — what a flat store would
    /// copy per snapshot.
    pub corpus_bytes: u64,
    /// Sealed (immutable, `Arc`-shared) segments of the final corpus.
    pub sealed_segments: u64,
    /// Records per segment in force (the `PLASMA_SEGMENT_RECORDS`
    /// default unless overridden).
    pub segment_records: u64,
}

impl IngestScalingRates {
    /// Nanoseconds of the first timed batch.
    pub fn first_batch_ns(&self) -> u64 {
        self.per_batch_ns.first().copied().unwrap_or(0)
    }

    /// Nanoseconds of the last timed batch — same batch size, ~10×
    /// larger corpus.
    pub fn last_batch_ns(&self) -> u64 {
        self.per_batch_ns.last().copied().unwrap_or(0)
    }

    /// Last-batch over first-batch time: ~1.0 when ingest is O(batch),
    /// growing with the corpus when it is not.
    pub fn ns_ratio_last_over_first(&self) -> f64 {
        self.last_batch_ns() as f64 / self.first_batch_ns().max(1) as f64
    }
}

/// The continuous-probe shape: a ladder of threshold watches registered
/// over the [`IngestScalingRates`] corpus growth, every ingest delivering
/// one [`plasma_core::watch::WatchDelta`] per watch. The number this
/// scenario pins is the cost of *staying informed*: each epoch's watch
/// evaluations touch only that epoch's new candidates (the first watch
/// pays their cold cost, the rest ride its published memos), so per-epoch
/// delta time tracks the delta size, not the corpus size.
#[derive(Debug, Clone)]
pub struct WatchScalingRates {
    /// Simultaneous watches registered before the first timed batch.
    pub watches: u64,
    /// Batches ingested after the seed corpus.
    pub batches: u64,
    /// Records per ingested batch (fixed across the run).
    pub batch_records: u64,
    /// Seed corpus size before the first timed batch.
    pub initial_records: u64,
    /// Corpus size after every batch landed.
    pub final_records: u64,
    /// Wall nanoseconds of each ingest call — batch sketching, cache
    /// growth, and all watch delta evaluations — in batch order.
    pub per_epoch_delta_ns: Vec<u64>,
    /// New pairs delivered per epoch, summed across all watches, in
    /// batch order.
    pub per_epoch_delta_pairs: Vec<u64>,
    /// Pairs delivered across all epochs and watches (registration
    /// deltas excluded — they are full probes, not deltas).
    pub total_delta_pairs: u64,
}

/// The served shape: the same engine behind `plasma-serve`'s
/// newline-delimited JSON protocol, measured end to end over a loopback
/// TCP connection — attach/detach, warmed probes, ingest batches, and
/// `memory_stats` round trips against an in-process [`ProbeServer`].
/// The number this scenario pins is the transport tax: a warmed probe
/// round trip is a pure cache hit inside the engine, so its mean is
/// almost entirely framing, dispatch, and loopback latency.
#[derive(Debug, Clone)]
pub struct ServingRates {
    /// Round trips in the timed section (each request and its reply).
    pub requests: u64,
    /// Timed-section round trips per second of wall time.
    pub requests_per_sec: f64,
    /// Mean microseconds for an `attach` round trip (fingerprint lookup
    /// plus a session fork off the served master).
    pub attach_mean_us: f64,
    /// Mean microseconds for a warmed `probe` round trip (pure memo
    /// hits inside the engine — this is the protocol overhead).
    pub probe_mean_us: f64,
    /// Mean microseconds for an `ingest` round trip (batch sketching,
    /// cache growth, and watch evaluation under the corpus writer).
    pub ingest_mean_us: f64,
    /// Mean microseconds for a `memory_stats` round trip.
    pub memory_stats_mean_us: f64,
}

/// The durability shape: one corpus snapshotted at publish, grown with
/// WAL-logged ingest batches, then brought back via
/// [`plasma_core::durable::recover`] — snapshot load, `is_prefix_of`
/// overlap verification, and WAL tail replay through the normal ingest
/// path — timed against the cold build of the same corpus (sketch
/// everything from the records). The number this scenario pins is the
/// warm-restart dividend: recovery deserializes sketch words instead of
/// recomputing them, so `warm_cold_ratio` should sit well under 1.0.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRates {
    /// Records in the publish-time (epoch 0) snapshot.
    pub initial_records: u64,
    /// WAL-logged ingest batches past the snapshot.
    pub batches: u64,
    /// Records per logged batch.
    pub batch_records: u64,
    /// Corpus size after replay (= initial + batches × batch_records).
    pub final_records: u64,
    /// Bytes of the epoch-0 snapshot file on disk.
    pub snapshot_bytes: u64,
    /// Records replayed from the WAL tail during the warm restart.
    pub wal_replay_records: u64,
    /// WAL-replayed records per second of warm-restart wall time.
    pub wal_replay_records_per_sec: f64,
    /// Best cold-start milliseconds: build session + sketches from the
    /// full record set.
    pub cold_start_ms: f64,
    /// Best warm-restart milliseconds: load snapshot, verify, replay WAL.
    pub warm_restart_ms: f64,
}

impl RecoveryRates {
    /// Warm restart over cold start: < 1.0 when recovery beats
    /// re-sketching the corpus.
    pub fn warm_cold_ratio(&self) -> f64 {
        self.warm_restart_ms / self.cold_start_ms.max(f64::MIN_POSITIVE)
    }
}

/// The full snapshot.
#[derive(Debug, Clone)]
pub struct ApssPerfSnapshot {
    /// Worker threads used for the parallel runs.
    pub cores: usize,
    /// MinHash sketching, 200 records × 256 hashes.
    pub sketch_minhash: KernelRates,
    /// SimHash sketching, 200 records × 256 hashes.
    pub sketch_simhash: KernelRates,
    /// Exhaustive BayesLSH pair evaluation, 200 records → 19 900 pairs.
    pub pair_evaluation: KernelRates,
    /// Shared-cache concurrent probing at 1, 2, and 4 sessions.
    pub multi_session: Vec<MultiSessionRates>,
    /// The sweep under a memo-byte cap vs unbounded.
    pub bounded_cache: BoundedCacheRates,
    /// Banded candidate generation under hot-bucket key skew.
    pub banded_skew: BandedSkewRates,
    /// Streaming ingest: batch-extend sketching + carried-memo probing.
    pub streaming: StreamingRates,
    /// Ingest scaling: fixed-size batches into a ~10×-growing corpus.
    pub ingest_scaling: IngestScalingRates,
    /// Continuous probes: a watch ladder evaluated on every ingest.
    pub watch_scaling: WatchScalingRates,
    /// The probe service: engine verbs round-tripped over loopback TCP.
    pub serving: ServingRates,
    /// Durability: warm restart (snapshot + WAL replay) vs cold build.
    pub recovery: RecoveryRates,
}

/// Best observed rate of `run` (units/sec) over ~`budget_ms` of wall time.
fn best_rate<F: FnMut()>(units: u64, budget_ms: u64, mut run: F) -> f64 {
    // One untimed warm-up run.
    run();
    let deadline = Instant::now() + std::time::Duration::from_millis(budget_ms);
    let mut best = 0.0f64;
    loop {
        let t = Instant::now();
        run();
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        best = best.max(units as f64 / secs);
        if Instant::now() >= deadline {
            return best;
        }
    }
}

/// Measures the snapshot.
pub fn measure() -> ApssPerfSnapshot {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let corpus = CorpusSpec::new("bench", 200, 4000, 6).generate(1);
    let n_hashes = 256;

    let sketch_rates = |family: LshFamily| -> KernelRates {
        let units = corpus.records.len() as u64;
        let seq = Sketcher::new(family, n_hashes, 7).with_parallelism(Some(1));
        let par = Sketcher::new(family, n_hashes, 7).with_parallelism(Some(cores));
        KernelRates {
            units,
            seq_per_sec: best_rate(units, 300, || {
                std::hint::black_box(seq.sketch_all(&corpus.records));
            }),
            par_per_sec: best_rate(units, 300, || {
                std::hint::black_box(par.sketch_all(&corpus.records));
            }),
        }
    };
    let sketch_minhash = sketch_rates(LshFamily::MinHash);
    let sketch_simhash = sketch_rates(LshFamily::SimHash);

    let ds = GaussianSpec::new("bench", 200, 10, 4).generate(3);
    let n = ds.records.len() as u64;
    let pairs = n * (n - 1) / 2;
    let seq_cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let par_cfg = ApssConfig {
        parallelism: Some(cores),
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(&ds.records, ds.measure, &seq_cfg);
    let pair_evaluation = KernelRates {
        units: pairs,
        seq_per_sec: best_rate(pairs, 400, || {
            std::hint::black_box(apss_with_sketches(
                &ds.records,
                ds.measure,
                &sketches,
                0.7,
                &seq_cfg,
            ));
        }),
        par_per_sec: best_rate(pairs, 400, || {
            std::hint::black_box(apss_with_sketches(
                &ds.records,
                ds.measure,
                &sketches,
                0.7,
                &par_cfg,
            ));
        }),
    };

    // The 4-session run doubles as the bounded measurement's unbounded
    // baseline, so the most expensive sweep runs once, not twice.
    let mut baseline = None;
    let multi_session = [1usize, 2, 4]
        .iter()
        .map(|&s| {
            let (rates, stats) =
                sweep_shared_cache(&ds.records, ds.measure, s, CacheCapacity::unbounded());
            if s == 4 {
                baseline = Some((rates, stats));
            }
            rates
        })
        .collect();
    let (base_rates, base_stats) = baseline.expect("the session ladder includes 4");
    let bounded_cache = measure_bounded_cache(&ds.records, ds.measure, base_rates, base_stats);
    let banded_skew = measure_banded_skew_sized(1000, 250);
    let streaming = measure_streaming_sized(100, 40, 3);
    // Fixed 200-record batches growing the corpus 200 → 2000 (10×): the
    // O(batch) acceptance shape.
    let ingest_scaling = measure_ingest_scaling_sized(200, 200, 9);
    // The ingest_scaling growth shape at half depth, with a ladder of 8
    // threshold watches evaluated on every batch.
    let watch_scaling = measure_watch_scaling_sized(200, 200, 4, 8);
    // The same engine behind the wire: verbs round-tripped over an
    // in-process loopback server.
    let serving = measure_serving_sized(120, 40, 3, 12);
    // Durability: snapshot a 160-record corpus, log 3 × 40-record
    // batches to the WAL, then time warm recovery vs a cold rebuild.
    let recovery = measure_recovery_sized(160, 40, 3);

    ApssPerfSnapshot {
        cores,
        sketch_minhash,
        sketch_simhash,
        pair_evaluation,
        multi_session,
        bounded_cache,
        banded_skew,
        streaming,
        ingest_scaling,
        watch_scaling,
        serving,
        recovery,
    }
}

/// Measures [`ServingRates`]: boot an in-process [`ProbeServer`] on an
/// ephemeral loopback port, publish an `initial`-record corpus over the
/// wire, then time `reps` attach/detach cycles, `reps` warmed probe
/// round trips, `batches` ingest round trips of `batch_records` each,
/// and `reps` `memory_stats` round trips — every number is a full
/// request→reply cycle through framing, dispatch, and the engine.
fn measure_serving_sized(
    initial: usize,
    batch_records: usize,
    batches: usize,
    reps: usize,
) -> ServingRates {
    let total = initial + batch_records * batches;
    let ds = GaussianSpec::new("bench-serve", total, 10, 4).generate(17);
    let service = Arc::new(ProbeService::new());
    let server = ProbeServer::start(service, "127.0.0.1:0").expect("bind ephemeral loopback port");
    let mut client = ProbeClient::connect(server.local_addr()).expect("connect to bench server");
    let reply = client
        .request(&Request::Publish {
            name: "bench-serve".into(),
            measure: ds.measure,
            records: ds.records[..initial].to_vec(),
            cfg: PublishCfg::default(),
        })
        .expect("publish round trip");
    let fingerprint = reply
        .json
        .get("fingerprint")
        .and_then(|f| f.as_str().map(str::to_string))
        .expect("publish reply carries a fingerprint");
    let attach_request = Request::Attach {
        fingerprint,
        pinned: false,
        declared_measure: None,
    };
    let round_trip = |client: &mut ProbeClient, request: &Request| -> f64 {
        let t = Instant::now();
        let reply = client.request(request).expect("bench round trip");
        let secs = t.elapsed().as_secs_f64();
        assert_ne!(reply.frame_type(), "error", "{}", reply.raw);
        secs
    };

    let started = Instant::now();
    let mut requests = 0u64;
    let mut attach_secs = 0.0f64;
    for _ in 0..reps {
        attach_secs += round_trip(&mut client, &attach_request);
        client.request(&Request::Detach).expect("detach round trip");
        requests += 2;
    }
    client.request(&attach_request).expect("serving attach");
    // One warm-up probe publishes the memos; the timed probes are pure
    // cache hits, so their mean is the protocol overhead.
    client
        .request(&Request::Probe { threshold: 0.7 })
        .expect("warm-up probe");
    requests += 2;
    let mut probe_secs = 0.0f64;
    for _ in 0..reps {
        probe_secs += round_trip(&mut client, &Request::Probe { threshold: 0.7 });
        requests += 1;
    }
    let mut ingest_secs = 0.0f64;
    for b in 0..batches {
        let lo = initial + b * batch_records;
        let records = ds.records[lo..lo + batch_records].to_vec();
        ingest_secs += round_trip(&mut client, &Request::Ingest { records });
        requests += 1;
    }
    let mut stats_secs = 0.0f64;
    for _ in 0..reps {
        stats_secs += round_trip(&mut client, &Request::MemoryStats);
        requests += 1;
    }
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    drop(client);
    server.stop();

    let mean_us = |secs: f64, n: usize| secs * 1e6 / n.max(1) as f64;
    ServingRates {
        requests,
        requests_per_sec: requests as f64 / wall,
        attach_mean_us: mean_us(attach_secs, reps),
        probe_mean_us: mean_us(probe_secs, reps),
        ingest_mean_us: mean_us(ingest_secs, batches),
        memory_stats_mean_us: mean_us(stats_secs, reps),
    }
}

/// Measures [`RecoveryRates`]: seed a scratch corpus directory the way
/// the serving layer does — publish-time snapshot of `initial` records,
/// then `batches` WAL-logged ingest batches of `batch_records` — and
/// time [`plasma_core::durable::recover`] (snapshot load + overlap
/// verification + WAL tail replay) against a cold
/// [`StreamingSession::from_records`] build of the full corpus. Both
/// sides are best-of-`reps` wall times; recovery leaves the directory
/// untouched, so repeated runs recover identical state.
fn measure_recovery_sized(initial: usize, batch_records: usize, batches: usize) -> RecoveryRates {
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

    // Best-of-N wall seconds; one untimed warm-up run filters the first
    // pass's page-cache and allocator noise.
    let best_secs = |mut run: Box<dyn FnMut()>| -> f64 {
        run();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            run();
            best = best.min(t.elapsed().as_secs_f64().max(1e-9));
        }
        best
    };
    let warm_dir = dir.clone();
    let warm_secs = best_secs(Box::new(move || {
        let rec = durable::recover(&warm_dir, ds.measure, cfg, CacheCapacity::unbounded())
            .expect("bench recovery");
        assert_eq!(
            rec.epoch, batches as u64,
            "recovery must replay every batch"
        );
        std::hint::black_box(rec);
    }));
    let cold_records = ds.records.clone();
    let cold_secs = best_secs(Box::new(move || {
        let mut cold = StreamingSession::from_records(cold_records.clone(), ds.measure, cfg);
        cold.ingest(&[]); // force the build the lazy session defers
        std::hint::black_box(cold);
    }));
    let _ = std::fs::remove_dir_all(&dir);

    let wal_replay_records = (batch_records * batches) as u64;
    RecoveryRates {
        initial_records: initial as u64,
        batches: batches as u64,
        batch_records: batch_records as u64,
        final_records: total as u64,
        snapshot_bytes,
        wal_replay_records,
        wal_replay_records_per_sec: wal_replay_records as f64 / warm_secs,
        cold_start_ms: cold_secs * 1e3,
        warm_restart_ms: warm_secs * 1e3,
    }
}

/// Measures [`IngestScalingRates`]: seed a [`StreamingSession`] with
/// `initial` records, then ingest `batches` fixed-size batches of
/// `batch_records` with no probes in between, timing each ingest call and
/// recording each epoch's snapshot-clone bytes. Pure ingest — the number
/// this scenario exists to pin is that the last batch (largest corpus)
/// costs about the same as the first.
fn measure_ingest_scaling_sized(
    initial: usize,
    batch_records: usize,
    batches: usize,
) -> IngestScalingRates {
    let total = initial + batch_records * batches;
    let ds = GaussianSpec::new("bench-ingest", total, 10, 4).generate(11);
    let cfg = ApssConfig::default();
    let mut session =
        StreamingSession::from_records(ds.records[..initial].to_vec(), ds.measure, cfg);
    // Force the lazy epoch-0 build now so the first timed batch measures
    // ingest, not the seed corpus's sketch_all.
    session.ingest(&[]);
    let mut per_batch_ns = Vec::with_capacity(batches);
    let mut snapshot_clone_bytes = Vec::with_capacity(batches);
    for b in 0..batches {
        let lo = initial + b * batch_records;
        let t = Instant::now();
        let report = session.ingest(&ds.records[lo..lo + batch_records]);
        per_batch_ns.push(t.elapsed().as_nanos() as u64);
        snapshot_clone_bytes.push(report.snapshot_clone_bytes as u64);
    }
    let sketches = session.sketches().expect("ingest built the sketch store");
    IngestScalingRates {
        batches: batches as u64,
        batch_records: batch_records as u64,
        initial_records: initial as u64,
        final_records: session.len() as u64,
        per_batch_ns,
        snapshot_clone_bytes,
        corpus_bytes: sketches.byte_size() as u64,
        sealed_segments: sketches.sealed_segments() as u64,
        segment_records: sketches.segment_records() as u64,
    }
}

/// Measures [`WatchScalingRates`]: seed a [`StreamingSession`] with
/// `initial` records, register `watches` threshold watches on a descending
/// ladder, then ingest `batches` fixed-size batches, timing each ingest —
/// which now includes one delta evaluation per watch. Registration deltas
/// (full probes by construction) are drained before the clock starts; the
/// timed loop counts only per-epoch delta pairs. The first watch of each
/// epoch pays the delta's cold evaluation, the remaining watches ride the
/// memos it published.
fn measure_watch_scaling_sized(
    initial: usize,
    batch_records: usize,
    batches: usize,
    watches: usize,
) -> WatchScalingRates {
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
    // Drain the registration deltas — full probes at the seed corpus, not
    // part of the per-epoch delta cost this scenario pins.
    for h in &handles {
        h.drain();
    }
    let mut per_epoch_delta_ns = Vec::with_capacity(batches);
    let mut per_epoch_delta_pairs = Vec::with_capacity(batches);
    for b in 0..batches {
        let lo = initial + b * batch_records;
        let t = Instant::now();
        session.ingest(&ds.records[lo..lo + batch_records]);
        per_epoch_delta_ns.push(t.elapsed().as_nanos() as u64);
        let pairs: usize = handles
            .iter()
            .flat_map(|h| h.drain())
            .map(|d| d.new_pairs.len())
            .sum();
        per_epoch_delta_pairs.push(pairs as u64);
    }
    WatchScalingRates {
        watches: watches as u64,
        batches: batches as u64,
        batch_records: batch_records as u64,
        initial_records: initial as u64,
        final_records: session.len() as u64,
        total_delta_pairs: per_epoch_delta_pairs.iter().sum(),
        per_epoch_delta_ns,
        per_epoch_delta_pairs,
    }
}

/// Measures [`StreamingRates`]: seed a [`StreamingSession`] with
/// `initial` records and one warm probe, then ingest `batches` batches of
/// `batch_records`, re-probing the same threshold after each epoch — the
/// serving shape where every old pair rides a carried memo.
fn measure_streaming_sized(initial: usize, batch_records: usize, batches: usize) -> StreamingRates {
    let total = initial + batch_records * batches;
    let ds = GaussianSpec::new("bench-stream", total, 10, 4).generate(7);
    let cfg = ApssConfig::default();
    let mut session =
        StreamingSession::from_records(ds.records[..initial].to_vec(), ds.measure, cfg);
    session.probe(0.7);
    let mut ingest_secs = 0.0f64;
    let mut probe_secs = 0.0f64;
    let mut hits = 0u64;
    let mut candidates = 0u64;
    for b in 0..batches {
        let lo = initial + b * batch_records;
        let t = Instant::now();
        session.ingest(&ds.records[lo..lo + batch_records]);
        ingest_secs += t.elapsed().as_secs_f64();
        let report = session.probe(0.7);
        probe_secs += report.seconds;
        hits += report.cache_hits;
        candidates += report.candidates;
    }
    StreamingRates {
        batches: batches as u64,
        batch_records: batch_records as u64,
        final_records: session.len() as u64,
        final_epoch: session.epoch(),
        ingest_records_per_sec: (batch_records * batches) as f64 / ingest_secs.max(1e-9),
        carried_hit_rate: hits as f64 / candidates.max(1) as f64,
        probe_mean_ms: probe_secs * 1e3 / (batches as f64).max(1.0),
    }
}

/// A Zipf(2.0)-clustered corpus: each record is an exact copy of its
/// cluster's base set, cluster drawn from `Zipf` over 64 ranks — the
/// rank-0 cluster holds ~60% of records, so every band of its sketches
/// has one bucket carrying the majority of the corpus.
fn zipf_skewed_records(n: usize, seed: u64) -> Vec<SparseVector> {
    let zipf = Zipf::new(64, 2.0);
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            let c = zipf.sample(&mut rng) as u32;
            SparseVector::from_set((c * 60..c * 60 + 45).collect())
        })
        .collect()
}

/// Banded join bands/width used by the skew measurement.
const SKEW_BANDS: usize = 8;
const SKEW_WIDTH: usize = 8;

/// Measures [`BandedSkewRates`] on an `n`-record Zipf-skewed corpus,
/// with `budget_ms` of wall time per timed kernel (small in tests, 250ms
/// in the real snapshot).
fn measure_banded_skew_sized(n: usize, budget_ms: u64) -> BandedSkewRates {
    let records = zipf_skewed_records(n, 9);
    let sketches = Sketcher::new(LshFamily::MinHash, 64, 7).sketch_all(&records);
    let stats = banded_bucket_stats(&sketches, SKEW_BANDS, SKEW_WIDTH);
    let candidates = banded_sequential(&sketches, SKEW_BANDS, SKEW_WIDTH).len() as u64;
    let seq_per_sec = best_rate(stats.total_pairs, budget_ms, || {
        std::hint::black_box(banded_sequential(&sketches, SKEW_BANDS, SKEW_WIDTH));
    });
    let par_per_sec = best_rate(stats.total_pairs, budget_ms, || {
        std::hint::black_box(banded_join(&sketches, SKEW_BANDS, SKEW_WIDTH, 0));
    });
    BandedSkewRates {
        records: n as u64,
        hot_bucket_share: stats.hot_bucket_members as f64 / (n as f64).max(1.0),
        hot_bucket_pairs: stats.hot_bucket_pairs,
        total_pairs: stats.total_pairs,
        candidates,
        seq_per_sec,
        par_per_sec,
    }
}

/// Threshold ladder each benchmark session sweeps (high → low, the
/// interactive exploration shape; overlapping sweeps are what the shared
/// cache exists to amortize).
const SESSION_SWEEP: [f64; 5] = [0.9, 0.8, 0.7, 0.6, 0.5];

/// Runs `sessions` concurrent sessions over one fresh shared cache under
/// the given memory policy, each sweeping [`SESSION_SWEEP`]; returns the
/// aggregate rates and the cache's post-sweep memory statistics.
/// Per-probe evaluation is pinned sequential so the session count is the
/// only parallelism axis.
fn sweep_shared_cache(
    records: &[plasma_data::vector::SparseVector],
    measure: plasma_data::similarity::Similarity,
    sessions: usize,
    capacity: CacheCapacity,
) -> (MultiSessionRates, CacheMemoryStats) {
    let cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(records, measure, &cfg);
    let cache = Arc::new(SharedKnowledgeCache::with_capacity(sketches, capacity));
    let wall = Instant::now();
    // (probe seconds, cache hits, candidates) per session.
    let per_session: Vec<(f64, u64, u64)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..sessions)
            .map(|_| {
                let cache = cache.clone();
                scope.spawn(move || {
                    let mut session =
                        StreamingSession::from_records(records.to_vec(), measure, cfg)
                            .with_shared_cache(cache);
                    let mut totals = (0.0f64, 0u64, 0u64);
                    for &t in &SESSION_SWEEP {
                        let r = session.probe(t);
                        totals.0 += r.seconds;
                        totals.1 += r.cache_hits;
                        totals.2 += r.candidates;
                    }
                    totals
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("bench session panicked"))
            .collect()
    });
    let wall_secs = wall.elapsed().as_secs_f64().max(1e-9);
    let probes = (sessions * SESSION_SWEEP.len()) as u64;
    let probe_secs: f64 = per_session.iter().map(|p| p.0).sum();
    let hits: u64 = per_session.iter().map(|p| p.1).sum();
    let candidates: u64 = per_session.iter().map(|p| p.2).sum();
    let rates = MultiSessionRates {
        sessions,
        probes,
        probes_per_sec: probes as f64 / wall_secs,
        mean_probe_ms: probe_secs * 1e3 / probes as f64,
        cache_hit_rate: hits as f64 / candidates.max(1) as f64,
    };
    (rates, cache.memory_stats())
}

/// Runs the 4-session sweep under a cap of a quarter of the unbounded
/// run's peak — deep enough that the eviction path genuinely churns —
/// recording what boundedness costs in hit rate. The unbounded baseline
/// (`unbounded`, `base`) is the caller's `sessions == 4` measurement, so
/// the expensive sweep is not re-run here.
fn measure_bounded_cache(
    records: &[plasma_data::vector::SparseVector],
    measure: plasma_data::similarity::Similarity,
    unbounded: MultiSessionRates,
    base: CacheMemoryStats,
) -> BoundedCacheRates {
    let cap_bytes = (base.peak_memo_bytes / 4).max(1);
    let (capped, stats) =
        sweep_shared_cache(records, measure, 4, CacheCapacity::bounded(cap_bytes));
    BoundedCacheRates {
        cap_bytes,
        peak_memo_bytes_unbounded: base.peak_memo_bytes,
        peak_memo_bytes: stats.peak_memo_bytes,
        hit_rate_unbounded: unbounded.cache_hit_rate,
        hit_rate: capped.cache_hit_rate,
        evicted_entries: stats.evicted_entries,
    }
}

impl ApssPerfSnapshot {
    /// Renders the snapshot as JSON (hand-rolled; the workspace carries no
    /// serde).
    pub fn to_json(&self) -> String {
        fn rates(r: &KernelRates) -> String {
            format!(
                "{{\"units\": {}, \"seq_per_sec\": {:.1}, \"par_per_sec\": {:.1}, \"speedup\": {:.3}}}",
                r.units,
                r.seq_per_sec,
                r.par_per_sec,
                r.speedup()
            )
        }
        let multi: Vec<String> = self
            .multi_session
            .iter()
            .map(|m| {
                format!(
                    "{{\"sessions\": {}, \"probes\": {}, \"probes_per_sec\": {:.1}, \"mean_probe_ms\": {:.3}, \"cache_hit_rate\": {:.4}}}",
                    m.sessions, m.probes, m.probes_per_sec, m.mean_probe_ms, m.cache_hit_rate
                )
            })
            .collect();
        let bounded = format!(
            "{{\"cap_bytes\": {}, \"peak_memo_bytes_unbounded\": {}, \"peak_memo_bytes\": {}, \"hit_rate_unbounded\": {:.4}, \"hit_rate\": {:.4}, \"evicted_entries\": {}}}",
            self.bounded_cache.cap_bytes,
            self.bounded_cache.peak_memo_bytes_unbounded,
            self.bounded_cache.peak_memo_bytes,
            self.bounded_cache.hit_rate_unbounded,
            self.bounded_cache.hit_rate,
            self.bounded_cache.evicted_entries
        );
        let skew = {
            let s = &self.banded_skew;
            format!(
                "{{\"records\": {}, \"hot_bucket_share\": {:.4}, \"hot_bucket_pairs\": {}, \"total_pairs\": {}, \"candidates\": {}, \"seq_per_sec\": {:.1}, \"par_per_sec\": {:.1}, \"speedup\": {:.3}}}",
                s.records,
                s.hot_bucket_share,
                s.hot_bucket_pairs,
                s.total_pairs,
                s.candidates,
                s.seq_per_sec,
                s.par_per_sec,
                s.speedup()
            )
        };
        let streaming = {
            let s = &self.streaming;
            format!(
                "{{\"batches\": {}, \"batch_records\": {}, \"final_records\": {}, \"final_epoch\": {}, \"ingest_records_per_sec\": {:.1}, \"carried_hit_rate\": {:.4}, \"probe_mean_ms\": {:.3}}}",
                s.batches,
                s.batch_records,
                s.final_records,
                s.final_epoch,
                s.ingest_records_per_sec,
                s.carried_hit_rate,
                s.probe_mean_ms
            )
        };
        let ingest_scaling = {
            let s = &self.ingest_scaling;
            let join_u64 = |v: &[u64]| {
                v.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!(
                "{{\"batches\": {}, \"batch_records\": {}, \"initial_records\": {}, \"final_records\": {}, \"per_batch_ns\": [{}], \"first_batch_ns\": {}, \"last_batch_ns\": {}, \"ns_ratio_last_over_first\": {:.3}, \"snapshot_clone_bytes\": [{}], \"corpus_bytes\": {}, \"sealed_segments\": {}, \"segment_records\": {}}}",
                s.batches,
                s.batch_records,
                s.initial_records,
                s.final_records,
                join_u64(&s.per_batch_ns),
                s.first_batch_ns(),
                s.last_batch_ns(),
                s.ns_ratio_last_over_first(),
                join_u64(&s.snapshot_clone_bytes),
                s.corpus_bytes,
                s.sealed_segments,
                s.segment_records
            )
        };
        let watch_scaling = {
            let s = &self.watch_scaling;
            let join_u64 = |v: &[u64]| {
                v.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!(
                "{{\"watches\": {}, \"batches\": {}, \"batch_records\": {}, \"initial_records\": {}, \"final_records\": {}, \"per_epoch_delta_ns\": [{}], \"per_epoch_delta_pairs\": [{}], \"total_delta_pairs\": {}}}",
                s.watches,
                s.batches,
                s.batch_records,
                s.initial_records,
                s.final_records,
                join_u64(&s.per_epoch_delta_ns),
                join_u64(&s.per_epoch_delta_pairs),
                s.total_delta_pairs
            )
        };
        let serving = {
            let s = &self.serving;
            format!(
                "{{\"requests\": {}, \"requests_per_sec\": {:.1}, \"attach_mean_us\": {:.1}, \"probe_mean_us\": {:.1}, \"ingest_mean_us\": {:.1}, \"memory_stats_mean_us\": {:.1}}}",
                s.requests,
                s.requests_per_sec,
                s.attach_mean_us,
                s.probe_mean_us,
                s.ingest_mean_us,
                s.memory_stats_mean_us
            )
        };
        let recovery = {
            let r = &self.recovery;
            format!(
                "{{\"initial_records\": {}, \"batches\": {}, \"batch_records\": {}, \"final_records\": {}, \"snapshot_bytes\": {}, \"wal_replay_records\": {}, \"wal_replay_records_per_sec\": {:.1}, \"cold_start_ms\": {:.3}, \"warm_restart_ms\": {:.3}, \"warm_cold_ratio\": {:.4}}}",
                r.initial_records,
                r.batches,
                r.batch_records,
                r.final_records,
                r.snapshot_bytes,
                r.wal_replay_records,
                r.wal_replay_records_per_sec,
                r.cold_start_ms,
                r.warm_restart_ms,
                r.warm_cold_ratio()
            )
        };
        format!(
            "{{\n  \"benchmark\": \"apss\",\n  \"cores\": {},\n  \"sketching\": {{\n    \"n_hashes\": 256,\n    \"minhash\": {},\n    \"simhash\": {}\n  }},\n  \"pair_evaluation\": {},\n  \"multi_session\": [\n    {}\n  ],\n  \"bounded_cache\": {},\n  \"banded_skew\": {},\n  \"streaming\": {},\n  \"ingest_scaling\": {},\n  \"watch_scaling\": {},\n  \"serving\": {},\n  \"recovery\": {}\n}}\n",
            self.cores,
            rates(&self.sketch_minhash),
            rates(&self.sketch_simhash),
            rates(&self.pair_evaluation),
            multi.join(",\n    "),
            bounded,
            skew,
            streaming,
            ingest_scaling,
            watch_scaling,
            serving,
            recovery
        )
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("APSS perf snapshot ({} cores)\n", self.cores));
        for (name, r) in [
            ("sketch/minhash256", &self.sketch_minhash),
            ("sketch/simhash256", &self.sketch_simhash),
            ("pairs/exhaustive", &self.pair_evaluation),
        ] {
            out.push_str(&format!(
                "  {name:<20} seq {:>12.0}/s   par {:>12.0}/s   speedup {:>5.2}x\n",
                r.seq_per_sec,
                r.par_per_sec,
                r.speedup()
            ));
        }
        for m in &self.multi_session {
            out.push_str(&format!(
                "  shared-cache x{:<10} {:>6.1} probes/s   mean {:>8.2} ms   hit-rate {:>5.1}%\n",
                m.sessions,
                m.probes_per_sec,
                m.mean_probe_ms,
                m.cache_hit_rate * 100.0
            ));
        }
        let b = &self.bounded_cache;
        out.push_str(&format!(
            "  bounded-cache (cap {:>8}B) peak {:>8}B (unbounded {:>8}B)   hit-rate {:>5.1}% (unbounded {:>5.1}%)   evicted {}\n",
            b.cap_bytes,
            b.peak_memo_bytes,
            b.peak_memo_bytes_unbounded,
            b.hit_rate * 100.0,
            b.hit_rate_unbounded * 100.0,
            b.evicted_entries
        ));
        let s = &self.banded_skew;
        out.push_str(&format!(
            "  banded-skew (hot bucket {:>4.1}%) {:>8} candidates   seq {:>11.0}/s   join {:>11.0}/s   ratio {:>5.2}x\n",
            s.hot_bucket_share * 100.0,
            s.candidates,
            s.seq_per_sec,
            s.par_per_sec,
            s.speedup()
        ));
        let st = &self.streaming;
        out.push_str(&format!(
            "  streaming ({} x {} records → epoch {}) ingest {:>9.0} rec/s   probe {:>8.2} ms   carried hit-rate {:>5.1}%\n",
            st.batches,
            st.batch_records,
            st.final_epoch,
            st.ingest_records_per_sec,
            st.probe_mean_ms,
            st.carried_hit_rate * 100.0
        ));
        let ig = &self.ingest_scaling;
        out.push_str(&format!(
            "  ingest-scaling ({} x {} records on {}) first {:>9} ns   last {:>9} ns   ratio {:>5.2}x   clone {:>8} B of {:>9} B corpus ({} segments x {})\n",
            ig.batches,
            ig.batch_records,
            ig.initial_records,
            ig.first_batch_ns(),
            ig.last_batch_ns(),
            ig.ns_ratio_last_over_first(),
            ig.snapshot_clone_bytes.last().copied().unwrap_or(0),
            ig.corpus_bytes,
            ig.sealed_segments,
            ig.segment_records
        ));
        let w = &self.watch_scaling;
        out.push_str(&format!(
            "  watch-scaling ({} watches, {} x {} records on {}) first {:>9} ns   last {:>9} ns   delta pairs {:>8} total\n",
            w.watches,
            w.batches,
            w.batch_records,
            w.initial_records,
            w.per_epoch_delta_ns.first().copied().unwrap_or(0),
            w.per_epoch_delta_ns.last().copied().unwrap_or(0),
            w.total_delta_pairs
        ));
        let sv = &self.serving;
        out.push_str(&format!(
            "  serving ({} requests over TCP) {:>8.0} req/s   attach {:>8.1} us   probe {:>8.1} us   ingest {:>8.1} us   stats {:>8.1} us\n",
            sv.requests,
            sv.requests_per_sec,
            sv.attach_mean_us,
            sv.probe_mean_us,
            sv.ingest_mean_us,
            sv.memory_stats_mean_us
        ));
        let rc = &self.recovery;
        out.push_str(&format!(
            "  recovery ({} records: {} B snapshot + {} x {} WAL records) warm {:>8.2} ms   cold {:>8.2} ms   ratio {:>5.2}x   replay {:>9.0} rec/s\n",
            rc.final_records,
            rc.snapshot_bytes,
            rc.batches,
            rc.batch_records,
            rc.warm_restart_ms,
            rc.cold_start_ms,
            rc.warm_cold_ratio(),
            rc.wal_replay_records_per_sec
        ));
        out
    }
}

/// Required keys of the `BENCH_apss.json` schema, including the
/// bounded-cache memory fields, the banded-skew bucket-shape fields, the
/// streaming-ingest fields, the ingest-scaling fields, the
/// watch-scaling continuous-probe fields, the serving round-trip
/// fields, the recovery warm-restart fields, and the open-loop
/// `loadgen` harness fields (per-scenario counters, latency
/// percentiles, and the offered-vs-achieved saturation curve).
/// `repro check-bench` (the CI perf-smoke gate) fails when any goes
/// missing, so snapshot consumers can rely on them across commits.
const REQUIRED_SNAPSHOT_KEYS: [&str; 101] = [
    "benchmark",
    "cores",
    "sketching",
    "n_hashes",
    "minhash",
    "simhash",
    "pair_evaluation",
    "units",
    "seq_per_sec",
    "par_per_sec",
    "speedup",
    "multi_session",
    "sessions",
    "probes",
    "probes_per_sec",
    "mean_probe_ms",
    "cache_hit_rate",
    "bounded_cache",
    "cap_bytes",
    "peak_memo_bytes_unbounded",
    "peak_memo_bytes",
    "hit_rate_unbounded",
    "hit_rate",
    "evicted_entries",
    "banded_skew",
    "records",
    "hot_bucket_share",
    "hot_bucket_pairs",
    "total_pairs",
    "candidates",
    "streaming",
    "batches",
    "batch_records",
    "final_records",
    "final_epoch",
    "ingest_records_per_sec",
    "carried_hit_rate",
    "probe_mean_ms",
    "ingest_scaling",
    "initial_records",
    "per_batch_ns",
    "first_batch_ns",
    "last_batch_ns",
    "ns_ratio_last_over_first",
    "snapshot_clone_bytes",
    "corpus_bytes",
    "sealed_segments",
    "segment_records",
    "watch_scaling",
    "watches",
    "per_epoch_delta_ns",
    "per_epoch_delta_pairs",
    "total_delta_pairs",
    "serving",
    "requests",
    "requests_per_sec",
    "attach_mean_us",
    "probe_mean_us",
    "ingest_mean_us",
    "memory_stats_mean_us",
    "recovery",
    "snapshot_bytes",
    "wal_replay_records",
    "wal_replay_records_per_sec",
    "cold_start_ms",
    "warm_restart_ms",
    "warm_cold_ratio",
    "loadgen",
    "seed",
    "smoke",
    "transport",
    "scenarios",
    "scenario",
    "watchers",
    "tenants",
    "planned_requests",
    "completed_requests",
    "error_requests",
    "verbs",
    "watch_deltas",
    "watch_deltas_expected",
    "wal_acked_appends",
    "wal_syncs",
    "registry_evictions",
    "registry_evictions_expected",
    "ingest_wakeups",
    "steps",
    "offered_per_sec",
    "achieved_per_sec",
    "saturation",
    "planned",
    "completed",
    "errors",
    "clients_started",
    "clients_spawned",
    "p50_ms",
    "p99_ms",
    "p999_ms",
    "max_ms",
    "mean_ms",
    "samples",
];

/// Validates a `BENCH_apss.json` document against the snapshot schema:
/// every required key present (quoted, colon-terminated), the benchmark
/// id correct, and braces/brackets structurally balanced. Returns every
/// violation found, so a CI failure names all missing fields at once.
pub fn validate_snapshot_json(json: &str) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    if !json.contains("\"benchmark\": \"apss\"") {
        problems.push("missing or wrong benchmark id (want \"benchmark\": \"apss\")".to_string());
    }
    for key in REQUIRED_SNAPSHOT_KEYS {
        if !json.contains(&format!("\"{key}\":")) {
            problems.push(format!("missing required key \"{key}\""));
        }
    }
    for (open, close, name) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let opens = json.matches(open).count();
        let closes = json.matches(close).count();
        if opens != closes {
            problems.push(format!(
                "unbalanced {name}: {opens} {open} vs {closes} {close}"
            ));
        }
    }
    if !json.trim_start().starts_with('{') {
        problems.push("document does not start with an object".to_string());
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

fn num_at(doc: &Json, which: &str, path: &str, problems: &mut Vec<String>) -> Option<f64> {
    match lookup(doc, path).and_then(Json::as_f64) {
        Some(v) => Some(v),
        None => {
            problems.push(format!("{which} snapshot lacks numeric field {path}"));
            None
        }
    }
}

fn check_exact(fresh: &Json, committed: &Json, path: &str, problems: &mut Vec<String>) {
    let a = num_at(fresh, "fresh", path, problems);
    let b = num_at(committed, "committed", path, problems);
    if let (Some(a), Some(b)) = (a, b) {
        if (a - b).abs() > 1e-9 {
            problems.push(format!(
                "{path}: fresh {a} != committed {b} (deterministic counter drifted)"
            ));
        }
    }
}

fn check_abs_tol(fresh: &Json, committed: &Json, path: &str, tol: f64, problems: &mut Vec<String>) {
    let a = num_at(fresh, "fresh", path, problems);
    let b = num_at(committed, "committed", path, problems);
    if let (Some(a), Some(b)) = (a, b) {
        if (a - b).abs() > tol {
            problems.push(format!(
                "{path}: fresh {a} outside tolerance band ±{tol} around committed {b}"
            ));
        }
    }
}

/// Deterministic counters compared exactly against the committed
/// baseline. Everything here is a pure function of the benchmark's
/// seeded inputs — pair totals, record counts, epochs — never a rate.
const EXACT_GATES: &[&str] = &[
    "banded_skew.records",
    "banded_skew.total_pairs",
    "banded_skew.hot_bucket_pairs",
    "banded_skew.candidates",
    "streaming.batches",
    "streaming.batch_records",
    "streaming.final_records",
    "streaming.final_epoch",
    "ingest_scaling.batches",
    "ingest_scaling.batch_records",
    "ingest_scaling.initial_records",
    "ingest_scaling.final_records",
    "ingest_scaling.corpus_bytes",
    "watch_scaling.watches",
    "watch_scaling.batches",
    "watch_scaling.final_records",
    "watch_scaling.total_delta_pairs",
    "recovery.initial_records",
    "recovery.batches",
    "recovery.final_records",
    "recovery.wal_replay_records",
];

/// Ratio gates with absolute tolerance bands: structural ratios that
/// are stable run to run but not bit-exact across parallelism modes.
const RATIO_GATES: &[(&str, f64)] = &[
    ("streaming.carried_hit_rate", 0.05),
    ("multi_session[0].cache_hit_rate", 0.05),
];

/// Per-scenario loadgen counters compared exactly (all plan-derived,
/// so deterministic from the seed).
const LOADGEN_SCENARIO_EXACT: &[&str] = &[
    "planned_requests",
    "completed_requests",
    "error_requests",
    "watch_deltas_expected",
    "registry_evictions_expected",
    "wal_acked_appends",
];

/// Compares a fresh `BENCH_apss.json` against the committed baseline —
/// the CI regression gate behind `repro check-bench --against`.
///
/// The gate never compares absolute throughput (machines differ); it
/// compares what determinism promises: exact counters that derive from
/// seeded inputs, ratio invariants within tolerance bands, and
/// intra-snapshot invariants of the fresh run (completed == planned,
/// watch deltas matching their plan-derived expectation, group-commit
/// syncs never exceeding acked appends, ordered latency percentiles).
/// Geometry-dependent counters (`sealed_segments`) are gated only when
/// both snapshots were measured under the same segment geometry, since
/// CI sweeps `PLASMA_SEGMENT_RECORDS` across matrix cells.
pub fn compare_snapshots(fresh_json: &str, committed_json: &str) -> Result<(), Vec<String>> {
    let fresh = match json::parse(fresh_json) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("fresh snapshot does not parse: {e}")]),
    };
    let committed = match json::parse(committed_json) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("committed snapshot does not parse: {e}")]),
    };
    let mut problems = Vec::new();

    for path in EXACT_GATES {
        check_exact(&fresh, &committed, path, &mut problems);
    }
    for (path, tol) in RATIO_GATES {
        check_abs_tol(&fresh, &committed, path, *tol, &mut problems);
    }

    // Segment geometry is a CI matrix axis; sealing counts only compare
    // within one geometry.
    let seg = |doc: &Json| lookup(doc, "ingest_scaling.segment_records").and_then(Json::as_u64);
    if seg(&fresh).is_some() && seg(&fresh) == seg(&committed) {
        check_exact(
            &fresh,
            &committed,
            "ingest_scaling.sealed_segments",
            &mut problems,
        );
    }

    // The session ladder itself (probe counts per rung) is fixed.
    let rungs = |doc: &Json| {
        lookup(doc, "multi_session")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len)
    };
    let fresh_rungs = rungs(&fresh);
    if fresh_rungs != rungs(&committed) {
        problems.push(format!(
            "multi_session ladder length drifted: fresh {fresh_rungs} vs committed {}",
            rungs(&committed)
        ));
    } else {
        for i in 0..fresh_rungs {
            check_exact(
                &fresh,
                &committed,
                &format!("multi_session[{i}].probes"),
                &mut problems,
            );
            check_exact(
                &fresh,
                &committed,
                &format!("multi_session[{i}].sessions"),
                &mut problems,
            );
        }
    }

    compare_loadgen(&fresh, &committed, &mut problems);

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

fn str_at<'a>(doc: &'a Json, path: &str) -> Option<&'a str> {
    lookup(doc, path).and_then(Json::as_str)
}

fn compare_loadgen(fresh: &Json, committed: &Json, problems: &mut Vec<String>) {
    // Plan-derived loadgen counters only compare when both runs derive
    // from the same plan: same seed, sizing, and transport.
    for path in ["loadgen.seed", "loadgen.smoke"] {
        let a = lookup(fresh, path).map(Json::encode);
        let b = lookup(committed, path).map(Json::encode);
        if a.is_none() || a != b {
            problems.push(format!(
                "loadgen baselines not comparable: {path} fresh {a:?} vs committed {b:?}"
            ));
            return;
        }
    }
    if str_at(fresh, "loadgen.transport") != str_at(committed, "loadgen.transport") {
        problems.push("loadgen baselines not comparable: transport differs".to_string());
        return;
    }

    let arr = |doc: &Json, which: &str, problems: &mut Vec<String>| -> usize {
        match lookup(doc, "loadgen.scenarios").and_then(Json::as_arr) {
            Some(scenarios) => scenarios.len(),
            None => {
                problems.push(format!("{which} snapshot lacks loadgen.scenarios"));
                0
            }
        }
    };
    let n = arr(fresh, "fresh", problems);
    if n != arr(committed, "committed", problems) || n == 0 {
        problems.push("loadgen scenario lists differ in length".to_string());
        return;
    }

    for i in 0..n {
        let prefix = format!("loadgen.scenarios[{i}]");
        let name = str_at(fresh, &format!("{prefix}.scenario"));
        if name != str_at(committed, &format!("{prefix}.scenario")) {
            problems.push(format!("{prefix}.scenario name drifted"));
            continue;
        }
        for field in LOADGEN_SCENARIO_EXACT {
            check_exact(fresh, committed, &format!("{prefix}.{field}"), problems);
        }
        // Verb mixes render sorted from a BTreeMap, so deterministic
        // plans give byte-equal objects.
        let verbs = |doc: &Json| lookup(doc, &format!("{prefix}.verbs")).map(Json::encode);
        if verbs(fresh) != verbs(committed) {
            problems.push(format!(
                "{prefix}.verbs mix drifted: fresh {:?} vs committed {:?}",
                verbs(fresh),
                verbs(committed)
            ));
        }

        // Intra-snapshot invariants of the fresh run.
        let fresh_num =
            |path: &str, problems: &mut Vec<String>| num_at(fresh, "fresh", path, problems);
        let pairs = [
            ("completed_requests", "planned_requests"),
            ("watch_deltas", "watch_deltas_expected"),
            ("registry_evictions", "registry_evictions_expected"),
        ];
        for (got, want) in pairs {
            let a = fresh_num(&format!("{prefix}.{got}"), problems);
            let b = fresh_num(&format!("{prefix}.{want}"), problems);
            if let (Some(a), Some(b)) = (a, b) {
                if (a - b).abs() > 1e-9 {
                    problems.push(format!(
                        "{prefix}: {got} ({a}) != {want} ({b}) — open-loop invariant broken"
                    ));
                }
            }
        }
        let acked = fresh_num(&format!("{prefix}.wal_acked_appends"), problems);
        let syncs = fresh_num(&format!("{prefix}.wal_syncs"), problems);
        if let (Some(acked), Some(syncs)) = (acked, syncs) {
            if syncs > acked {
                problems.push(format!(
                    "{prefix}: wal_syncs ({syncs}) exceeds wal_acked_appends ({acked})"
                ));
            }
            if acked > 0.0 && syncs < 1.0 {
                problems.push(format!(
                    "{prefix}: appends were acked without a single sync"
                ));
            }
        }
        if let Some(steps) = lookup(fresh, &format!("{prefix}.steps")).and_then(Json::as_arr) {
            for (si, _) in steps.iter().enumerate() {
                let sp = format!("{prefix}.steps[{si}]");
                let p50 = fresh_num(&format!("{sp}.p50_ms"), problems);
                let p99 = fresh_num(&format!("{sp}.p99_ms"), problems);
                let p999 = fresh_num(&format!("{sp}.p999_ms"), problems);
                let max = fresh_num(&format!("{sp}.max_ms"), problems);
                if let (Some(p50), Some(p99), Some(p999), Some(max)) = (p50, p99, p999, max) {
                    if !(p50 <= p99 && p99 <= p999 && p999 <= max + 1e-9) {
                        problems.push(format!(
                            "{sp}: percentiles out of order (p50 {p50}, p99 {p99}, p999 {p999}, max {max})"
                        ));
                    }
                }
                let planned = fresh_num(&format!("{sp}.planned"), problems);
                let samples = fresh_num(&format!("{sp}.samples"), problems);
                if let (Some(planned), Some(samples)) = (planned, samples) {
                    if (planned - samples).abs() > 1e-9 {
                        problems.push(format!(
                            "{sp}: {samples} latency samples for {planned} planned requests — open-loop runs sample every request"
                        ));
                    }
                }
            }
        } else {
            problems.push(format!("{prefix}.steps missing"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully populated snapshot with internally consistent values,
    /// shared by the schema and regression-gate tests.
    fn test_snapshot() -> ApssPerfSnapshot {
        ApssPerfSnapshot {
            cores: 4,
            sketch_minhash: KernelRates {
                units: 200,
                seq_per_sec: 1000.0,
                par_per_sec: 3500.0,
            },
            sketch_simhash: KernelRates {
                units: 200,
                seq_per_sec: 800.0,
                par_per_sec: 3000.0,
            },
            pair_evaluation: KernelRates {
                units: 19900,
                seq_per_sec: 100_000.0,
                par_per_sec: 420_000.0,
            },
            multi_session: vec![
                MultiSessionRates {
                    sessions: 1,
                    probes: 5,
                    probes_per_sec: 20.0,
                    mean_probe_ms: 50.0,
                    cache_hit_rate: 0.42,
                },
                MultiSessionRates {
                    sessions: 4,
                    probes: 20,
                    probes_per_sec: 55.0,
                    mean_probe_ms: 60.0,
                    cache_hit_rate: 0.81,
                },
            ],
            bounded_cache: BoundedCacheRates {
                cap_bytes: 65536,
                peak_memo_bytes_unbounded: 262144,
                peak_memo_bytes: 65536,
                hit_rate_unbounded: 0.81,
                hit_rate: 0.55,
                evicted_entries: 1234,
            },
            banded_skew: BandedSkewRates {
                records: 1000,
                hot_bucket_share: 0.61,
                hot_bucket_pairs: 185_745,
                total_pairs: 1_600_000,
                candidates: 250_000,
                seq_per_sec: 2_000_000.0,
                par_per_sec: 6_000_000.0,
            },
            streaming: StreamingRates {
                batches: 3,
                batch_records: 40,
                final_records: 220,
                final_epoch: 3,
                ingest_records_per_sec: 15_000.0,
                carried_hit_rate: 0.73,
                probe_mean_ms: 12.5,
            },
            ingest_scaling: IngestScalingRates {
                batches: 3,
                batch_records: 200,
                initial_records: 200,
                final_records: 800,
                per_batch_ns: vec![50_000, 52_000, 51_000],
                snapshot_clone_bytes: vec![4096, 4112, 4128],
                corpus_bytes: 1_638_400,
                sealed_segments: 1,
                segment_records: 512,
            },
            watch_scaling: WatchScalingRates {
                watches: 8,
                batches: 3,
                batch_records: 200,
                initial_records: 200,
                final_records: 800,
                per_epoch_delta_ns: vec![70_000, 72_000, 71_000],
                per_epoch_delta_pairs: vec![300, 410, 520],
                total_delta_pairs: 1230,
            },
            serving: ServingRates {
                requests: 64,
                requests_per_sec: 2400.0,
                attach_mean_us: 180.5,
                probe_mean_us: 95.25,
                ingest_mean_us: 1200.0,
                memory_stats_mean_us: 60.0,
            },
            recovery: RecoveryRates {
                initial_records: 160,
                batches: 3,
                batch_records: 40,
                final_records: 280,
                snapshot_bytes: 180_224,
                wal_replay_records: 120,
                wal_replay_records_per_sec: 24_000.0,
                cold_start_ms: 8.0,
                warm_restart_ms: 2.0,
            },
        }
    }

    /// The full document CI writes: the snapshot with the loadgen
    /// member spliced in.
    fn test_document() -> String {
        crate::loadgen::splice_into_snapshot(
            &test_snapshot().to_json(),
            &crate::loadgen::fixture_report().to_json(),
        )
    }

    #[test]
    fn json_shape_is_parseable_by_eye_and_machine() {
        let snap = test_snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"benchmark\": \"apss\""));
        assert!(json.contains("\"cores\": 4"));
        assert!(json.contains("\"speedup\": 3.500"));
        assert!(json.contains("\"multi_session\": ["));
        assert!(json.contains("\"cache_hit_rate\": 0.8100"));
        assert!(json.contains("\"mean_probe_ms\": 50.000"));
        assert!(json.contains("\"bounded_cache\": {"));
        assert!(json.contains("\"cap_bytes\": 65536"));
        assert!(json.contains("\"peak_memo_bytes_unbounded\": 262144"));
        assert!(json.contains("\"evicted_entries\": 1234"));
        assert!(json.contains("\"banded_skew\": {"));
        assert!(json.contains("\"hot_bucket_share\": 0.6100"));
        assert!(json.contains("\"total_pairs\": 1600000"));
        assert!(json.contains("\"streaming\": {"));
        assert!(json.contains("\"final_epoch\": 3"));
        assert!(json.contains("\"carried_hit_rate\": 0.7300"));
        assert!(json.contains("\"ingest_records_per_sec\": 15000.0"));
        assert!(json.contains("\"ingest_scaling\": {"));
        assert!(json.contains("\"per_batch_ns\": [50000, 52000, 51000]"));
        assert!(json.contains("\"snapshot_clone_bytes\": [4096, 4112, 4128]"));
        assert!(json.contains("\"first_batch_ns\": 50000"));
        assert!(json.contains("\"last_batch_ns\": 51000"));
        assert!(json.contains("\"ns_ratio_last_over_first\": 1.020"));
        assert!(json.contains("\"sealed_segments\": 1"));
        assert!(json.contains("\"segment_records\": 512"));
        assert!(json.contains("\"watch_scaling\": {"));
        assert!(json.contains("\"watches\": 8"));
        assert!(json.contains("\"per_epoch_delta_ns\": [70000, 72000, 71000]"));
        assert!(json.contains("\"per_epoch_delta_pairs\": [300, 410, 520]"));
        assert!(json.contains("\"total_delta_pairs\": 1230"));
        assert!(json.contains("\"serving\": {"));
        assert!(json.contains("\"requests\": 64"));
        assert!(json.contains("\"requests_per_sec\": 2400.0"));
        assert!(json.contains("\"attach_mean_us\": 180.5"));
        assert!(json.contains("\"probe_mean_us\": 95.2"));
        assert!(json.contains("\"ingest_mean_us\": 1200.0"));
        assert!(json.contains("\"memory_stats_mean_us\": 60.0"));
        assert!(json.contains("\"recovery\": {"));
        assert!(json.contains("\"snapshot_bytes\": 180224"));
        assert!(json.contains("\"wal_replay_records\": 120"));
        assert!(json.contains("\"wal_replay_records_per_sec\": 24000.0"));
        assert!(json.contains("\"cold_start_ms\": 8.000"));
        assert!(json.contains("\"warm_restart_ms\": 2.000"));
        assert!(json.contains("\"warm_cold_ratio\": 0.2500"));
        assert!((snap.recovery.warm_cold_ratio() - 0.25).abs() < 1e-9);
        assert!((snap.banded_skew.speedup() - 3.0).abs() < 1e-9);
        // Balanced braces — cheap structural sanity.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert!((snap.pair_evaluation.speedup() - 4.2).abs() < 1e-9);
        // With the loadgen member spliced in, the document is exactly
        // what the CI schema gate wants.
        let doc = test_document();
        assert!(doc.contains("\"loadgen\": {"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        validate_snapshot_json(&doc).expect("rendered snapshot validates");
    }

    #[test]
    fn compare_accepts_a_faithful_rerun_of_the_baseline() {
        let doc = test_document();
        compare_snapshots(&doc, &doc).expect("a snapshot is never a regression of itself");
    }

    #[test]
    fn compare_flags_a_deliberate_counter_regression() {
        // The negative test the gate's wiring is judged by: perturb one
        // deterministic counter and the comparison must fail non-zero.
        let doc = test_document();
        let tampered = doc.replace("\"total_pairs\": 1600000", "\"total_pairs\": 1599998");
        assert_ne!(tampered, doc, "perturbation must hit the document");
        let problems = compare_snapshots(&tampered, &doc).expect_err("drift must be flagged");
        assert!(
            problems.iter().any(|p| p.contains("total_pairs")),
            "{problems:?}"
        );

        // Loadgen plan-derived counters are gated the same way.
        let tampered = doc.replace("\"wal_acked_appends\": 19", "\"wal_acked_appends\": 18");
        let problems = compare_snapshots(&tampered, &doc).expect_err("loadgen drift flagged");
        assert!(
            problems.iter().any(|p| p.contains("wal_acked_appends")),
            "{problems:?}"
        );
    }

    #[test]
    fn compare_tolerates_ratio_jitter_inside_the_band_only() {
        let doc = test_document();
        let nudged = doc.replace(
            "\"carried_hit_rate\": 0.7300",
            "\"carried_hit_rate\": 0.7150",
        );
        assert_ne!(nudged, doc);
        compare_snapshots(&nudged, &doc).expect("±0.015 sits inside the ±0.05 band");
        let broken = doc.replace(
            "\"carried_hit_rate\": 0.7300",
            "\"carried_hit_rate\": 0.5000",
        );
        let problems = compare_snapshots(&broken, &doc).expect_err("a hit-rate collapse is real");
        assert!(
            problems.iter().any(|p| p.contains("carried_hit_rate")),
            "{problems:?}"
        );
    }

    #[test]
    fn compare_enforces_intra_snapshot_invariants_of_the_fresh_run() {
        let doc = test_document();
        // A fresh run whose watch deltas miss their plan-derived
        // expectation is broken even if the committed baseline agrees.
        let short = doc.replace("\"watch_deltas\": 42,", "\"watch_deltas\": 40,");
        let problems = compare_snapshots(&short, &short).expect_err("lost deltas must be flagged");
        assert!(
            problems.iter().any(|p| p.contains("watch_deltas")),
            "{problems:?}"
        );
        // Group commit can never sync more often than it acks.
        let oversync = doc.replace("\"wal_syncs\": 11,", "\"wal_syncs\": 25,");
        let problems = compare_snapshots(&oversync, &oversync).expect_err("syncs > acks");
        assert!(
            problems.iter().any(|p| p.contains("wal_syncs")),
            "{problems:?}"
        );
    }

    #[test]
    fn compare_refuses_baselines_from_a_different_plan() {
        let doc = test_document();
        let reseeded = doc.replace("\"seed\": 42,", "\"seed\": 43,");
        let problems =
            compare_snapshots(&reseeded, &doc).expect_err("different seeds are not comparable");
        assert!(
            problems.iter().any(|p| p.contains("not comparable")),
            "{problems:?}"
        );
    }

    #[test]
    fn compare_ignores_segment_geometry_drift_across_matrix_cells() {
        let doc = test_document();
        // A different PLASMA_SEGMENT_RECORDS cell: sealing counts differ
        // legitimately, so the gate must stay quiet about them.
        let other_geometry = doc
            .replace("\"segment_records\": 512", "\"segment_records\": 8")
            .replace("\"sealed_segments\": 1", "\"sealed_segments\": 100");
        compare_snapshots(&other_geometry, &doc)
            .expect("cross-geometry sealing counts are not comparable, not regressions");
    }

    #[test]
    fn validator_names_every_violation() {
        assert!(validate_snapshot_json("").is_err());
        let problems =
            validate_snapshot_json("{\"benchmark\": \"apss\"}").expect_err("keys missing");
        assert!(problems.len() >= REQUIRED_SNAPSHOT_KEYS.len() - 1);
        assert!(problems.iter().any(|p| p.contains("bounded_cache")));
        assert!(problems.iter().any(|p| p.contains("peak_memo_bytes")));
        assert!(problems.iter().any(|p| p.contains("banded_skew")));
        assert!(problems.iter().any(|p| p.contains("hot_bucket_pairs")));
        assert!(problems.iter().any(|p| p.contains("streaming")));
        assert!(problems.iter().any(|p| p.contains("carried_hit_rate")));
        assert!(problems
            .iter()
            .any(|p| p.contains("ingest_records_per_sec")));
        assert!(problems.iter().any(|p| p.contains("ingest_scaling")));
        assert!(problems.iter().any(|p| p.contains("per_batch_ns")));
        assert!(problems
            .iter()
            .any(|p| p.contains("ns_ratio_last_over_first")));
        assert!(problems.iter().any(|p| p.contains("sealed_segments")));
        assert!(problems.iter().any(|p| p.contains("watch_scaling")));
        assert!(problems.iter().any(|p| p.contains("per_epoch_delta_ns")));
        assert!(problems.iter().any(|p| p.contains("total_delta_pairs")));
        assert!(problems.iter().any(|p| p.contains("\"serving\"")));
        assert!(problems.iter().any(|p| p.contains("requests_per_sec")));
        assert!(problems.iter().any(|p| p.contains("attach_mean_us")));
        assert!(problems.iter().any(|p| p.contains("probe_mean_us")));
        assert!(problems.iter().any(|p| p.contains("ingest_mean_us")));
        assert!(problems.iter().any(|p| p.contains("memory_stats_mean_us")));
        assert!(problems.iter().any(|p| p.contains("\"recovery\"")));
        assert!(problems.iter().any(|p| p.contains("snapshot_bytes")));
        assert!(problems
            .iter()
            .any(|p| p.contains("wal_replay_records_per_sec")));
        assert!(problems.iter().any(|p| p.contains("warm_cold_ratio")));
        // Unbalanced structure is flagged even with all keys present.
        let mut json = String::from("{");
        for key in REQUIRED_SNAPSHOT_KEYS {
            json.push_str(&format!("\"{key}\": 0, "));
        }
        json.push_str("\"benchmark\": \"apss\"");
        // No closing brace.
        let problems = validate_snapshot_json(&json).expect_err("unbalanced");
        assert!(problems.iter().any(|p| p.contains("unbalanced braces")));
    }

    #[test]
    fn bounded_measurement_respects_its_own_cap() {
        let ds = GaussianSpec::new("bench-bounded", 40, 6, 2).generate(5);
        let (base_rates, base_stats) =
            sweep_shared_cache(&ds.records, ds.measure, 4, CacheCapacity::unbounded());
        let b = measure_bounded_cache(&ds.records, ds.measure, base_rates, base_stats);
        assert!(b.cap_bytes > 0);
        assert!(
            b.peak_memo_bytes_unbounded >= b.cap_bytes,
            "cap is derived as a fraction of the unbounded peak"
        );
        assert!(b.evicted_entries > 0, "a quarter-peak cap must evict");
        // The capped peak may transiently exceed the cap by at most one
        // publication (accounting precedes the eviction pass), never by a
        // whole probe's worth.
        let (_, resident) = sweep_shared_cache(
            &ds.records,
            ds.measure,
            2,
            CacheCapacity::bounded(b.cap_bytes),
        );
        assert!(resident.memo_bytes <= b.cap_bytes);
        assert!((0.0..=1.0).contains(&b.hit_rate));
        assert!((0.0..=1.0).contains(&b.hit_rate_unbounded));
    }

    #[test]
    fn skew_measurement_fans_the_hot_bucket_across_shards() {
        // The acceptance shape in miniature: the hottest bucket holds the
        // majority of records, and the counted candidates are the
        // reference join's.
        let rates = measure_banded_skew_sized(500, 5);
        assert!(
            rates.hot_bucket_share > 0.5,
            "the scenario must be genuinely skewed: {}",
            rates.hot_bucket_share
        );
        let sketches =
            Sketcher::new(LshFamily::MinHash, 64, 7).sketch_all(&zipf_skewed_records(500, 9));
        assert_eq!(
            rates.candidates,
            banded_sequential(&sketches, SKEW_BANDS, SKEW_WIDTH).len() as u64
        );
        assert!(rates.candidates > 0 && rates.total_pairs >= rates.candidates);
        assert!(rates.seq_per_sec > 0.0 && rates.par_per_sec > 0.0);
    }

    #[test]
    fn streaming_measurement_carries_memos_across_epochs() {
        // Small sizes so the smoke measurement stays fast in tests: every
        // ingested batch bumps the epoch exactly once, the re-probed
        // threshold rides carried memos (hit rate strictly positive), and
        // ingest throughput is a real rate.
        let rates = measure_streaming_sized(30, 10, 2);
        assert_eq!(rates.batches, 2);
        assert_eq!(rates.final_records, 50);
        assert_eq!(rates.final_epoch, 2, "one epoch per ingested batch");
        assert!(
            rates.carried_hit_rate > 0.0,
            "carried memos must answer old pairs: {rates:?}"
        );
        assert!(rates.carried_hit_rate <= 1.0);
        assert!(rates.ingest_records_per_sec > 0.0);
        assert!(rates.probe_mean_ms > 0.0);
    }

    #[test]
    fn ingest_scaling_measurement_reports_segment_economy() {
        // Small sizes so the smoke measurement stays fast in tests. The
        // structural facts are asserted; the headline timing ratio is
        // recorded, not asserted, because smoke timings are noisy.
        let rates = measure_ingest_scaling_sized(40, 20, 4);
        assert_eq!(rates.batches, 4);
        assert_eq!(rates.batch_records, 20);
        assert_eq!(rates.initial_records, 40);
        assert_eq!(rates.final_records, 120);
        assert_eq!(rates.per_batch_ns.len(), 4);
        assert!(rates.per_batch_ns.iter().all(|&ns| ns > 0));
        assert_eq!(rates.snapshot_clone_bytes.len(), 4);
        assert!(rates.first_batch_ns() > 0 && rates.last_batch_ns() > 0);
        assert!(rates.ns_ratio_last_over_first() > 0.0);
        // Segment geometry comes from the environment-resolved default,
        // and sealing is eager: full segments only.
        let seg = plasma_lsh::resolve_segment_records(None) as u64;
        assert_eq!(rates.segment_records, seg);
        assert_eq!(rates.sealed_segments, rates.final_records / seg);
        // Every epoch's snapshot clone copies at most one segment's worth
        // of tail words plus the sealed-segment pointer list — never the
        // whole corpus.
        let stride_bytes = rates.corpus_bytes / rates.final_records;
        let arc_bytes = std::mem::size_of::<std::sync::Arc<[u64]>>() as u64;
        let bound = seg * stride_bytes + (rates.final_records / seg.max(1) + 1) * arc_bytes;
        for &bytes in &rates.snapshot_clone_bytes {
            assert!(
                bytes <= bound,
                "snapshot clone must be O(tail + segments): {bytes} > {bound}"
            );
        }
    }

    #[test]
    fn watch_scaling_measurement_counts_only_delta_pairs() {
        // Small sizes so the smoke measurement stays fast in tests. The
        // structural facts are asserted; timings are recorded, not
        // asserted, because smoke timings are noisy.
        let rates = measure_watch_scaling_sized(40, 20, 3, 4);
        assert_eq!(rates.watches, 4);
        assert_eq!(rates.batches, 3);
        assert_eq!(rates.batch_records, 20);
        assert_eq!(rates.initial_records, 40);
        assert_eq!(rates.final_records, 100);
        assert_eq!(rates.per_epoch_delta_ns.len(), 3);
        assert!(rates.per_epoch_delta_ns.iter().all(|&ns| ns > 0));
        assert_eq!(rates.per_epoch_delta_pairs.len(), 3);
        assert_eq!(
            rates.total_delta_pairs,
            rates.per_epoch_delta_pairs.iter().sum::<u64>()
        );
        // The delta pipeline must actually deliver pairs on this clustered
        // corpus: concatenated deltas are the cold answer, and a clustered
        // Gaussian corpus has similar pairs straddling every batch edge.
        assert!(
            rates.total_delta_pairs > 0,
            "watches must surface new pairs as the corpus grows: {rates:?}"
        );
    }

    #[test]
    fn multi_session_measurement_shares_the_cache() {
        // Tiny corpus so the smoke measurement stays fast in tests: with
        // 2 sessions sweeping the same ladder, the second tread of every
        // threshold is answered from the shared memo pool, so the
        // aggregate hit rate must beat the single-session baseline.
        let ds = GaussianSpec::new("bench-test", 40, 6, 2).generate(5);
        let unbounded = CacheCapacity::unbounded();
        let solo = sweep_shared_cache(&ds.records, ds.measure, 1, unbounded).0;
        let duo = sweep_shared_cache(&ds.records, ds.measure, 2, unbounded).0;
        assert_eq!(solo.probes, 5);
        assert_eq!(duo.probes, 10);
        // `>=`, not `>`: the duo's sessions genuinely race, and a
        // scheduler keeping them in lockstep (both reading a pair before
        // either publishes) can leave cross-session hits at zero. The
        // serialized-sharing guarantee itself is pinned race-free in
        // crates/core/tests/parallel_determinism.rs.
        assert!(
            duo.cache_hit_rate >= solo.cache_hit_rate,
            "sharing must not lower the hit rate: {} vs {}",
            duo.cache_hit_rate,
            solo.cache_hit_rate
        );
        assert!(solo.mean_probe_ms > 0.0 && solo.probes_per_sec > 0.0);
    }

    #[test]
    fn recovery_measurement_replays_the_logged_lineage() {
        // Small sizing so the smoke measurement stays fast in tests; the
        // shape is the real one — a publish-time snapshot on disk, every
        // batch WAL-logged, the warm timing a genuine `durable::recover`
        // (which asserts internally that every batch replayed). Timings
        // are recorded, not compared: smoke-sized corpora are too small
        // for the warm-vs-cold ratio to be stable.
        let rates = measure_recovery_sized(40, 10, 2);
        assert_eq!(rates.initial_records, 40);
        assert_eq!(rates.batches, 2);
        assert_eq!(rates.batch_records, 10);
        assert_eq!(rates.final_records, 60);
        assert!(rates.snapshot_bytes > 0, "snapshot must land on disk");
        assert_eq!(rates.wal_replay_records, 20);
        assert!(rates.wal_replay_records_per_sec > 0.0);
        assert!(rates.cold_start_ms > 0.0 && rates.warm_restart_ms > 0.0);
        assert!(rates.warm_cold_ratio() > 0.0);
    }

    #[test]
    fn serving_measurement_round_trips_over_tcp() {
        // Small sizing so the smoke measurement stays fast in tests; the
        // shape is the real one — a live loopback server, every timed
        // number a full request→reply cycle.
        let rates = measure_serving_sized(40, 10, 2, 3);
        assert!(rates.requests > 0);
        assert!(rates.requests_per_sec > 0.0);
        assert!(rates.attach_mean_us > 0.0);
        assert!(rates.probe_mean_us > 0.0);
        assert!(rates.ingest_mean_us > 0.0);
        assert!(rates.memory_stats_mean_us > 0.0);
    }
}
