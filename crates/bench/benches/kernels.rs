//! Criterion benchmarks for the hot kernels every figure's wall-clock
//! claims rest on: sketching, BayesLSH pair evaluation, the skewed banded
//! join, warm knowledge-cache re-probes, reply encoding, publish-frame
//! decoding, triangle counting, LAM localization + mining, crossing
//! counting, and the energy iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use plasma_data::datasets::corpus::CorpusSpec;
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::datasets::transactions::QuestSpec;
use plasma_data::similarity::Similarity;
use plasma_graph::builders::DensifyingSeries;
use plasma_graph::measures::triangles;
use plasma_lam::localize::{localize, LocalizeConfig};
use plasma_lam::miner::{Lam, LamConfig};
use plasma_lam::TransactionDb;
use plasma_lsh::bayes::{BayesLsh, BayesParams};
use plasma_lsh::family::LshFamily;
use plasma_lsh::sketch::Sketcher;
use plasma_parcoords::crossings::count_crossings;
use plasma_parcoords::energy::{EnergyConfig, EnergyModel};

fn bench_sketching(c: &mut Criterion) {
    let corpus = CorpusSpec::new("bench", 200, 4000, 6).generate(1);
    let mut g = c.benchmark_group("sketching");
    g.throughput(Throughput::Elements(corpus.records.len() as u64));
    for &n_hashes in &[64usize, 256] {
        g.bench_with_input(BenchmarkId::new("simhash", n_hashes), &n_hashes, |b, &n| {
            let sk = Sketcher::new(LshFamily::SimHash, n, 7);
            b.iter(|| sk.sketch_all(&corpus.records));
        });
        g.bench_with_input(BenchmarkId::new("minhash", n_hashes), &n_hashes, |b, &n| {
            let sk = Sketcher::new(LshFamily::MinHash, n, 7);
            b.iter(|| sk.sketch_all(&corpus.records));
        });
    }
    // A cosine-corpus ingest: three records appended to a 1 000-record
    // set, so the batch reuses almost no dimension.
    let ingest = CorpusSpec::new("bench", 1003, 4000, 6).generate(2);
    let (base, batch) = ingest.records.split_at(1000);
    let sk = Sketcher::new(LshFamily::SimHash, 256, 7);
    let set = sk.sketch_all(base);
    g.throughput(Throughput::Elements(batch.len() as u64));
    g.bench_function(BenchmarkId::new("simhash_extend_batch_3", 256), |b| {
        b.iter(|| {
            let mut grown = set.clone();
            sk.extend_batch(batch, &mut grown);
            grown
        })
    });
    g.finish();
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parallel-vs-sequential sketching on the 200-record corpus: the ≥3×
/// scaling target of the parallel APSS engine rides on this group. The
/// `simhash256_1000docs` rows sketch a 1 000-document TF-IDF corpus over
/// one 4 000-term vocabulary, the shape of a text publish, where SimHash
/// workers split lanes over one shared dimension list.
fn bench_parallel_sketching(c: &mut Criterion) {
    let corpus = CorpusSpec::new("bench", 200, 4000, 6).generate(1);
    let text = CorpusSpec::new("bench", 1000, 4000, 6).generate(4);
    let cores = available_cores();
    let mut g = c.benchmark_group("parallel_sketching");
    for (label, threads) in [("seq", 1usize), ("par", cores)] {
        for (name, family, records) in [
            ("minhash256", LshFamily::MinHash, &corpus.records),
            ("simhash256", LshFamily::SimHash, &corpus.records),
            ("simhash256_1000docs", LshFamily::SimHash, &text.records),
        ] {
            g.throughput(Throughput::Elements(records.len() as u64));
            g.bench_with_input(
                BenchmarkId::new(name, format!("{label}{threads}")),
                &threads,
                |b, &threads| {
                    let sk = Sketcher::new(family, 256, 7).with_parallelism(Some(threads));
                    b.iter(|| sk.sketch_all(records));
                },
            );
        }
    }
    g.finish();
}

/// Parallel-vs-sequential exhaustive pair evaluation (the full
/// `apss_with_sketches` processing path) on a 200-record corpus.
fn bench_parallel_pair_evaluation(c: &mut Criterion) {
    use plasma_core::apss::{apss_with_sketches, build_sketches, ApssConfig};
    let ds = GaussianSpec::new("bench", 200, 10, 4).generate(3);
    let cores = available_cores();
    let n = ds.records.len();
    let mut g = c.benchmark_group("parallel_pair_evaluation");
    g.throughput(Throughput::Elements((n * (n - 1) / 2) as u64));
    for (label, threads) in [("seq", 1usize), ("par", cores)] {
        let cfg = ApssConfig {
            parallelism: Some(threads),
            ..ApssConfig::default()
        };
        let (sketches, _) = build_sketches(&ds.records, ds.measure, &cfg);
        g.bench_with_input(
            BenchmarkId::new("exhaustive", format!("{label}{threads}")),
            &threads,
            |b, _| {
                b.iter(|| {
                    apss_with_sketches(&ds.records, ds.measure, &sketches, 0.7, &cfg)
                        .pairs
                        .len()
                })
            },
        );
    }
    g.finish();
}

/// The one banded join (`banded_join`, cold) against the sequential
/// reference on the 1 000-record Zipf corpus `repro bench` counts as
/// `banded_skew`, whose hottest bucket holds most records.
fn bench_banded_join_skewed(c: &mut Criterion) {
    use plasma_bench::perf::{zipf_skewed_records, SKEW_BANDS, SKEW_WIDTH};
    use plasma_lsh::candidates::{banded_bucket_stats, banded_join, banded_sequential};
    let records = zipf_skewed_records(1000, 9);
    let sketches = Sketcher::new(LshFamily::MinHash, 64, 7).sketch_all(&records);
    let stats = banded_bucket_stats(&sketches, SKEW_BANDS, SKEW_WIDTH);
    let mut g = c.benchmark_group("banded_join_skewed");
    g.throughput(Throughput::Elements(stats.total_pairs));
    g.bench_function("sequential", |b| {
        b.iter(|| banded_sequential(&sketches, SKEW_BANDS, SKEW_WIDTH).len())
    });
    g.bench_function("banded_join", |b| {
        b.iter(|| banded_join(&sketches, SKEW_BANDS, SKEW_WIDTH, 0).len())
    });
    g.finish();
}

/// Warm re-probes of one knowledge cache: a 400-document cosine corpus
/// (SimHash, 32 bands of 8), every threshold of a 0.9 → 0.5 ladder
/// probed once to fill the memos. Each iteration re-probes the ladder —
/// every candidate a full hit — from one thread, or from two threads
/// sharing the cache, as two connections on one corpus do. Two more rows
/// time the cold side: a fresh cache probed down the same ladder by one
/// evaluation worker or by two.
fn bench_knowledge_cache(c: &mut Criterion) {
    use plasma_core::apss::{build_sketches, ApssConfig, CandidateStrategy};
    use plasma_core::SharedKnowledgeCache;
    const LADDER: [f64; 9] = [0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5];
    let corpus = CorpusSpec::new("bench", 400, 4000, 6).generate(5);
    let cfg = ApssConfig {
        candidates: CandidateStrategy::Banded {
            bands: 32,
            width: 8,
        },
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(&corpus.records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::new(sketches.clone());
    let sweep = || {
        LADDER
            .iter()
            .map(|&t| {
                let r = cache.probe(&corpus.records, Similarity::Cosine, t, &cfg);
                assert_eq!(
                    r.stats.hashes_compared, 0,
                    "a warm re-probe compares nothing"
                );
                r.stats.candidates
            })
            .sum::<u64>()
    };
    // The first sweep fills the memos (it compares hashes, so `sweep`'s
    // assertion would fail on it).
    for &t in &LADDER {
        cache.probe(&corpus.records, Similarity::Cosine, t, &cfg);
    }
    let candidates = sweep();
    let mut g = c.benchmark_group("knowledge_cache");
    g.throughput(Throughput::Elements(candidates));
    g.bench_function("warm_reprobe/1_thread", |b| b.iter(sweep));
    // Two sweeps per iteration, one per thread: per-candidate time is
    // comparable with the one-thread row only on two free cores.
    g.throughput(Throughput::Elements(2 * candidates));
    g.bench_function("warm_reprobe/2_threads", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                let other = s.spawn(sweep);
                sweep() + other.join().expect("re-probe thread panicked")
            })
        })
    });
    // The publication path: a fresh cache per iteration, probed down the
    // ladder, so every rung publishes (or deepens) its candidates' memos.
    // With two workers each probe splits its candidates at a row start,
    // so the workers publish disjoint memo rows.
    g.throughput(Throughput::Elements(candidates));
    for (name, workers) in [
        ("descending_sweep/1_worker", 1),
        ("descending_sweep/2_workers", 2),
    ] {
        let cfg = ApssConfig {
            parallelism: Some(workers),
            ..cfg
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                let cold = SharedKnowledgeCache::new(sketches.clone());
                for &t in &LADDER {
                    cold.probe(&corpus.records, Similarity::Cosine, t, &cfg);
                }
                cold.memo_bytes()
            })
        });
    }
    g.finish();
}

/// `Response::encode` of one 7 500-pair `probe_result`, the size of a
/// `wide_answer` reply, in two shapes. `grid_points`: every similarity is
/// a BayesLSH cosine grid point, as in an estimate-only answer, so the
/// writer's float memo hits. `distinct`: 7 500 distinct similarities, as
/// with `exact_on_accept`, so every float misses.
fn bench_reply_encode(c: &mut Criterion) {
    use plasma_core::apss::SimilarPair;
    use plasma_server::Response;
    use rand::Rng;
    let grid: Vec<f64> = BayesLsh::new(LshFamily::SimHash, BayesParams::default())
        .grid_points()
        .iter()
        .copied()
        .filter(|&s| s >= 0.5)
        .collect();
    const PAIRS: usize = 7_500;
    let mut rng = plasma_data::rng::seeded(45);
    let on_grid: Vec<f64> = (0..PAIRS)
        .map(|_| grid[rng.gen_range(0..grid.len())])
        .collect();
    let distinct: Vec<f64> = (0..PAIRS).map(|_| rng.gen_range(0.5..1.0)).collect();
    let shapes = [("grid_points", on_grid), ("distinct", distinct)].map(|(name, sims)| {
        let pairs = sims
            .into_iter()
            .map(|similarity| {
                let i = rng.gen_range(0..3_000);
                let j = i + rng.gen_range(1..3_000);
                SimilarPair { i, j, similarity }
            })
            .collect();
        let response = Response::ProbeResult {
            threshold: 0.5,
            epoch: 3,
            pairs,
            candidates: 120_000,
            pruned: 90_000,
            cache_hits: 120_000,
            hashes_compared: 0,
        };
        (name, response)
    });
    let mut g = c.benchmark_group("reply_encode");
    for (name, response) in &shapes {
        g.throughput(Throughput::Bytes(response.encode().len() as u64));
        g.bench_function(*name, |b| b.iter(|| response.encode().len()));
    }
    g.finish();
}

/// `Request::decode` of a publish frame carrying a 1 000-document TF-IDF
/// corpus (≈ 1.4 MB, the size of a `cold_sweep` publish): `records` is
/// read straight from the frame. `tree_parse` parses the same frame into
/// a `Json` tree, for reference.
fn bench_publish_decode(c: &mut Criterion) {
    use plasma_server::{json, PublishCfg, Request};
    let corpus = CorpusSpec::new("bench", 1000, 4000, 6).generate(5);
    let frame = Request::Publish {
        name: "bench".into(),
        measure: Similarity::Cosine,
        records: corpus.records,
        cfg: PublishCfg {
            bands: Some((32, 8)),
            ..PublishCfg::default()
        },
    }
    .encode();
    let mut g = c.benchmark_group("publish_decode");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("decode", |b| {
        b.iter(|| Request::decode(&frame).expect("a publish frame"))
    });
    g.bench_function("tree_parse", |b| {
        b.iter(|| json::parse(&frame).expect("a JSON frame"))
    });
    g.finish();
}

fn bench_bayeslsh(c: &mut Criterion) {
    let ds = GaussianSpec::new("bench", 200, 10, 4).generate(3);
    let sketches = Sketcher::new(LshFamily::SimHash, 256, 5).sketch_all(&ds.records);
    let engine = BayesLsh::new(LshFamily::SimHash, BayesParams::default());
    let n = ds.records.len();

    let mut g = c.benchmark_group("bayeslsh_pair_evaluation");
    g.throughput(Throughput::Elements((n * (n - 1) / 2) as u64));
    g.bench_function("direct_posteriors", |b| {
        b.iter(|| {
            let mut alive = 0u32;
            for i in 0..n {
                for j in (i + 1)..n {
                    let e = engine.evaluate_pair(&sketches, i, j, 0.7);
                    if e.decision != plasma_lsh::bayes::PairDecision::Pruned {
                        alive += 1;
                    }
                }
            }
            alive
        })
    });
    g.bench_function("probe_table", |b| {
        b.iter(|| {
            let mut table = engine.probe_table(0.7);
            let mut alive = 0u32;
            for i in 0..n {
                for j in (i + 1)..n {
                    let e = table.evaluate_pair(&sketches, i, j);
                    if e.decision != plasma_lsh::bayes::PairDecision::Pruned {
                        alive += 1;
                    }
                }
            }
            alive
        })
    });
    g.finish();
}

fn bench_triangles(c: &mut Criterion) {
    let ds = GaussianSpec::new("bench", 300, 8, 4).generate(9);
    let series = DensifyingSeries::new(&ds.records, Similarity::Cosine);
    let mut g = c.benchmark_group("triangle_count");
    for &edges in &[1_000usize, 8_000, 30_000] {
        let graph = series.graph_with_edges(edges);
        g.throughput(Throughput::Elements(graph.m() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(edges), &graph, |b, graph| {
            b.iter(|| triangles::count_triangles(graph))
        });
    }
    g.finish();
}

fn bench_lam(c: &mut Criterion) {
    let txs = QuestSpec::new("bench", 2_000, 500).generate(11);
    let mut g = c.benchmark_group("lam");
    g.sample_size(20);
    g.throughput(Throughput::Elements(txs.len() as u64));
    g.bench_function("localize_k16", |b| {
        b.iter(|| localize(&txs, &LocalizeConfig::default()))
    });
    g.bench_function("full_pass", |b| {
        b.iter(|| {
            let mut db = TransactionDb::new(txs.clone());
            Lam::with_passes(1).run(&mut db);
            db.compression_ratio()
        })
    });
    g.bench_function("five_passes", |b| {
        b.iter(|| {
            let mut db = TransactionDb::new(txs.clone());
            Lam::new(LamConfig::default()).run(&mut db);
            db.compression_ratio()
        })
    });
    g.finish();
}

fn bench_crossings(c: &mut Criterion) {
    let mut rng = plasma_data::rng::seeded(13);
    use rand::Rng;
    let mut g = c.benchmark_group("crossing_count");
    for &n in &[1_000usize, 10_000] {
        let x: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(
            BenchmarkId::new("fenwick_nlogn", n),
            &(&x, &y),
            |b, (x, y)| b.iter(|| count_crossings(x, y)),
        );
    }
    g.finish();
}

fn bench_energy(c: &mut Criterion) {
    let ds = GaussianSpec::new("bench", 800, 2, 5).generate(21);
    let labels = ds.labels.clone().expect("labeled");
    let x: Vec<f64> = ds.records.iter().map(|r| r.get(0)).collect();
    let y: Vec<f64> = ds.records.iter().map(|r| r.get(1)).collect();
    let model = EnergyModel::new(EnergyConfig::default());
    let mut g = c.benchmark_group("energy_reduction");
    g.throughput(Throughput::Elements(x.len() as u64));
    g.bench_function("optimize_800_lines", |b| {
        b.iter(|| model.optimize(&x, &y, &labels))
    });
    g.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sketching, bench_parallel_sketching, bench_bayeslsh, bench_parallel_pair_evaluation, bench_banded_join_skewed, bench_knowledge_cache, bench_reply_encode, bench_publish_decode, bench_triangles, bench_lam, bench_crossings, bench_energy
}
criterion_main!(kernels);
