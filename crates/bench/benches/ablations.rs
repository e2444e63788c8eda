//! Ablation benches for the design choices DESIGN.md calls out:
//! crossing-count algorithm (Fenwick vs naive), LAM hash count `k`,
//! LAM localization threshold, cache granularity, and exact vs
//! approximate dimension ordering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use plasma_core::apss::{apss, build_sketches, ApssConfig};
use plasma_core::cache::SharedKnowledgeCache;
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::datasets::transactions::QuestSpec;
use plasma_lam::localize::{localize, LocalizeConfig};
use plasma_parcoords::crossings::{count_crossings, count_crossings_naive, crossing_matrix};
use plasma_parcoords::order::{order_dimensions, OrderMethod};

fn ablate_crossings(c: &mut Criterion) {
    use rand::Rng;
    let mut rng = plasma_data::rng::seeded(3);
    let mut g = c.benchmark_group("ablation_crossings");
    for &n in &[500usize, 2_000] {
        let x: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        g.bench_with_input(BenchmarkId::new("fenwick", n), &(&x, &y), |b, (x, y)| {
            b.iter(|| count_crossings(x, y))
        });
        g.bench_with_input(BenchmarkId::new("naive_n2", n), &(&x, &y), |b, (x, y)| {
            b.iter(|| count_crossings_naive(x, y))
        });
    }
    g.finish();
}

fn ablate_lam_hashes(c: &mut Criterion) {
    let txs = QuestSpec::new("bench", 2_000, 500).generate(5);
    let mut g = c.benchmark_group("ablation_lam_hash_count");
    g.sample_size(20);
    for &k in &[4usize, 8, 16, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = LocalizeConfig {
                k,
                ..LocalizeConfig::default()
            };
            b.iter(|| localize(&txs, &cfg))
        });
    }
    g.finish();
}

fn ablate_cache_granularity(c: &mut Criterion) {
    let ds = GaussianSpec::new("bench", 150, 8, 3).generate(7);
    let cfg = ApssConfig::default();
    let mut g = c.benchmark_group("ablation_cache");
    g.sample_size(15);
    g.bench_function("no_cache_reprobe", |b| {
        b.iter(|| {
            // Two independent probes, everything rebuilt.
            let _ = apss(&ds.records, ds.measure, 0.9, &cfg);
            apss(&ds.records, ds.measure, 0.6, &cfg).pairs.len()
        })
    });
    g.bench_function("sketch_cache_only", |b| {
        b.iter(|| {
            let (sk, _) = build_sketches(&ds.records, ds.measure, &cfg);
            let _ = plasma_core::apss::apss_with_sketches(&ds.records, ds.measure, &sk, 0.9, &cfg);
            plasma_core::apss::apss_with_sketches(&ds.records, ds.measure, &sk, 0.6, &cfg)
                .pairs
                .len()
        })
    });
    g.bench_function("full_knowledge_cache", |b| {
        b.iter(|| {
            let (sk, _) = build_sketches(&ds.records, ds.measure, &cfg);
            let cache = SharedKnowledgeCache::new(sk);
            let _ = cache.probe(&ds.records, ds.measure, 0.9, &cfg);
            cache.probe(&ds.records, ds.measure, 0.6, &cfg).pairs.len()
        })
    });
    g.finish();
}

fn ablate_ordering(c: &mut Criterion) {
    use rand::Rng;
    let mut rng = plasma_data::rng::seeded(9);
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|_| (0..12).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let matrix = crossing_matrix(&rows);
    let mut g = c.benchmark_group("ablation_dimension_ordering");
    g.bench_function("mst_approx_d12", |b| {
        b.iter(|| order_dimensions(&matrix, OrderMethod::MstApprox))
    });
    g.bench_function("held_karp_exact_d12", |b| {
        b.iter(|| order_dimensions(&matrix, OrderMethod::Exact))
    });
    g.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = ablate_crossings, ablate_lam_hashes, ablate_cache_granularity, ablate_ordering
}
criterion_main!(ablations);
