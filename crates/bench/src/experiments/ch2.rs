//! Chapter 2 experiments: PLASMA-HD itself.

use std::time::Instant;

use plasma_core::apss::{apss, ApssConfig, CandidateStrategy};
use plasma_core::cues;
use plasma_core::incremental::incremental_apss;
use plasma_core::plot;
use plasma_core::StreamingSession;
use plasma_data::datasets::catalog;
use plasma_data::datasets::Dataset;
use plasma_data::similarity::pair_counts_at_thresholds;
use plasma_graph::builders::similarity_graph;
use plasma_graph::measures::components;

use crate::report::{f, secs, Table};
use crate::Opts;

/// Table 2.1: dataset characteristics (paper sizes vs generated).
pub fn table2_1(opts: &Opts) {
    let sets: Vec<(Dataset, &str)> = vec![
        (catalog::wine_like(opts.seed), "178 x 13, nnz 2,314"),
        (catalog::credit_like(opts.seed), "690 x 39, nnz 16,319"),
        (
            catalog::twitter_like(opts.scale, opts.seed),
            "146,170 x 146,170, nnz 200e6",
        ),
        (
            catalog::rcv1_like(opts.scale, opts.seed),
            "804,414 x 47,326, nnz 61e6",
        ),
    ];
    let mut t = Table::new(&[
        "Dataset",
        "Vectors",
        "Dim",
        "Avg. len",
        "Nnz",
        "Paper shape",
    ]);
    for (ds, paper) in &sets {
        t.row(vec![
            ds.name.clone(),
            ds.len().to_string(),
            ds.dim.to_string(),
            f(ds.avg_len()),
            ds.nnz().to_string(),
            paper.to_string(),
        ]);
    }
    t.print();
}

/// Fig 2.2: the 50-record toy dataset at t ∈ {0.8, 0.5, 0.2}.
pub fn fig2_2(opts: &Opts) {
    let ds = catalog::toy_d1(opts.seed);
    let labels = ds.labels.as_ref().expect("toy is labeled");
    let mut t = Table::new(&[
        "t1",
        "edges",
        "components",
        "intra-cluster edge %",
        "verdict",
    ]);
    for &t1 in &[0.8, 0.5, 0.2] {
        let g = similarity_graph(&ds.records, ds.measure, t1);
        let comps = components::count_components(&g);
        let (mut intra, mut total) = (0u64, 0u64);
        for (u, v) in g.edges() {
            total += 1;
            if labels[u as usize] == labels[v as usize] {
                intra += 1;
            }
        }
        let frac = if total == 0 {
            0.0
        } else {
            100.0 * intra as f64 / total as f64
        };
        let verdict = if comps > 2 * ds.num_classes().unwrap_or(5) {
            "too sparse (fragmented)"
        } else if frac > 80.0 {
            "well-connected (community structure clear)"
        } else {
            "overly connected"
        };
        t.row(vec![
            f(t1),
            g.m().to_string(),
            comps.to_string(),
            f(frac),
            verdict.to_string(),
        ]);
    }
    t.print();
    println!("(paper: community structure is clear only at t1 = 0.5)");
}

/// Figs 2.3/2.4: two-probe cumulative APSS estimate vs ground truth on d1.
pub fn fig2_3(opts: &Opts) {
    let ds = catalog::toy_d1(opts.seed);
    let grid: Vec<f64> = (1..=19).map(|k| k as f64 * 0.05).collect();
    let truth = pair_counts_at_thresholds(&ds.records, ds.measure, &grid);

    let mut session = StreamingSession::new(&ds, ApssConfig::default()).with_grid(grid.clone());
    let r1 = session.probe(0.8);
    let after_first = r1.curve.clone();
    let suggested = session.suggest_next_threshold().unwrap_or(0.5);
    let r2 = session.probe(0.5);

    let mut t = Table::new(&[
        "t",
        "truth",
        "probe(0.8) est",
        "±sd",
        "after probe(0.5) est",
        "±sd",
    ]);
    for (k, &th) in grid.iter().enumerate() {
        t.row(vec![
            f(th),
            truth[k].to_string(),
            f(after_first.expected[k]),
            f(after_first.std_dev[k]),
            f(r2.curve.expected[k]),
            f(r2.curve.std_dev[k]),
        ]);
    }
    t.print();
    println!("knee suggested after first probe: t = {}", f(suggested));
    let truth_f: Vec<f64> = truth.iter().map(|&c| c as f64).collect();
    println!(
        "mean relative error: after 1 probe {}, after 2 probes {}",
        f(plasma_data::stats::mean_relative_error(
            &after_first.expected,
            &truth_f
        )),
        f(plasma_data::stats::mean_relative_error(
            &r2.curve.expected,
            &truth_f
        )),
    );
    let svg = plot::svg_chart(
        "Cumulative APSS graph: d1 (probes at 0.8 then 0.5)",
        &grid,
        &[
            ("ground truth", &truth_f),
            ("probe 0.8", &after_first.expected),
            ("probes 0.8+0.5", &r2.curve.expected),
        ],
        true,
    );
    opts.write_artifact("fig2-3_cumulative_apss.svg", &svg);
}

/// Fig 2.5: wine triangle counts at t ∈ {0.9, 0.95} plus cues.
pub fn fig2_5(opts: &Opts) {
    let ds = catalog::wine_like(opts.seed);
    let mut session = StreamingSession::new(&ds, ApssConfig::default());
    let mut t = Table::new(&["t", "pairs", "triangles", "clusterability", "max clique"]);
    for &th in &[0.95, 0.9] {
        let r = session.probe(th);
        let cue = session.triangle_cue(&r.pairs);
        let dp = session.density_plot(&r.pairs);
        t.row(vec![
            f(th),
            r.pairs.len().to_string(),
            cue.total_triangles.to_string(),
            f(cues::clusterability(&cue)),
            dp.max_clique.to_string(),
        ]);
    }
    t.print();

    // Histogram + density plot at 0.9 (paper shows 0.99-ish cues; our
    // synthetic wine clusters live lower).
    let r = session.probe(0.9);
    let cue = session.triangle_cue(&r.pairs);
    let labels: Vec<String> = cue
        .bucket_edges
        .iter()
        .map(|&e| format!("≤{e} tri"))
        .collect();
    println!("\ntriangle vertex-cover histogram (t = 0.9):");
    print!("{}", plot::ascii_histogram(&labels, &cue.histogram, 40));
    let dp = session.density_plot(&r.pairs);
    let dp_labels: Vec<String> = (0..dp.clique_sizes.len())
        .map(|k| format!("{k}-clique"))
        .collect();
    println!("clique density plot (t = 0.9):");
    print!(
        "{}",
        plot::ascii_histogram(&dp_labels, &dp.clique_sizes, 40)
    );
    println!(
        "flat peaks at sizes {:?} indicate potential cliques",
        dp.peaks()
    );
}

fn incremental_figure(opts: &Opts, name: &str, ds: &Dataset, t1: f64, t2s: &[f64]) {
    let points: Vec<f64> = (1..=10).map(|k| k as f64 / 10.0).collect();
    let cfg = ApssConfig::default();
    let run = incremental_apss(&ds.records, ds.measure, t1, t2s, &points, &cfg);
    let mut headers: Vec<String> = vec!["% processed".into()];
    headers.extend(t2s.iter().map(|t| format!("est t2={}", f(*t))));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr_refs);
    for step in &run.steps {
        let mut row = vec![format!("{:.0}%", step.fraction * 100.0)];
        row.extend(step.estimates.iter().map(|&e| f(e)));
        t.row(row);
    }
    t.print();
    println!(
        "converged to within 10% of final by {:.0}% of data (paper: 10-20%)",
        run.convergence_fraction(0.10) * 100.0
    );
    // SVG: one series per t2.
    let xs: Vec<f64> = run.steps.iter().map(|s| s.fraction * 100.0).collect();
    let series_data: Vec<Vec<f64>> = (0..t2s.len())
        .map(|ti| run.steps.iter().map(|s| s.estimates[ti]).collect())
        .collect();
    let series_names: Vec<String> = t2s.iter().map(|t| format!("t2={}", f(*t))).collect();
    let series: Vec<(&str, &[f64])> = series_names
        .iter()
        .map(|s| s.as_str())
        .zip(series_data.iter().map(|v| v.as_slice()))
        .collect();
    let svg = plot::svg_chart(
        &format!("{name} incremental #pairs estimates, t1={}", f(t1)),
        &xs,
        &series,
        false,
    );
    opts.write_artifact(&format!("{name}_incremental.svg"), &svg);
}

/// Fig 2.6: incremental estimates, wine, t1 = 0.5.
pub fn fig2_6(opts: &Opts) {
    let ds = catalog::wine_like(opts.seed);
    incremental_figure(opts, "fig2-6_wine", &ds, 0.5, &[0.75, 0.8, 0.85]);
}

/// Fig 2.7: incremental estimates, Twitter-like, t1 = 0.95.
pub fn fig2_7(opts: &Opts) {
    let ds = catalog::twitter_like(opts.scale, opts.seed);
    println!("({} records)", ds.len());
    incremental_figure(opts, "fig2-7_twitter", &ds, 0.95, &[0.75, 0.8, 0.85, 0.95]);
}

/// Fig 2.8: incremental estimates, RCV1-like, t1 = 0.9.
pub fn fig2_8(opts: &Opts) {
    let ds = catalog::rcv1_like(opts.scale, opts.seed);
    println!("({} records)", ds.len());
    incremental_figure(opts, "fig2-8_rcv1", &ds, 0.9, &[0.5, 0.9, 0.95]);
}

/// Fig 2.9: proportion of runtime spent building initial sketches.
pub fn fig2_9(opts: &Opts) {
    let sets = catalog::fig2_9_datasets(opts.scale, opts.seed);
    let mut t = Table::new(&["Dataset", "records", "sketch", "processing", "sketch %"]);
    for ds in &sets {
        let cfg = ApssConfig {
            candidates: CandidateStrategy::Exhaustive,
            exact_on_accept: true,
            ..ApssConfig::default()
        };
        let r = apss(&ds.records, ds.measure, 0.6, &cfg);
        let total = r.stats.sketch_seconds + r.stats.process_seconds;
        t.row(vec![
            ds.name.clone(),
            ds.len().to_string(),
            secs(r.stats.sketch_seconds),
            secs(r.stats.process_seconds),
            format!("{:.0}%", 100.0 * r.stats.sketch_seconds / total.max(1e-12)),
        ]);
    }
    t.print();
    println!("(paper: TwitterLinks 12%, WikiWords100K 3%; proportions vary with candidate load)");
}

/// Fig 2.10: threshold ladder with and without knowledge caching.
pub fn fig2_10(opts: &Opts) {
    let ds = catalog::twitter_like(opts.scale, opts.seed);
    println!("({} records)", ds.len());
    let ladder = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7];
    // Exact verification of accepted pairs (full BayesLSH): the knowledge
    // cache reuses both sketches and memoized exact similarities.
    let cfg = ApssConfig {
        exact_on_accept: true,
        ..ApssConfig::default()
    };

    // Without caching: every probe from scratch (sketch + evaluate).
    let mut uncached = Vec::new();
    for &th in &ladder {
        let start = Instant::now();
        let _ = apss(&ds.records, ds.measure, th, &cfg);
        uncached.push(start.elapsed().as_secs_f64());
    }
    // With caching: one session.
    let mut session = StreamingSession::new(&ds, cfg);
    let mut cached = Vec::new();
    for &th in &ladder {
        let start = Instant::now();
        let _ = session.probe(th);
        cached.push(start.elapsed().as_secs_f64());
    }

    let mut t = Table::new(&["t", "uncached", "cached", "speedup"]);
    for (k, &th) in ladder.iter().enumerate() {
        t.row(vec![
            f(th),
            secs(uncached[k]),
            secs(cached[k]),
            format!("{:.0}%", 100.0 * (1.0 - cached[k] / uncached[k].max(1e-12))),
        ]);
    }
    t.print();
    println!("(paper: same time at .95, then 16-29% speedups at subsequent thresholds)");
}

/// §2.2.2: two guided probes vs brute-force threshold sweep.
pub fn sec2_2_2(opts: &Opts) {
    let ds = catalog::wine_like(opts.seed);
    let cfg = ApssConfig::default();

    let start = Instant::now();
    let mut session = StreamingSession::new(&ds, cfg);
    session.probe(0.8);
    let next = session.suggest_next_threshold().unwrap_or(0.5);
    session.probe(next);
    let interactive = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for k in 0..=10 {
        let _ = apss(&ds.records, ds.measure, k as f64 / 10.0, &cfg);
    }
    let brute = start.elapsed().as_secs_f64();

    let mut t = Table::new(&["strategy", "probes", "time"]);
    t.row(vec![
        "interactive (probe + knee)".into(),
        "2".into(),
        secs(interactive),
    ]);
    t.row(vec![
        "brute force 0.0..1.0".into(),
        "11".into(),
        secs(brute),
    ]);
    t.print();
    println!(
        "time saved: {:.0}% (paper: 83%)",
        100.0 * (1.0 - interactive / brute.max(1e-12))
    );
    println!("knee-suggested second threshold: {}", f(next));
}

/// §2.3.4: the interaction experiment — LFR benchmark network → spectral
/// embedding → PLASMA-HD session recovering the planted communities.
pub fn sec2_3_4(opts: &Opts) {
    use plasma_data::vector::SparseVector;
    use plasma_graph::generators::lfr_like;
    use plasma_graph::measures::spectral::laplacian_embedding;

    let (n, k) = (400usize, 5usize);
    let (graph, labels) = lfr_like(n, k, 12, 0.1, opts.seed);
    println!(
        "LFR-like network: {} nodes, {} edges, {k} planted communities (mu = 0.1)",
        graph.n(),
        graph.m()
    );

    // "We created a k-dimensional vector for each node by projecting the
    // node's row of the laplacian into the space of the first k
    // eigenvectors" — the spectral-embedding construction.
    let emb = laplacian_embedding(&graph, k, 250);
    let records: Vec<SparseVector> = emb
        .iter()
        .map(|row| SparseVector::from_dense(row))
        .collect();

    let mut session = StreamingSession::from_records(
        records.clone(),
        plasma_data::similarity::Similarity::Cosine,
        ApssConfig {
            exact_on_accept: true,
            ..ApssConfig::default()
        },
    );
    let mut t = Table::new(&["t", "pairs", "intra-community %", "triangles"]);
    for &th in &[0.95, 0.8, 0.5] {
        let r = session.probe(th);
        let (mut intra, mut total) = (0u64, 0u64);
        for p in &r.pairs {
            total += 1;
            if labels[p.i as usize] == labels[p.j as usize] {
                intra += 1;
            }
        }
        let cue = session.triangle_cue(&r.pairs);
        t.row(vec![
            f(th),
            r.pairs.len().to_string(),
            if total == 0 {
                "-".into()
            } else {
                format!("{:.0}%", 100.0 * intra as f64 / total as f64)
            },
            cue.total_triangles.to_string(),
        ]);
    }
    t.print();
    println!(
        "(the embedding separates communities: high-threshold pairs are almost all intra-community)"
    );
}

/// §2.2.1 sensitivity ablation: how ε (false-negative tolerance), γ
/// (concentration miss rate), and sketch length trade recall and accuracy
/// against hash work — "reducing ε does increase the number of hashes …
/// which adversely affects computational performance".
pub fn ablate_bayes(opts: &Opts) {
    use plasma_data::similarity::all_pairs_exact;
    use plasma_lsh::BayesParams;

    let ds = catalog::wine_like(opts.seed);
    let t = 0.7;
    let truth: std::collections::HashSet<(u32, u32)> = all_pairs_exact(&ds.records, ds.measure, t)
        .into_iter()
        .map(|(i, j, _)| (i, j))
        .collect();

    let mut table = Table::new(&[
        "epsilon",
        "gamma",
        "hashes",
        "recall",
        "precision",
        "hashes/pair",
    ]);
    for &(epsilon, gamma, n_hashes) in &[
        (0.10, 0.10, 128usize),
        (0.03, 0.03, 256),
        (0.01, 0.01, 384),
        (0.003, 0.003, 512),
    ] {
        let cfg = ApssConfig {
            n_hashes,
            bayes: BayesParams {
                epsilon,
                gamma,
                ..BayesParams::default()
            },
            exact_on_accept: true,
            ..ApssConfig::default()
        };
        let r = apss(&ds.records, ds.measure, t, &cfg);
        let found: std::collections::HashSet<(u32, u32)> =
            r.pairs.iter().map(|p| (p.i, p.j)).collect();
        let hit = found.intersection(&truth).count();
        let recall = hit as f64 / truth.len().max(1) as f64;
        let precision = hit as f64 / found.len().max(1) as f64;
        table.row(vec![
            f(epsilon),
            f(gamma),
            n_hashes.to_string(),
            f(recall),
            f(precision),
            f(r.stats.hashes_compared as f64 / r.stats.candidates.max(1) as f64),
        ]);
    }
    table.print();
    println!(
        "(tightening ε/γ buys recall with more hash work; precision is 1.0 throughout because \
         survivors are exactly verified — the BayesLSH design point)"
    );
    let _ = opts;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Opts {
        Opts {
            scale: 0.02,
            seed: 7,
            out_dir: std::env::temp_dir().join("plasma_test_results"),
        }
    }

    #[test]
    fn table_and_toy_experiments_run() {
        let o = tiny_opts();
        table2_1(&o);
        fig2_2(&o);
    }

    #[test]
    fn cumulative_probe_experiment_runs() {
        let o = tiny_opts();
        fig2_3(&o);
    }
}
