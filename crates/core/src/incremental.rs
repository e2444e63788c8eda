//! Incremental (streaming) pair-count estimates — Figs. 2.6–2.8.
//!
//! PLASMA-HD presents partial results while the probe runs: records are
//! processed one at a time, each joined against all previously seen
//! records, and after every reporting step the pair counts observed so far
//! are extrapolated to the full dataset. The figures show these running
//! estimates converging to within a few percent of the final value after
//! only 10–20% of the data — the "five- to ten-fold reduction in processing
//! time to deliver a good estimate".

use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::BayesLsh;
use plasma_lsh::family::LshFamily;
use plasma_lsh::sketch::SketchSet;
use rayon::prelude::*;

use crate::apss::{build_sketches, ApssConfig, PairEvaluator};

/// Frontier width from which the per-record join shards across workers;
/// below it, thread spawn overhead (and the per-worker `ProbeTable`
/// rebuild) dominates the `k` pair evaluations.
const PAR_JOIN_MIN: usize = 4096;

/// `Pr(S ≥ t2)` for every report threshold, from the `(matches, hashes)`
/// cell one evaluation stopped at.
fn tail_masses(
    engine: &BayesLsh,
    grid: &[f64],
    report_thresholds: &[f64],
    matches: u32,
    hashes: u32,
) -> Vec<f64> {
    let post = engine.posterior(matches, hashes);
    report_thresholds
        .iter()
        .map(|&t2| {
            let mut tail = 0.0;
            for (gi, &w) in post.iter().enumerate() {
                if grid[gi] >= t2 {
                    tail += w;
                }
            }
            tail
        })
        .collect()
}

/// One reporting step of an incremental run.
#[derive(Debug, Clone)]
pub struct IncrementalStep {
    /// Fraction of records processed, in `(0, 1]`.
    pub fraction: f64,
    /// Extrapolated estimate of the final expected pair count at each of
    /// the requested report thresholds.
    pub estimates: Vec<f64>,
}

/// Result of an incremental APSS run.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// Probe threshold `t1` driving pruning.
    pub t1: f64,
    /// Report thresholds `t2` (each gets one estimate series).
    pub report_thresholds: Vec<f64>,
    /// One entry per reporting step.
    pub steps: Vec<IncrementalStep>,
    /// Final (100%) expected counts per report threshold.
    pub final_estimates: Vec<f64>,
}

/// Runs APSS record-at-a-time at probe threshold `t1`, reporting
/// extrapolated estimates for each `report_thresholds` entry at every
/// `report_points` fraction of the data.
///
/// Extrapolation: after `k` records, `C(k,2)` of `C(n,2)` pairs have been
/// evaluated; the running expected count at `t2` scales by the inverse of
/// that coverage. Record order is the dataset order, so callers wanting an
/// unbiased stream should shuffle first (the synthetic generators already
/// emit records in random order).
pub fn incremental_apss(
    records: &[SparseVector],
    measure: Similarity,
    t1: f64,
    report_thresholds: &[f64],
    report_points: &[f64],
    cfg: &ApssConfig,
) -> IncrementalRun {
    incremental_apss_gated(
        records,
        measure,
        t1,
        report_thresholds,
        report_points,
        cfg,
        PAR_JOIN_MIN,
    )
}

/// Test hook: [`incremental_apss`] with an explicit wide-frontier gate
/// (the frontier width from which the per-record join shards across
/// workers), so integration tests can exercise the parallel join on
/// datasets small enough for CI. Results are bit-identical at every gate.
#[doc(hidden)]
pub fn incremental_apss_gated(
    records: &[SparseVector],
    measure: Similarity,
    t1: f64,
    report_thresholds: &[f64],
    report_points: &[f64],
    cfg: &ApssConfig,
    par_join_min: usize,
) -> IncrementalRun {
    let (sketches, _) = build_sketches(records, measure, cfg);
    run_incremental(
        records,
        measure,
        &sketches,
        t1,
        report_thresholds,
        report_points,
        cfg,
        par_join_min,
    )
}

/// The driver behind [`incremental_apss`].
#[allow(clippy::too_many_arguments)]
fn run_incremental(
    records: &[SparseVector],
    measure: Similarity,
    sketches: &SketchSet,
    t1: f64,
    report_thresholds: &[f64],
    report_points: &[f64],
    cfg: &ApssConfig,
    par_join_min: usize,
) -> IncrementalRun {
    let n = records.len();
    let engine = BayesLsh::new(LshFamily::for_measure(measure), cfg.bayes);
    let mut eval = PairEvaluator::new(&engine, sketches, t1, None);
    let grid = engine.grid_points().to_vec();
    let threads = crate::apss::eval_threads(cfg, n);

    // Tail masses per report threshold, memoized by the (m, n) cell the
    // pair evaluation stopped at (only ~1k distinct cells occur).
    let mut tail_memo: plasma_data::hash::FxHashMap<(u32, u32), Vec<f64>> =
        plasma_data::hash::FxHashMap::default();

    // Running sums of Pr(S ≥ t2) per report threshold.
    let mut running = vec![0.0f64; report_thresholds.len()];
    let mut steps = Vec::with_capacity(report_points.len());
    let mut next_report = 0usize;

    for k in 1..n {
        // Folds one evaluation's (m, n) stopping cell into the running sums.
        let mut fold = |m: u32, h: u32| {
            let tails = tail_memo
                .entry((m, h))
                .or_insert_with(|| tail_masses(&engine, &grid, report_thresholds, m, h));
            for (ti, tail) in tails.iter().enumerate() {
                running[ti] += tail;
            }
        };
        if threads > 1 && k >= par_join_min.max(1) {
            // Wide frontier: shard the join of record k against 0..k.
            // Workers only evaluate pairs, writing each evaluation's
            // (m, n) stopping cell into a j-indexed buffer; the fold
            // below walks that buffer in j order against the shared
            // cross-k tail memo. Additions therefore happen in exactly
            // the sequential order — results are bit-identical at every
            // thread count — and tail masses stay memoized across the
            // whole run instead of per worker.
            let shard = k.div_ceil(threads);
            let mut cells: Vec<(u32, u32)> = vec![(0, 0); k];
            cells.par_chunks_mut(shard).enumerate_for_each(|c, slice| {
                let mut eval = PairEvaluator::new(&engine, sketches, t1, None);
                let lo = c * shard;
                for (off, cell) in slice.iter_mut().enumerate() {
                    let est = eval.step((lo + off) as u32, k as u32, None).estimate;
                    *cell = (est.matches, est.hashes);
                }
            });
            for &(m, h) in &cells {
                fold(m, h);
            }
        } else {
            // Join record k against records 0..k.
            for j in 0..k {
                let est = eval.step(j as u32, k as u32, None).estimate;
                fold(est.matches, est.hashes);
            }
        }
        let frac = (k + 1) as f64 / n as f64;
        while next_report < report_points.len() && frac >= report_points[next_report] {
            let pairs_done = (k + 1) * k / 2;
            let pairs_total = n * (n - 1) / 2;
            let scale = pairs_total as f64 / pairs_done as f64;
            steps.push(IncrementalStep {
                fraction: frac,
                estimates: running.iter().map(|&r| r * scale).collect(),
            });
            next_report += 1;
        }
    }
    IncrementalRun {
        t1,
        report_thresholds: report_thresholds.to_vec(),
        steps,
        final_estimates: running,
    }
}

impl IncrementalRun {
    /// Fraction of data after which every report threshold's estimate stays
    /// within `tol` (relative) of its final value — the convergence point
    /// the paper reads off the figures.
    pub fn convergence_fraction(&self, tol: f64) -> f64 {
        'steps: for (si, step) in self.steps.iter().enumerate() {
            for later in &self.steps[si..] {
                for (ti, &fin) in self.final_estimates.iter().enumerate() {
                    let denom = fin.max(1.0);
                    if (later.estimates[ti] - fin).abs() / denom > tol {
                        continue 'steps;
                    }
                }
            }
            return step.fraction;
        }
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_data::datasets::gaussian::GaussianSpec;

    fn dataset(n: usize) -> Vec<SparseVector> {
        GaussianSpec {
            separation: 4.0,
            spread: 0.7,
            ..GaussianSpec::new("t", n, 8, 4)
        }
        .generate(31)
        .records
    }

    #[test]
    fn estimates_converge_to_final() {
        let records = dataset(80);
        let run = incremental_apss(
            &records,
            Similarity::Cosine,
            0.5,
            &[0.75, 0.85],
            &[0.2, 0.4, 0.6, 0.8, 1.0],
            &ApssConfig::default(),
        );
        assert_eq!(run.steps.len(), 5);
        let last = run.steps.last().expect("has steps");
        for (ti, &fin) in run.final_estimates.iter().enumerate() {
            let rel = (last.estimates[ti] - fin).abs() / fin.max(1.0);
            assert!(rel < 0.02, "final step should equal final estimate ({rel})");
        }
    }

    #[test]
    fn early_estimates_are_in_the_ballpark() {
        let records = dataset(120);
        let run = incremental_apss(
            &records,
            Similarity::Cosine,
            0.5,
            &[0.7],
            &[0.3, 1.0],
            &ApssConfig::default(),
        );
        let early = run.steps[0].estimates[0];
        let fin = run.final_estimates[0];
        assert!(
            (early - fin).abs() / fin.max(1.0) < 0.5,
            "30% estimate {early} vs final {fin}"
        );
    }

    #[test]
    fn convergence_fraction_is_sane() {
        let records = dataset(100);
        let run = incremental_apss(
            &records,
            Similarity::Cosine,
            0.5,
            &[0.75],
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            &ApssConfig::default(),
        );
        let frac = run.convergence_fraction(0.25);
        assert!(frac <= 1.0);
        assert!(frac > 0.0);
    }
}
