//! Incremental (streaming) pair-count estimates — Figs. 2.6–2.8.
//!
//! PLASMA-HD presents partial results while the probe runs: each record is
//! joined against every earlier one, and at each reporting step the pair
//! counts seen so far are extrapolated to the full dataset. The figures
//! show these running estimates settling within a few percent of the final
//! value after only 10–20% of the data. The joined pairs go through
//! `apss::evaluate` a block at a time, and their estimates fold into the
//! running sums in candidate order.

use plasma_data::hash::FxHashMap;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::BayesLsh;

use crate::apss::{build_sketches, evaluate, ApssConfig};

/// Most pending pairs handed to `evaluate` at once; bounds the memory a
/// run holds beyond its sketches.
const BLOCK_PAIRS: usize = 1 << 14;

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
/// unbiased stream should shuffle first. The synthetic generators do not
/// emit one: each near-duplicate copies a uniformly drawn *earlier* record,
/// so a `k`-record prefix holds about `k/n` of the near-duplicate pairs but
/// only `(k/n)²` of all pairs, and early high-threshold estimates over-count
/// by about `n/k`.
pub fn incremental_apss(
    records: &[SparseVector],
    measure: Similarity,
    t1: f64,
    report_thresholds: &[f64],
    report_points: &[f64],
    cfg: &ApssConfig,
) -> IncrementalRun {
    let n = records.len();
    let (sketches, _) = build_sketches(records, measure, cfg);
    // The figures read only each pair's `(matches, hashes)` stopping cell.
    let cfg = ApssConfig {
        exact_on_accept: false,
        ..*cfg
    };
    let engine = BayesLsh::new(sketches.family(), cfg.bayes);
    // Tail masses per report threshold, memoized by the (m, n) cell the
    // pair evaluation stopped at (only ~1k distinct cells occur).
    let mut tail_memo: FxHashMap<(u32, u32), Vec<f64>> = FxHashMap::default();
    // Evaluates the pending pairs and adds each one's Pr(S ≥ t2) into the
    // running sums, in candidate order.
    let mut fold = |pending: &mut Vec<(u32, u32)>, running: &mut [f64]| {
        let block = evaluate(records, measure, &sketches, t1, &cfg, pending, None);
        for (_, _, est) in &block.estimates {
            let (m, h) = (est.matches, est.hashes);
            let tails = tail_memo.entry((m, h)).or_insert_with(|| {
                report_thresholds
                    .iter()
                    .map(|&t2| engine.prob_at_least(m, h, t2))
                    .collect()
            });
            for (r, tail) in running.iter_mut().zip(tails.iter()) {
                *r += tail;
            }
        }
        pending.clear();
    };

    let mut running = vec![0.0f64; report_thresholds.len()];
    let mut steps = Vec::with_capacity(report_points.len());
    let mut next_report = 0usize;
    let mut pending = Vec::new();
    for k in 1..n {
        for j in 0..k {
            pending.push((j as u32, k as u32));
            if pending.len() == BLOCK_PAIRS {
                fold(&mut pending, &mut running);
            }
        }
        let frac = (k + 1) as f64 / n as f64;
        if k + 1 == n || report_points.get(next_report).is_some_and(|&p| frac >= p) {
            fold(&mut pending, &mut running);
        }
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

    /// The running sums [`incremental_apss`] must reproduce, written out
    /// longhand: entry `k` holds `Σ Pr(S ≥ t2)` over every pair `(j, i)`,
    /// `j < i ≤ k`, each walked with the un-tabled `BayesLsh::evaluate_pair`
    /// and added in that order. A record's sketch does not depend on the
    /// others, so the first `n` entries serve every `n`-record prefix.
    fn reference_sums(records: &[SparseVector], t1: f64, report_t: &[f64]) -> Vec<Vec<f64>> {
        let cfg = ApssConfig::default();
        let (sketches, _) = build_sketches(records, Similarity::Cosine, &cfg);
        let engine = BayesLsh::new(sketches.family(), cfg.bayes);
        let mut running = vec![0.0f64; report_t.len()];
        let mut sums = vec![running.clone()];
        for k in 1..records.len() {
            for j in 0..k {
                let est = engine.evaluate_pair(&sketches, j, k, t1);
                for (r, &t2) in running.iter_mut().zip(report_t) {
                    *r += engine.prob_at_least(est.matches, est.hashes, t2);
                }
            }
            sums.push(running.clone());
        }
        sums
    }

    /// The report rule applied to [`reference_sums`] of an `n`-record run.
    fn reference_steps(sums: &[Vec<f64>], report_points: &[f64]) -> Vec<IncrementalStep> {
        let n = sums.len();
        let mut steps = Vec::new();
        let mut next_report = 0;
        for (k, running) in sums.iter().enumerate().skip(1) {
            let frac = (k + 1) as f64 / n as f64;
            while next_report < report_points.len() && frac >= report_points[next_report] {
                let scale = (n * (n - 1) / 2) as f64 / ((k + 1) * k / 2) as f64;
                steps.push(IncrementalStep {
                    fraction: frac,
                    estimates: running.iter().map(|&r| r * scale).collect(),
                });
                next_report += 1;
            }
        }
        steps
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn runs_match_a_longhand_walk_bit_for_bit() {
        let records = dataset(300);
        let report_t = [0.75, 0.85];
        let sums = reference_sums(&records, 0.5, &report_t);
        // 300 records reporting only at 1.0: one 44 850-pair segment spans
        // three evaluation blocks. Reporting only at 0.5 leaves the last
        // record's flush to fill `final_estimates`.
        for n in [0, 1, 2, 300] {
            for report_at in [&[1.0][..], &[0.0, 0.5, 0.5, 1.0, 1.5], &[0.5]] {
                let want = reference_steps(&sums[..n], report_at);
                for parallelism in [1, 4] {
                    let cfg = ApssConfig {
                        parallelism: Some(parallelism),
                        ..ApssConfig::default()
                    };
                    let got = incremental_apss(
                        &records[..n],
                        Similarity::Cosine,
                        0.5,
                        &report_t,
                        report_at,
                        &cfg,
                    );
                    let ctx = format!("n={n} points={report_at:?} parallelism={parallelism}");
                    assert_eq!(got.steps.len(), want.len(), "{ctx}");
                    for (a, b) in got.steps.iter().zip(&want) {
                        assert_eq!(a.fraction.to_bits(), b.fraction.to_bits(), "{ctx}");
                        assert_eq!(bits(&a.estimates), bits(&b.estimates), "{ctx}");
                    }
                    let fin = &sums[n.saturating_sub(1)];
                    assert_eq!(bits(&got.final_estimates), bits(fin), "{ctx}");
                }
            }
        }
    }

    /// A one-threshold run with final value 100 and the given series at
    /// fractions 1/8, 1/4, 1/2, 3/4 and 1.
    fn hand_run(series: [f64; 5]) -> IncrementalRun {
        let fractions = [0.125, 0.25, 0.5, 0.75, 1.0];
        IncrementalRun {
            t1: 0.5,
            report_thresholds: vec![0.75],
            steps: fractions
                .iter()
                .zip(series)
                .map(|(&fraction, e)| IncrementalStep {
                    fraction,
                    estimates: vec![e],
                })
                .collect(),
            final_estimates: vec![100.0],
        }
    }

    #[test]
    fn convergence_fraction_reads_the_first_step_that_stays_in_band() {
        // Enters the 10 % band at step 2 and stays.
        let settled = hand_run([300.0, 105.0, 98.0, 101.0, 100.0]);
        assert_eq!(settled.convergence_fraction(0.10), 0.25);
        // Enters at step 2, leaves at step 3, stays from step 4.
        let wobbly = hand_run([300.0, 105.0, 150.0, 95.0, 100.0]);
        assert_eq!(wobbly.convergence_fraction(0.10), 0.75);
        let empty = IncrementalRun {
            steps: Vec::new(),
            ..settled
        };
        assert_eq!(empty.convergence_fraction(0.10), 1.0);
    }
}
