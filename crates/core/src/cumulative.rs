//! The Cumulative APSS Graph (§2.1).
//!
//! "…shows the number of similar pairs as the similarity threshold is
//! varied. The main utility … is that when the user studies the data at one
//! similarity threshold, we can compute and display bounded estimates of
//! the number of pairs at other thresholds not directly being studied."
//!
//! Each memoized pair contributes `Pr(S ≥ t | m, n)` at every grid
//! threshold `t`; the expected count is the sum of those probabilities and
//! the error bar is the standard deviation of the sum of independent
//! Bernoullis, `sqrt(Σ p(1−p))`. Pruned pairs carry wide posteriors, which
//! is exactly why the paper's error bars balloon *below* the probed
//! threshold.

use plasma_lsh::bayes::{BayesLsh, PairEstimate};
use plasma_lsh::family::LshFamily;
use plasma_lsh::BayesParams;

/// An estimated pair-count curve across thresholds, with error bars.
#[derive(Debug, Clone)]
pub struct CumulativeCurve {
    /// Threshold grid (ascending).
    pub thresholds: Vec<f64>,
    /// Expected number of pairs with similarity ≥ each threshold.
    pub expected: Vec<f64>,
    /// One standard deviation of each estimate.
    pub std_dev: Vec<f64>,
}

impl CumulativeCurve {
    /// Builds the curve from memoized pair estimates.
    pub fn from_estimates<'a, I>(
        family: LshFamily,
        params: BayesParams,
        estimates: I,
        thresholds: &[f64],
    ) -> Self
    where
        I: IntoIterator<Item = &'a PairEstimate>,
    {
        let engine = BayesLsh::new(family, params);
        let grid = engine.grid_points().to_vec();
        // Only ~1k distinct (m, n) cells occur per probe (batch schedule ×
        // match counts); group first so each posterior is computed once.
        let mut counts: plasma_data::hash::FxHashMap<(u32, u32), u64> =
            plasma_data::hash::FxHashMap::default();
        for est in estimates {
            *counts.entry((est.matches, est.hashes)).or_insert(0) += 1;
        }
        let mut expected = vec![0.0f64; thresholds.len()];
        let mut var = vec![0.0f64; thresholds.len()];
        // One reused posterior buffer across all cells keeps curve
        // assembly allocation-free after the first cell.
        let mut post = Vec::new();
        for ((m, n), count) in counts {
            engine.posterior_into(m, n, &mut post);
            // Tail mass at each threshold via a single backward sweep.
            let mut acc = 0.0;
            let mut gi = grid.len();
            // thresholds ascending → walk both descending.
            for (ti, &t) in thresholds.iter().enumerate().rev() {
                while gi > 0 && grid[gi - 1] >= t {
                    gi -= 1;
                    acc += post[gi];
                }
                let p = acc.clamp(0.0, 1.0);
                expected[ti] += count as f64 * p;
                var[ti] += count as f64 * p * (1.0 - p);
            }
        }
        CumulativeCurve {
            thresholds: thresholds.to_vec(),
            expected,
            std_dev: var.into_iter().map(f64::sqrt).collect(),
        }
    }

    /// Merges two curves over the same grid by keeping, per threshold, the
    /// estimate with the smaller error bar — how a user combines the
    /// high-threshold probe with a later low-threshold probe (Fig. 2.4's
    /// "combining the upper threshold estimates for 0.8 and the lower for
    /// 0.5").
    pub fn merge_min_variance(&self, other: &CumulativeCurve) -> CumulativeCurve {
        assert_eq!(self.thresholds, other.thresholds, "grids must match");
        let mut expected = Vec::with_capacity(self.thresholds.len());
        let mut std_dev = Vec::with_capacity(self.thresholds.len());
        for k in 0..self.thresholds.len() {
            if self.std_dev[k] <= other.std_dev[k] {
                expected.push(self.expected[k]);
                std_dev.push(self.std_dev[k]);
            } else {
                expected.push(other.expected[k]);
                std_dev.push(other.std_dev[k]);
            }
        }
        CumulativeCurve {
            thresholds: self.thresholds.clone(),
            expected,
            std_dev,
        }
    }

    /// Index of the steepest relative drop — the "knee" the interactive
    /// scenario in §2.2.2 has the user investigate next.
    pub fn knee(&self) -> Option<usize> {
        if self.thresholds.len() < 3 {
            return None;
        }
        let mut best = None;
        let mut best_drop = 0.0;
        for k in 1..self.thresholds.len() {
            let hi = self.expected[k - 1].max(1.0);
            let drop = (self.expected[k - 1] - self.expected[k]) / hi;
            if drop > best_drop {
                best_drop = drop;
                best = Some(k);
            }
        }
        best
    }
}

/// The default threshold grid used by sessions: 0.05 steps from `lo`
/// to 0.95 plus the endpoints.
pub fn default_grid(lo: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = lo;
    while t < 0.999 {
        out.push((t * 1000.0).round() / 1000.0);
        t += 0.05;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_lsh::bayes::PairDecision;

    fn est(m: u32, n: u32) -> PairEstimate {
        PairEstimate {
            decision: PairDecision::Accepted,
            matches: m,
            hashes: n,
            map_similarity: m as f64 / n as f64,
            variance: 0.0,
        }
    }

    #[test]
    fn curve_is_nonincreasing() {
        let ests = [est(250, 256), est(128, 256), est(30, 256), est(200, 256)];
        let grid = default_grid(0.1);
        let curve = CumulativeCurve::from_estimates(
            LshFamily::MinHash,
            BayesParams::default(),
            ests.iter(),
            &grid,
        );
        for w in curve.expected.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "must be non-increasing: {w:?}");
        }
    }

    #[test]
    fn confident_pairs_counted_where_expected() {
        // One pair at ~0.97 similarity: counts at 0.5, not at 0.999.
        let ests = [est(250, 256)];
        let grid = vec![0.5, 0.9, 0.999];
        let curve = CumulativeCurve::from_estimates(
            LshFamily::MinHash,
            BayesParams::default(),
            ests.iter(),
            &grid,
        );
        assert!(curve.expected[0] > 0.95, "at 0.5: {}", curve.expected[0]);
        assert!(curve.expected[2] < 0.6, "at 0.999: {}", curve.expected[2]);
    }

    #[test]
    fn error_bars_grow_with_uncertainty() {
        // Few hashes → wide posterior → more probability mass leaking past
        // a threshold below the mode, so larger Bernoulli variance there.
        let precise = [est(192, 256)];
        let vague = [est(24, 32)];
        let grid = vec![0.7];
        let c1 = CumulativeCurve::from_estimates(
            LshFamily::MinHash,
            BayesParams::default(),
            precise.iter(),
            &grid,
        );
        let c2 = CumulativeCurve::from_estimates(
            LshFamily::MinHash,
            BayesParams::default(),
            vague.iter(),
            &grid,
        );
        assert!(
            c2.std_dev[0] > c1.std_dev[0],
            "vague {} vs precise {}",
            c2.std_dev[0],
            c1.std_dev[0]
        );
    }

    #[test]
    fn merge_takes_lower_variance_side() {
        let grid = vec![0.3, 0.8];
        let a = CumulativeCurve {
            thresholds: grid.clone(),
            expected: vec![10.0, 5.0],
            std_dev: vec![0.1, 2.0],
        };
        let b = CumulativeCurve {
            thresholds: grid,
            expected: vec![12.0, 4.0],
            std_dev: vec![1.0, 0.2],
        };
        let m = a.merge_min_variance(&b);
        assert_eq!(m.expected, vec![10.0, 4.0]);
    }

    #[test]
    fn knee_detects_steep_drop() {
        let curve = CumulativeCurve {
            thresholds: vec![0.2, 0.4, 0.6, 0.8],
            expected: vec![1000.0, 950.0, 100.0, 90.0],
            std_dev: vec![0.0; 4],
        };
        assert_eq!(curve.knee(), Some(2));
    }

    #[test]
    fn default_grid_ascending() {
        let g = default_grid(0.2);
        assert!(g.len() > 10);
        for w in g.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
