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
//!
//! A probe's pairs fall into few `(m, n)` cells (the batch schedule times
//! the match counts), and a session's probes keep landing in the same
//! ones. [`TailRows`] therefore memoizes, per cell, its *tail row*: the
//! clamped tail probability at every threshold of one grid. A cell costs
//! one posterior (256 `exp`s) and one backward sweep the first time any
//! probe of the session meets it, and a row read after that. The fold
//! sums rows in the order the uncached fold summed them, so the curve's
//! bits do not depend on what the memo held.

use plasma_data::hash::FxHashMap;
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

/// The tail rows of one threshold grid, memoized per `(m, n)` cell, and
/// the one fold that turns pair estimates into a [`CumulativeCurve`].
///
/// A row is a pure function of the cell, the family, the BayesLSH
/// parameters and the grid. The memo owns its grid, so a row is never
/// read against another grid; a session that changes grid starts a new
/// memo. The `(m, n)` triangle bounds its size: at 256 hashes in batches
/// of 32 there are at most ≈ 1 160 cells, ≈ 0.2 MB on a 19-point grid.
#[derive(Debug, Clone)]
pub struct TailRows {
    family: LshFamily,
    params: BayesParams,
    /// The threshold grid (ascending) every row is taken at.
    thresholds: Vec<f64>,
    /// Built when the first row is computed.
    engine: Option<BayesLsh>,
    /// Offset of each computed cell's row in `rows`.
    index: FxHashMap<(u32, u32), usize>,
    /// Rows back to back, one value per threshold.
    rows: Vec<f64>,
    /// Posterior buffer reused by every row computed.
    post: Vec<f64>,
}

impl TailRows {
    /// An empty memo over `thresholds` (ascending).
    pub fn new(family: LshFamily, params: BayesParams, thresholds: Vec<f64>) -> Self {
        Self {
            family,
            params,
            thresholds,
            engine: None,
            index: FxHashMap::default(),
            rows: Vec::new(),
            post: Vec::new(),
        }
    }

    /// The grid the rows are taken at.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Folds pair estimates into a curve over this memo's grid. Returns
    /// the curve and the rows this fold computed (cells no earlier fold
    /// met); every other cell reads its row.
    pub fn fold<'a, I>(&mut self, estimates: I) -> (CumulativeCurve, u64)
    where
        I: IntoIterator<Item = &'a PairEstimate>,
    {
        // Group first so each cell is visited once. The curve's bits
        // depend on the order cells are summed in, which is this map's.
        let mut counts: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for est in estimates {
            *counts.entry((est.matches, est.hashes)).or_insert(0) += 1;
        }
        let width = self.thresholds.len();
        let mut expected = vec![0.0f64; width];
        let mut var = vec![0.0f64; width];
        let mut computed = 0;
        for ((m, n), count) in counts {
            let at = match self.index.get(&(m, n)) {
                Some(&at) => at,
                None => {
                    computed += 1;
                    self.compute_row(m, n)
                }
            };
            for (ti, &p) in self.rows[at..at + width].iter().enumerate() {
                expected[ti] += count as f64 * p;
                var[ti] += count as f64 * p * (1.0 - p);
            }
        }
        let curve = CumulativeCurve {
            thresholds: self.thresholds.clone(),
            expected,
            std_dev: var.into_iter().map(f64::sqrt).collect(),
        };
        (curve, computed)
    }

    /// Computes and stores the tail row of cell `(m, n)`; returns its
    /// offset in `rows`.
    fn compute_row(&mut self, m: u32, n: u32) -> usize {
        let engine = self
            .engine
            .get_or_insert_with(|| BayesLsh::new(self.family, self.params));
        engine.posterior_into(m, n, &mut self.post);
        let grid = engine.grid_points();
        let at = self.rows.len();
        self.rows.resize(at + self.thresholds.len(), 0.0);
        let row = &mut self.rows[at..];
        // Tail mass at each threshold via a single backward sweep:
        // thresholds ascending → walk both descending.
        let mut acc = 0.0;
        let mut gi = grid.len();
        for (ti, &t) in self.thresholds.iter().enumerate().rev() {
            while gi > 0 && grid[gi - 1] >= t {
                gi -= 1;
                acc += self.post[gi];
            }
            row[ti] = acc.clamp(0.0, 1.0);
        }
        self.index.insert((m, n), at);
        at
    }
}

impl CumulativeCurve {
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

    /// A fresh MinHash memo's fold of `ests` over `grid`.
    fn fold(ests: &[PairEstimate], grid: &[f64]) -> CumulativeCurve {
        let mut rows = TailRows::new(LshFamily::MinHash, BayesParams::default(), grid.to_vec());
        rows.fold(ests).0
    }

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
        let curve = fold(&ests, &grid);
        for w in curve.expected.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "must be non-increasing: {w:?}");
        }
    }

    #[test]
    fn confident_pairs_counted_where_expected() {
        // One pair at ~0.97 similarity: counts at 0.5, not at 0.999.
        let ests = [est(250, 256)];
        let grid = vec![0.5, 0.9, 0.999];
        let curve = fold(&ests, &grid);
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
        let c1 = fold(&precise, &grid);
        let c2 = fold(&vague, &grid);
        assert!(
            c2.std_dev[0] > c1.std_dev[0],
            "vague {} vs precise {}",
            c2.std_dev[0],
            c1.std_dev[0]
        );
    }

    #[test]
    fn a_refold_reads_every_row_and_keeps_the_bits() {
        let ests = [est(250, 256), est(128, 256), est(24, 32), est(250, 256)];
        let grid = default_grid(0.1);
        let mut rows = TailRows::new(LshFamily::MinHash, BayesParams::default(), grid.clone());
        let (_, computed) = rows.fold(&ests);
        assert_eq!(computed, 3, "one row per distinct cell");
        let (again, computed) = rows.fold(&ests[1..]);
        assert_eq!(computed, 0);
        let cold = fold(&ests[1..], &grid);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again.expected), bits(&cold.expected));
        assert_eq!(bits(&again.std_dev), bits(&cold.std_dev));
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
