//! BayesLSH inference: posterior reasoning over pair similarity.
//!
//! For a candidate pair, hashes are compared incrementally in batches. With
//! `m` matches out of `n` hashes, the likelihood of true similarity `s` is
//! binomial in the family's collision probability `p(s)`. Under a uniform
//! prior over the similarity domain, the (discretized) posterior yields:
//!
//! * the **pruning** rule of Eq. 2.1 — stop and discard when
//!   `Pr(S ≥ t | m, n) < ε`;
//! * the **concentration** rule of Eq. 2.2 — stop and accept when
//!   `Pr(|ŝ − s| ≥ δ) < γ` around the posterior-mode estimate `ŝ`;
//! * the memoized per-pair record PLASMA-HD keeps (MAP estimate, variance,
//!   `m`, `n`) that powers the Cumulative APSS Graph and knowledge cache.
//!
//! The posterior is evaluated on a fixed grid; log-collision probabilities
//! are precomputed once per `(family, grid)` so each pair evaluation is a
//! few hundred fused multiply-adds.

use crate::family::LshFamily;
use crate::sketch::SketchSet;

/// Tunable parameters of the BayesLSH stopping rules.
#[derive(Debug, Clone, Copy)]
pub struct BayesParams {
    /// False-negative tolerance ε of the pruning rule (Eq. 2.1).
    pub epsilon: f64,
    /// Accuracy half-width δ of the concentration rule (Eq. 2.2).
    pub delta: f64,
    /// Miss probability γ of the concentration rule (Eq. 2.2).
    pub gamma: f64,
    /// Hashes compared per inference step.
    pub batch: usize,
}

impl Default for BayesParams {
    fn default() -> Self {
        // The BayesLSH paper's recommended operating point.
        Self {
            epsilon: 0.03,
            delta: 0.05,
            gamma: 0.03,
            batch: 32,
        }
    }
}

/// Outcome of evaluating one candidate pair at threshold `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairDecision {
    /// `Pr(S ≥ t) < ε`: the pair is discarded.
    Pruned,
    /// The similarity estimate concentrated: the pair is reported with the
    /// given estimate (it may still fall below `t`; the caller filters).
    Accepted,
    /// All hashes were consumed without either rule firing; the estimate is
    /// the best available (callers may fall back to an exact computation).
    Exhausted,
}

/// Memoized evaluation record for one pair — the unit of PLASMA-HD's
/// knowledge cache (§2.2.1: "we log the maximum a posteriori similarity
/// estimate of the pair given n … and m … and the estimate variance").
#[derive(Debug, Clone, Copy)]
pub struct PairEstimate {
    /// How the evaluation ended.
    pub decision: PairDecision,
    /// Matching hashes when evaluation stopped.
    pub matches: u32,
    /// Hashes compared when evaluation stopped.
    pub hashes: u32,
    /// Posterior-mode (MAP) similarity estimate.
    pub map_similarity: f64,
    /// Posterior variance of the similarity.
    pub variance: f64,
}

/// The BayesLSH inference engine for one hash family.
#[derive(Debug, Clone)]
pub struct BayesLsh {
    family: LshFamily,
    params: BayesParams,
    /// Similarity grid points.
    grid: Vec<f64>,
    /// `ln p(s_i)` per grid point.
    log_p: Vec<f64>,
    /// `ln (1 − p(s_i))` per grid point.
    log_q: Vec<f64>,
}

/// Number of posterior grid points. 256 keeps tail probabilities accurate
/// to well under the ε/γ values in use while staying cache-resident.
const GRID: usize = 256;

impl BayesLsh {
    /// Creates an engine for the family with the given stopping parameters.
    pub fn new(family: LshFamily, params: BayesParams) -> Self {
        let lo = family.domain_min();
        let hi = 1.0;
        let mut grid = Vec::with_capacity(GRID);
        let mut log_p = Vec::with_capacity(GRID);
        let mut log_q = Vec::with_capacity(GRID);
        for i in 0..GRID {
            let s = lo + (hi - lo) * (i as f64 + 0.5) / GRID as f64;
            // Clamp p into (0,1) so logs stay finite at the endpoints.
            let p = family.match_probability(s).clamp(1e-12, 1.0 - 1e-12);
            grid.push(s);
            log_p.push(p.ln());
            log_q.push((1.0 - p).ln());
        }
        Self {
            family,
            params,
            grid,
            log_p,
            log_q,
        }
    }

    /// The engine's family.
    pub fn family(&self) -> LshFamily {
        self.family
    }

    /// The engine's parameters.
    pub fn params(&self) -> BayesParams {
        self.params
    }

    /// Posterior over the similarity grid given `m` matches in `n` hashes.
    /// Returns normalized weights parallel to [`grid`](Self::grid_points).
    pub fn posterior(&self, m: u32, n: u32) -> Vec<f64> {
        let mut out = Vec::new();
        self.posterior_into(m, n, &mut out);
        out
    }

    /// [`posterior`](Self::posterior) into a caller-owned buffer, so hot
    /// loops (pair evaluation, curve assembly) reuse one allocation across
    /// thousands of cells.
    pub fn posterior_into(&self, m: u32, n: u32, out: &mut Vec<f64>) {
        debug_assert!(m <= n);
        let mf = m as f64;
        let nf = n as f64;
        out.clear();
        out.resize(GRID, 0.0);
        let mut max = f64::NEG_INFINITY;
        for (i, w) in out.iter_mut().enumerate() {
            let lw = mf * self.log_p[i] + (nf - mf) * self.log_q[i];
            *w = lw;
            if lw > max {
                max = lw;
            }
        }
        let mut total = 0.0;
        for lw in out.iter_mut() {
            *lw = (*lw - max).exp();
            total += *lw;
        }
        for w in out.iter_mut() {
            *w /= total;
        }
    }

    /// The similarity grid points.
    pub fn grid_points(&self) -> &[f64] {
        &self.grid
    }

    /// `Pr(S ≥ t | m, n)` under the discretized posterior.
    pub fn prob_at_least(&self, m: u32, n: u32, t: f64) -> f64 {
        let post = self.posterior(m, n);
        self.tail_mass(&post, t)
    }

    fn tail_mass(&self, post: &[f64], t: f64) -> f64 {
        let mut acc = 0.0;
        for (i, &w) in post.iter().enumerate() {
            if self.grid[i] >= t {
                acc += w;
            }
        }
        acc
    }

    /// Posterior summary: (MAP, mean, variance).
    pub fn summarize(&self, post: &[f64]) -> (f64, f64, f64) {
        let mut map_i = 0;
        let mut best = -1.0;
        let mut mean = 0.0;
        for (i, &w) in post.iter().enumerate() {
            if w > best {
                best = w;
                map_i = i;
            }
            mean += w * self.grid[i];
        }
        let mut var = 0.0;
        for (i, &w) in post.iter().enumerate() {
            let d = self.grid[i] - mean;
            var += w * d * d;
        }
        (self.grid[map_i], mean, var)
    }

    /// Evaluates one candidate pair from its sketches at threshold `t`,
    /// applying pruning and concentration incrementally in batches.
    pub fn evaluate_pair(&self, sketches: &SketchSet, i: usize, j: usize, t: f64) -> PairEstimate {
        let max_n = sketches.n_hashes();
        let mut scratch = Vec::new();
        let mut n = 0usize;
        loop {
            n = (n + self.params.batch).min(max_n);
            let m = sketches.matches(i, j, n);
            let cell = self.decide_with(m, n as u32, t, &mut scratch);
            if let Some(est) = cell.settle(m, n, max_n) {
                return est;
            }
        }
    }

    /// Builds a lazily-filled decision table for probing at threshold `t`.
    ///
    /// Per probe there are only `Σ_k n_k ≈ 1.2k` distinct `(m, n)` cells
    /// (batch schedule × match counts), so memoizing the stopping-rule
    /// decisions turns per-pair inference into table lookups — the
    /// precomputation BayesLSH relies on for its throughput.
    pub fn probe_table(&self, t: f64) -> ProbeTable<'_> {
        ProbeTable {
            engine: self,
            threshold: t,
            cells: plasma_data::hash::FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Computes the decision cell for `(m, n)` at threshold `t` with a
    /// caller-owned posterior buffer — the single home of both stopping
    /// rules (Eq. 2.1 pruning first, Eq. 2.2 concentration second), so
    /// every evaluation path applies them identically.
    fn decide_with(&self, m: u32, n: u32, t: f64, scratch: &mut Vec<f64>) -> Cell {
        self.posterior_into(m, n, scratch);
        let (map, _mean, var) = self.summarize(scratch);
        let prune = self.tail_mass(scratch, t) < self.params.epsilon;
        let mut inside = 0.0;
        for (gi, &w) in scratch.iter().enumerate() {
            if (self.grid[gi] - map).abs() < self.params.delta {
                inside += w;
            }
        }
        let accept = 1.0 - inside < self.params.gamma;
        Cell {
            prune,
            accept,
            map,
            var,
        }
    }
}

/// One memoized stopping-rule decision.
#[derive(Debug, Clone, Copy)]
struct Cell {
    prune: bool,
    accept: bool,
    map: f64,
    var: f64,
}

impl Cell {
    /// Estimate with this cell's posterior summary and the given decision.
    fn as_estimate(self, decision: PairDecision, m: u32, n: u32) -> PairEstimate {
        PairEstimate {
            decision,
            matches: m,
            hashes: n,
            map_similarity: self.map,
            variance: self.var,
        }
    }

    /// Terminal estimate for a batch step at `(m, n)` of `max_n` hashes,
    /// or `None` when evaluation must continue. Pruning outranks
    /// acceptance, matching the rule order of Eqs. 2.1 and 2.2.
    fn settle(self, m: u32, n: usize, max_n: usize) -> Option<PairEstimate> {
        let decision = if self.prune {
            PairDecision::Pruned
        } else if self.accept {
            PairDecision::Accepted
        } else if n == max_n {
            PairDecision::Exhausted
        } else {
            return None;
        };
        Some(self.as_estimate(decision, m, n as u32))
    }
}

/// A pair's memoized hash-comparison knowledge: the match count at every
/// batch boundary of the canonical evaluation schedule (`n_k =
/// min(k·batch, n_hashes)` for `k = 1, 2, …`), up to the deepest step any
/// probe has compared so far.
///
/// This is the unit the *shared* knowledge cache publishes. Unlike a bare
/// `(m, n)` endpoint, a profile makes re-evaluation **confluent**: every
/// evaluation replays the same fresh schedule, reading memoized counts for
/// covered steps (zero hash comparisons) and comparing hashes only past
/// the deepest covered step — so the returned [`PairEstimate`] is bit
/// identical to a from-scratch [`ProbeTable::evaluate_pair`] no matter
/// which probes (from which sessions, in which order) populated the
/// profile. Merging two profiles is "keep the deeper one"
/// ([`MatchProfile::adopt_deeper`]): commutative, associative, and
/// idempotent, so the cache state after a set of probes is independent of
/// thread count and session interleaving.
///
/// A profile is only meaningful for the `(sketches, batch)` pair it was
/// built against; the shared cache pins both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchProfile {
    /// `counts[k]` = matches among the first `min((k+1)·batch, n_hashes)`
    /// hashes.
    counts: Vec<u32>,
}

impl MatchProfile {
    /// An empty profile (no batch steps compared yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of batch steps covered.
    pub fn covered_steps(&self) -> usize {
        self.counts.len()
    }

    /// True when no batch step has been compared yet.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Replaces this profile with `other` when `other` covers more batch
    /// steps — the order-free merge rule of the shared knowledge cache.
    /// Equal-depth profiles over the same sketches are identical, so ties
    /// keep `self`.
    pub fn adopt_deeper(&mut self, other: MatchProfile) {
        if other.counts.len() > self.counts.len() {
            self.counts = other.counts;
        }
    }

    /// Heap bytes this profile holds, for cache accounting. Counts the
    /// *capacity* of the match-count vector — what the allocator actually
    /// charges — not just its length, so a bounded cache's accounting is
    /// honest about push-growth slack. Publish paths that care about tight
    /// accounting call [`shrink_to_fit`](Self::shrink_to_fit) first.
    ///
    /// ```
    /// use plasma_lsh::bayes::MatchProfile;
    ///
    /// let p = MatchProfile::new();
    /// assert_eq!(p.byte_size(), 0, "empty profiles own no heap");
    /// ```
    pub fn byte_size(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
    }

    /// Releases excess capacity so [`byte_size`](Self::byte_size) equals
    /// `covered_steps() * 4` bytes. The shared knowledge cache shrinks
    /// profiles at publication time: a profile deepens at most
    /// `n_hashes / batch` times over its whole life, so the occasional
    /// realloc is cheap, and the memo pool's accounted footprint stays
    /// slack-free.
    pub fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
    }
}

/// Outcome of a profile-backed pair evaluation.
#[derive(Debug, Clone, Copy)]
pub struct ProfiledEval {
    /// The decision record — bit-identical to what
    /// [`ProbeTable::evaluate_pair`] returns for the same pair.
    pub estimate: PairEstimate,
    /// Hash positions newly compared by this evaluation (0 when the
    /// profile answered every visited batch step — a full cache hit).
    pub new_hashes: u32,
}

/// Lazily-filled `(m, n) → decision` table for one probe threshold.
///
/// Tables are intentionally cheap to construct (an empty map plus a
/// scratch buffer), so parallel pair evaluation hands each worker its own
/// table instead of sharing one behind a lock; per-worker cells repopulate
/// in a few hundred posterior evaluations.
pub struct ProbeTable<'a> {
    engine: &'a BayesLsh,
    threshold: f64,
    cells: plasma_data::hash::FxHashMap<(u32, u32), Cell>,
    /// Reused posterior buffer: cell misses compute without allocating.
    scratch: Vec<f64>,
}

impl ProbeTable<'_> {
    /// The probe threshold this table serves.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    fn cell(&mut self, m: u32, n: u32) -> Cell {
        let engine = self.engine;
        let t = self.threshold;
        let scratch = &mut self.scratch;
        *self
            .cells
            .entry((m, n))
            .or_insert_with(|| engine.decide_with(m, n, t, scratch))
    }

    /// Table-driven equivalent of [`BayesLsh::evaluate_pair`].
    pub fn evaluate_pair(&mut self, sketches: &SketchSet, i: usize, j: usize) -> PairEstimate {
        let max_n = sketches.n_hashes();
        let batch = self.engine.params.batch;
        let mut n = 0usize;
        loop {
            n = (n + batch).min(max_n);
            let m = sketches.matches(i, j, n);
            if let Some(est) = self.cell(m, n as u32).settle(m, n, max_n) {
                return est;
            }
        }
    }

    /// Evaluates a pair through its [`MatchProfile`], extending the
    /// profile in place past its deepest covered step.
    ///
    /// The walk is the canonical fresh schedule (`n = batch, 2·batch, …`,
    /// stop at the first decisive cell), with each step's match count
    /// either read from the profile (free) or computed incrementally via
    /// [`SketchSet::matches_range`] and appended to the profile. The
    /// returned estimate is therefore bit-identical to
    /// [`evaluate_pair`](Self::evaluate_pair) regardless of how much of
    /// the profile was already populated — the property the shared
    /// knowledge cache's determinism guarantee rests on. Only
    /// [`ProfiledEval::new_hashes`] varies with cache warmth.
    pub fn evaluate_profiled(
        &mut self,
        sketches: &SketchSet,
        i: usize,
        j: usize,
        profile: &mut MatchProfile,
    ) -> ProfiledEval {
        let max_n = sketches.n_hashes();
        let batch = self.engine.params.batch;
        let mut new_hashes = 0u32;
        let mut n_prev = 0usize;
        let mut m_prev = 0u32;
        let mut step = 0usize;
        loop {
            let n = ((step + 1) * batch).min(max_n);
            let m = match profile.counts.get(step) {
                Some(&m) => m,
                None => {
                    let m = m_prev + sketches.matches_range(i, j, n_prev, n);
                    new_hashes += (n - n_prev) as u32;
                    profile.counts.push(m);
                    m
                }
            };
            if let Some(est) = self.cell(m, n as u32).settle(m, n, max_n) {
                return ProfiledEval {
                    estimate: est,
                    new_hashes,
                };
            }
            n_prev = n;
            m_prev = m;
            step += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::Sketcher;
    use plasma_data::vector::SparseVector;

    fn engine(fam: LshFamily) -> BayesLsh {
        BayesLsh::new(fam, BayesParams::default())
    }

    #[test]
    fn posterior_sums_to_one() {
        let e = engine(LshFamily::MinHash);
        for &(m, n) in &[(0u32, 32u32), (16, 32), (32, 32), (100, 128)] {
            let p = e.posterior(m, n);
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "({m},{n}) sums to {total}");
        }
    }

    #[test]
    fn posterior_mode_tracks_match_rate_minhash() {
        let e = engine(LshFamily::MinHash);
        let post = e.posterior(96, 128);
        let (map, mean, var) = e.summarize(&post);
        assert!((map - 0.75).abs() < 0.05, "map {map}");
        assert!((mean - 0.75).abs() < 0.05, "mean {mean}");
        assert!(var > 0.0 && var < 0.01);
    }

    #[test]
    fn posterior_mode_tracks_cosine_for_simhash() {
        let e = engine(LshFamily::SimHash);
        // Match rate 0.9 → cosine = cos(0.1π) ≈ 0.951.
        let post = e.posterior(230, 256);
        let (map, _, _) = e.summarize(&post);
        let expected = (0.1 * std::f64::consts::PI).cos();
        assert!((map - expected).abs() < 0.06, "map {map} vs {expected}");
    }

    #[test]
    fn prob_at_least_behaves_monotonically() {
        let e = engine(LshFamily::MinHash);
        let p_low = e.prob_at_least(10, 64, 0.5);
        let p_high = e.prob_at_least(60, 64, 0.5);
        assert!(
            p_low < 0.01,
            "low match rate should rule out s≥0.5: {p_low}"
        );
        assert!(
            p_high > 0.99,
            "high match rate should imply s≥0.5: {p_high}"
        );
    }

    #[test]
    fn variance_shrinks_with_more_hashes() {
        let e = engine(LshFamily::MinHash);
        let (_, _, v1) = e.summarize(&e.posterior(16, 32));
        let (_, _, v2) = e.summarize(&e.posterior(128, 256));
        assert!(v2 < v1, "more evidence must concentrate the posterior");
    }

    #[test]
    fn dissimilar_pair_is_pruned_quickly() {
        let a = SparseVector::from_set((0..100).collect());
        let b = SparseVector::from_set((1000..1100).collect());
        let sk = Sketcher::new(LshFamily::MinHash, 256, 3).sketch_all(&[a, b]);
        let e = engine(LshFamily::MinHash);
        let r = e.evaluate_pair(&sk, 0, 1, 0.7);
        assert_eq!(r.decision, PairDecision::Pruned);
        assert!(
            r.hashes < 128,
            "pruning should fire well before exhausting hashes, used {}",
            r.hashes
        );
    }

    #[test]
    fn similar_pair_is_accepted_with_good_estimate() {
        let a = SparseVector::from_set((0..200).collect());
        let b = SparseVector::from_set((20..220).collect()); // jaccard = 180/220
        let truth = 180.0 / 220.0;
        let sk = Sketcher::new(LshFamily::MinHash, 512, 5).sketch_all(&[a, b]);
        let e = engine(LshFamily::MinHash);
        let r = e.evaluate_pair(&sk, 0, 1, 0.5);
        assert_ne!(r.decision, PairDecision::Pruned);
        assert!(
            (r.map_similarity - truth).abs() < 0.1,
            "estimate {} vs truth {truth}",
            r.map_similarity
        );
    }

    #[test]
    fn probe_table_matches_direct_evaluation() {
        let a = SparseVector::from_set((0..150).collect());
        let b = SparseVector::from_set((40..190).collect());
        let c = SparseVector::from_set((500..650).collect());
        let sk = Sketcher::new(LshFamily::MinHash, 256, 4).sketch_all(&[a, b, c]);
        let e = engine(LshFamily::MinHash);
        let mut table = e.probe_table(0.6);
        for &(i, j) in &[(0usize, 1usize), (0, 2), (1, 2)] {
            let direct = e.evaluate_pair(&sk, i, j, 0.6);
            let tabled = table.evaluate_pair(&sk, i, j);
            assert_eq!(direct.decision, tabled.decision, "pair ({i},{j})");
            assert_eq!(direct.matches, tabled.matches);
            assert_eq!(direct.hashes, tabled.hashes);
            assert!((direct.map_similarity - tabled.map_similarity).abs() < 1e-12);
        }
    }

    #[test]
    fn profiled_evaluation_is_bit_identical_to_fresh_at_any_warmth() {
        let a = SparseVector::from_set((0..150).collect());
        let b = SparseVector::from_set((50..200).collect());
        let c = SparseVector::from_set((900..1050).collect());
        let sk = Sketcher::new(LshFamily::MinHash, 256, 9).sketch_all(&[a, b, c]);
        let e = engine(LshFamily::MinHash);
        for &(i, j) in &[(0usize, 1usize), (0, 2), (1, 2)] {
            // Warm the profile at one threshold, then evaluate at others:
            // the estimate must equal the from-scratch evaluation exactly,
            // whatever the profile already covers.
            let mut profile = MatchProfile::new();
            for t in [0.9, 0.3, 0.6, 0.3] {
                let mut table = e.probe_table(t);
                let fresh = table.evaluate_pair(&sk, i, j);
                let profiled = table.evaluate_profiled(&sk, i, j, &mut profile);
                assert_eq!(profiled.estimate.decision, fresh.decision, "({i},{j})@{t}");
                assert_eq!(profiled.estimate.matches, fresh.matches);
                assert_eq!(profiled.estimate.hashes, fresh.hashes);
                assert_eq!(
                    profiled.estimate.map_similarity.to_bits(),
                    fresh.map_similarity.to_bits()
                );
                assert_eq!(
                    profiled.estimate.variance.to_bits(),
                    fresh.variance.to_bits()
                );
            }
            // Re-running any already-probed threshold is free.
            let mut table = e.probe_table(0.9);
            let again = table.evaluate_profiled(&sk, i, j, &mut profile);
            assert_eq!(again.new_hashes, 0, "({i},{j}) re-probe must be free");
        }
    }

    #[test]
    fn profile_byte_size_tracks_heap_and_shrinks_tight() {
        let a = SparseVector::from_set((0..120).collect());
        let b = SparseVector::from_set((40..160).collect());
        let sk = Sketcher::new(LshFamily::MinHash, 256, 9).sketch_all(&[a, b]);
        let e = engine(LshFamily::MinHash);
        let mut profile = MatchProfile::new();
        assert_eq!(profile.byte_size(), 0);
        e.probe_table(0.2)
            .evaluate_profiled(&sk, 0, 1, &mut profile);
        assert!(profile.covered_steps() > 0);
        // Capacity-based accounting bounds the length-based minimum…
        let tight = profile.covered_steps() * std::mem::size_of::<u32>();
        assert!(profile.byte_size() >= tight);
        // …and shrinking makes them equal.
        profile.shrink_to_fit();
        assert_eq!(profile.byte_size(), tight);
    }

    #[test]
    fn profile_adoption_keeps_deepest() {
        let a = SparseVector::from_set((0..120).collect());
        let b = SparseVector::from_set((40..160).collect());
        let sk = Sketcher::new(LshFamily::MinHash, 256, 9).sketch_all(&[a, b]);
        let e = engine(LshFamily::MinHash);
        let mut shallow = MatchProfile::new();
        e.probe_table(0.95)
            .evaluate_profiled(&sk, 0, 1, &mut shallow);
        let mut deep = MatchProfile::new();
        e.probe_table(0.2).evaluate_profiled(&sk, 0, 1, &mut deep);
        assert!(deep.covered_steps() >= shallow.covered_steps());
        let mut merged = shallow.clone();
        merged.adopt_deeper(deep.clone());
        // Same-depth profiles over the same sketches are identical, so the
        // merged profile is the deep one whichever way the merge runs.
        assert_eq!(merged, deep);
        let mut other = deep.clone();
        other.adopt_deeper(shallow);
        assert_eq!(merged, other);
    }
}
