//! Summary statistics used by experiments and estimators.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; 0.0 for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation percentile, `q` in `[0, 1]`. Sorts a copy.
///
/// Returns `None` for an empty slice: a percentile of nothing is not a
/// number, and the old `0.0` fallback let empty latency sets publish a
/// fake p99 into benchmark reports.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "percentile q must be in [0,1]");
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in percentile input"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    })
}

/// Median (50th percentile); `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// Fixed-width histogram over `[lo, hi)` with `bins` buckets.
///
/// Values outside the range are clamped into the first/last bucket, which is
/// the behavior wanted for similarity values that may be exactly `hi`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observation count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Midpoint of bucket `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Cumulative count of observations at or above each bucket's lower
    /// edge, i.e. a survival curve. `survival()[i]` = #observations in
    /// buckets `i..`. This is exactly the shape of the Cumulative APSS
    /// Graph (§2.1) when buckets are similarity thresholds.
    pub fn survival(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.counts.len()];
        let mut acc = 0u64;
        for i in (0..self.counts.len()).rev() {
            acc += self.counts[i];
            out[i] = acc;
        }
        out
    }
}

/// Number of buckets in a [`Log2Histogram`]; covers the full `u64` range.
pub const LOG2_BUCKETS: usize = 64;

/// Fixed-bucket base-2 histogram over `u64` observations (such as
/// latency nanoseconds).
///
/// Bucket `0` covers `{0, 1}`; bucket `i ≥ 1` covers `[2^i, 2^(i+1))`.
/// Recording is a single increment — no allocation, no sort — so one
/// sample per request stays cheap on the measured path, and bucket
/// counts are exact integers that replay bit-identically under a fixed
/// schedule (unlike any representation that stores raw timestamps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; LOG2_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index holding `v`.
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            v.ilog2() as usize
        }
    }

    /// Inclusive lower edge of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Inclusive upper edge of bucket `i` (the largest value it holds).
    pub fn bucket_hi(i: usize) -> u64 {
        if i >= LOG2_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Bucket counts, low to high.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observation count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest observation recorded; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of all observations; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// Nearest-rank percentile estimate, `q` in `[0, 1]`; `None` when
    /// empty.
    ///
    /// Walks the cumulative counts to the bucket holding the rank
    /// `ceil(q·total)` observation and returns that bucket's upper edge
    /// (clamped to the recorded maximum), so the estimate lands in the
    /// same bucket as the true nearest-rank sample — i.e. it is accurate
    /// to within one bucket width.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "percentile q must be in [0,1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(Self::bucket_hi(i).min(self.max));
            }
        }
        unreachable!("cumulative count covers total")
    }
}

/// Mean relative error of `pred` vs `truth`: mean(|p−t| / max(|t|, eps)).
pub fn mean_relative_error(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    let eps = 1e-12;
    let total: f64 = pred
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs() / t.abs().max(eps))
        .sum();
    total / pred.len() as f64
}

/// Relative errors per element (used for mean/σ reporting in Table 3.2).
pub fn relative_errors(pred: &[f64], truth: &[f64]) -> Vec<f64> {
    assert_eq!(pred.len(), truth.len());
    let eps = 1e-12;
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs() / t.abs().max(eps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn percentile_empty() {
        // An empty set has no percentiles — the old 0.0 fallback would
        // publish a phantom p99 into benchmark snapshots.
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[], 0.99), None);
        assert_eq!(median(&[]), None);
        assert_eq!(Log2Histogram::new().percentile(0.99), None);
        assert_eq!(Log2Histogram::new().mean(), None);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((percentile(&xs, 0.5).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(percentile(&xs, 0.0), Some(0.0));
        assert_eq!(percentile(&xs, 1.0), Some(10.0));
    }

    #[test]
    fn median_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn log2_histogram_bucket_edges() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 0);
        assert_eq!(Log2Histogram::bucket_index(2), 1);
        assert_eq!(Log2Histogram::bucket_index(3), 1);
        assert_eq!(Log2Histogram::bucket_index(4), 2);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 63);
        for i in 0..LOG2_BUCKETS {
            assert_eq!(Log2Histogram::bucket_index(Log2Histogram::bucket_lo(i)), i);
            assert_eq!(Log2Histogram::bucket_index(Log2Histogram::bucket_hi(i)), i);
        }
    }

    #[test]
    fn log2_histogram_percentile_hits_nearest_rank_bucket() {
        let samples: Vec<u64> = vec![3, 5, 9, 17, 33, 65, 129, 1025];
        let mut h = Log2Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.total(), samples.len() as u64);
        assert_eq!(h.max(), 1025);
        for &(q, want) in &[(0.0, 3u64), (0.5, 17), (0.99, 1025), (1.0, 1025)] {
            let rank_bucket = Log2Histogram::bucket_index(want);
            let est = h.percentile(q).unwrap();
            assert_eq!(
                Log2Histogram::bucket_index(est),
                rank_bucket,
                "q={q}: estimate {est} not in bucket of nearest-rank sample {want}"
            );
        }
    }

    #[test]
    fn log2_histogram_merge_sums_counts() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(10);
        a.record(100);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.max(), 1000);
        assert!((a.mean().unwrap() - (10.0 + 100.0 + 1000.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(0.1);
        h.add(0.3);
        h.add(0.9);
        h.add(-5.0); // clamped into first bin
        h.add(2.0); // clamped into last bin
        assert_eq!(h.counts(), &[2, 1, 0, 2]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_survival_is_nonincreasing() {
        let mut h = Histogram::new(0.0, 1.0, 5);
        for i in 0..50 {
            h.add(i as f64 / 50.0);
        }
        let s = h.survival();
        for w in s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(s[0], 50);
    }

    #[test]
    fn bin_center_midpoints() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-12);
        assert!((h.bin_center(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mre_basics() {
        let e = mean_relative_error(&[1.1, 2.0], &[1.0, 2.0]);
        assert!((e - 0.05).abs() < 1e-9);
    }
}
