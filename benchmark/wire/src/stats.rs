//! Exact percentiles over kept samples. No histogram buckets: a bucket
//! edge repeating across runs says nothing about the program.

/// Latency samples of one kind, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

impl Samples {
    pub fn new(mut values: Vec<u64>) -> Samples {
        values.sort_unstable();
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`): the smallest sample
    /// with at least `q` of the samples at or below it. Refuses an empty
    /// set; a percentile of nothing is not 0.
    pub fn quantile(&self, q: f64) -> Result<u64, String> {
        if self.sorted.is_empty() {
            return Err("no samples: a percentile of nothing is not reported".to_string());
        }
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        Ok(self.sorted[self.rank(q).clamp(1, self.sorted.len()) - 1])
    }

    /// Nearest rank of `q`; the tolerance keeps `0.95 * 200` at 190 and
    /// not at 191 when the product rounds up in the last bit.
    fn rank(&self, q: f64) -> usize {
        (q * self.sorted.len() as f64 - 1e-9).ceil() as usize
    }

    /// Samples strictly beyond the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.sorted.len().saturating_sub(self.rank(q))
    }

    /// True when at least [`MIN_BEYOND`] samples lie beyond the
    /// `q`-quantile, so that it is a percentile and not the maximum's
    /// neighbour.
    pub fn resolves(&self, q: f64) -> bool {
        self.beyond(q) >= MIN_BEYOND
    }

    /// The highest of p50/p90/p95/p99/p99.9 that [`resolves`](Self::resolves),
    /// as `(q, value)`.
    pub fn highest_resolved(&self) -> Result<(f64, u64), String> {
        let q = [0.999, 0.99, 0.95, 0.9, 0.5]
            .into_iter()
            .find(|&q| self.resolves(q))
            .ok_or_else(|| format!("{} samples resolve no percentile", self.len()))?;
        Ok((q, self.quantile(q)?))
    }

    /// `quantile` in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> Result<f64, String> {
        self.quantile(q).map(|ns| ns as f64 / 1e6)
    }
}

/// Median of a few floats (set-up repeats, restart times).
pub fn median_f64(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err("no values to take a median of".to_string());
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = sorted.len() / 2;
    Ok(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let s = Samples::new((1..=100).rev().collect());
        assert_eq!(s.quantile(0.5), Ok(50));
        assert_eq!(s.quantile(0.95), Ok(95));
        assert_eq!(s.quantile(0.99), Ok(99));
        assert_eq!(s.quantile(1.0), Ok(100));
        assert_eq!(s.quantile(0.001), Ok(1));
        // Not a bucket edge: the sample itself comes back.
        assert_eq!(
            Samples::new(vec![4_194_305, 7, 9]).quantile(1.0),
            Ok(4_194_305)
        );
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let s = Samples::new((0..200).collect());
        assert_eq!(s.beyond(0.95), 10);
        assert!(s.resolves(0.95));
        assert!(!s.resolves(0.99));
        assert!(!Samples::new((0..199).collect()).resolves(0.95));
        assert!(Samples::new((0..1000).collect()).resolves(0.99));
        assert!(!Samples::new((0..999).collect()).resolves(0.99));
        assert_eq!(s.highest_resolved(), Ok((0.95, 189)));
        assert_eq!(
            Samples::new((0..1000).collect())
                .highest_resolved()
                .unwrap()
                .0,
            0.99
        );
        assert!(Samples::new((0..15).collect()).highest_resolved().is_err());
    }

    #[test]
    fn zero_samples_are_refused() {
        let empty = Samples::new(Vec::new());
        assert!(empty.quantile(0.5).is_err());
        assert!(empty.quantile_ms(0.99).is_err());
        assert!(empty.highest_resolved().is_err());
        assert!(median_f64(&[]).is_err());
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median_f64(&[4.0, 1.0]), Ok(2.5));
    }
}
