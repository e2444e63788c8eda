//! The harness's private randomness: splitmix64 and the few
//! distributions the generators need. Nothing here comes from the
//! workspace, so a change to `plasma_data::rng` cannot move a benchmark
//! input.

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full
/// period, and good enough mixing that consecutive seeds give unrelated
/// streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream `stream` of `seed`: the generators give each
    /// corpus, topic and plan its own so that resizing one input leaves
    /// the others byte-identical.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut mixer = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value to return");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller, one value per call).
    pub fn gaussian(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`, rank 0 most probable.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0 && s > 0.0, "Zipf needs ranks and a positive exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability of rank `k`.
    pub fn mass(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }
}

/// `total` draws split over Zipf(s) ranks in exact proportion (largest
/// remainder) and then shuffled. A plan built this way has the Zipf mix
/// on every seed instead of a multinomial sample of it, so the seed moves
/// the order of requests and not how many land on each rung.
pub fn zipf_plan(ranks: usize, s: f64, total: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let zipf = Zipf::new(ranks, s);
    let exact: Vec<f64> = (0..ranks).map(|k| zipf.mass(k) * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let assigned: usize = counts.iter().sum();
    for &k in by_remainder.iter().take(total - assigned) {
        counts[k] += 1;
    }
    let mut plan: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    rng.shuffle(&mut plan);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First three outputs for seed 1234567, from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn streams_differ_and_repeat() {
        let a: Vec<u64> = (0..4)
            .map(|_| SplitMix64::stream(42, 1).next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::stream(42, 1).next_u64(),
            SplitMix64::stream(42, 2).next_u64()
        );
    }

    #[test]
    fn zipf_plan_has_exact_proportions() {
        let plan = zipf_plan(9, 1.1, 600, &mut SplitMix64::new(7));
        assert_eq!(plan.len(), 600);
        let zipf = Zipf::new(9, 1.1);
        for k in 0..9 {
            let got = plan.iter().filter(|&&r| r == k).count() as f64;
            assert!((got - zipf.mass(k) * 600.0).abs() < 1.0, "rank {k}: {got}");
        }
        let again = zipf_plan(9, 1.1, 600, &mut SplitMix64::new(7));
        assert_eq!(plan, again);
        assert_ne!(plan, zipf_plan(9, 1.1, 600, &mut SplitMix64::new(8)));
    }

    #[test]
    fn gaussian_has_unit_scale() {
        let mut rng = SplitMix64::new(3);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            mean.abs() < 0.03 && (var - 1.0).abs() < 0.05,
            "{mean} {var}"
        );
    }
}
