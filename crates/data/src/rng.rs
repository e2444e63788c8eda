//! Seeded randomness helpers.
//!
//! Every experiment in the repository must be reproducible, so all
//! stochastic code paths accept a seed and derive their generators from it
//! here. Gaussian sampling is implemented with the Box–Muller transform
//! (the `rand` crate alone does not ship a normal distribution).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the standard seeded generator used across the workspace.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent stream from a base seed and a stream index.
///
/// Uses SplitMix64-style mixing so that nearby `(seed, stream)` pairs give
/// unrelated generators.
pub fn substream(seed: u64, stream: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// Samples a standard normal deviate via Box–Muller.
pub fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    // Guard u1 away from 0 so ln(u1) is finite.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fisher–Yates shuffle of indices `0..n`, returned as a permutation vector.
pub fn permutation<R: Rng>(rng: &mut R, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// Samples `k` distinct indices from `0..n` without replacement.
///
/// Uses a partial Fisher–Yates when `k` is a large fraction of `n`, and
/// rejection sampling otherwise.
pub fn sample_without_replacement<R: Rng>(rng: &mut R, n: usize, k: usize) -> Vec<u32> {
    assert!(k <= n, "cannot sample {k} items from a population of {n}");
    if k * 3 >= n {
        let mut p = permutation(rng, n);
        p.truncate(k);
        p
    } else {
        let mut seen = std::collections::HashSet::with_capacity(k * 2);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let x = rng.gen_range(0..n) as u32;
            if seen.insert(x) {
                out.push(x);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a: u64 = seeded(7).gen();
        let b: u64 = seeded(7).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn substreams_differ() {
        let a: u64 = substream(7, 0).gen();
        let b: u64 = substream(7, 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = seeded(42);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = seeded(1);
        let mut p = permutation(&mut rng, 100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_without_replacement_distinct() {
        let mut rng = seeded(3);
        for &(n, k) in &[(10usize, 10usize), (1000, 5), (50, 30)] {
            let s = sample_without_replacement(&mut rng, n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k);
            assert!(s.iter().all(|&x| (x as usize) < n));
        }
    }
}
