//! Property tests for the PLASMA-HD engine: session/curve invariants that
//! must hold for arbitrary clustered data and probe sequences.

use proptest::prelude::*;

use plasma_core::apss::{apss, ApssConfig};
use plasma_core::cues;
use plasma_core::StreamingSession;
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::similarity::Similarity;

fn spec(n: usize, k: usize, sep: f64, seed: u64) -> Vec<plasma_data::vector::SparseVector> {
    GaussianSpec {
        separation: sep,
        spread: 0.8,
        ..GaussianSpec::new("prop", n, 6, k.max(1))
    }
    .generate(seed)
    .records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cumulative_curve_is_monotone_nonincreasing(
        n in 20usize..70,
        k in 1usize..5,
        sep in 1.0f64..5.0,
        seed in 0u64..50
    ) {
        let records = spec(n, k, sep, seed);
        let mut session =
            StreamingSession::from_records(records, Similarity::Cosine, ApssConfig::default());
        let r = session.probe(0.7);
        for w in r.curve.expected.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-6, "curve increased: {} -> {}", w[0], w[1]);
        }
        for sd in &r.curve.std_dev {
            prop_assert!(*sd >= 0.0 && sd.is_finite());
        }
    }

    #[test]
    fn reprobe_finds_superset_at_lower_threshold(
        n in 20usize..60,
        seed in 0u64..50
    ) {
        let records = spec(n, 3, 4.0, seed);
        let cfg = ApssConfig {
            exact_on_accept: true,
            ..ApssConfig::default()
        };
        let mut session = StreamingSession::from_records(records, Similarity::Cosine, cfg);
        let high = session.probe(0.85);
        let low = session.probe(0.55);
        let high_pairs: std::collections::HashSet<(u32, u32)> =
            high.pairs.iter().map(|p| (p.i, p.j)).collect();
        let low_pairs: std::collections::HashSet<(u32, u32)> =
            low.pairs.iter().map(|p| (p.i, p.j)).collect();
        // Exact-verified pairs at 0.85 must reappear at 0.55 (same cache,
        // lower bar).
        prop_assert!(
            high_pairs.is_subset(&low_pairs),
            "lost {} pairs on re-probe",
            high_pairs.difference(&low_pairs).count()
        );
    }

    #[test]
    fn probe_stats_are_internally_consistent(
        n in 10usize..50,
        t in 0.3f64..0.95,
        seed in 0u64..50
    ) {
        let records = spec(n, 2, 3.0, seed);
        let r = apss(&records, Similarity::Cosine, t, &ApssConfig::default());
        prop_assert_eq!(r.stats.candidates as usize, n * (n - 1) / 2);
        prop_assert_eq!(
            r.stats.pruned + r.stats.accepted + r.stats.exhausted,
            r.stats.candidates
        );
        prop_assert_eq!(r.estimates.len() as u64, r.stats.candidates);
        prop_assert!(r.pairs.len() as u64 <= r.stats.accepted + r.stats.exhausted);
    }

    #[test]
    fn triangle_cue_totals_match_graph(
        n in 10usize..50,
        seed in 0u64..50
    ) {
        let records = spec(n, 2, 4.0, seed);
        let r = apss(&records, Similarity::Cosine, 0.6, &ApssConfig::default());
        let g = cues::pairs_to_graph(n, &r.pairs);
        let cue = cues::triangle_cue(&g);
        let per_sum: u64 = cue.per_vertex.iter().map(|&t| t as u64).sum();
        prop_assert_eq!(per_sum, 3 * cue.total_triangles);
        prop_assert_eq!(cue.histogram.iter().sum::<u64>(), n as u64);
        let c = cues::clusterability(&cue);
        prop_assert!((0.0..=1.0).contains(&c));
    }
}
