//! The §2.2.2 interactive scenario end to end: a user explores a corpus's
//! connectivity structure guided by the Cumulative APSS Graph, instead of
//! sweeping every threshold.
//!
//! ```sh
//! cargo run --release --example interactive_exploration
//! ```

use std::time::Instant;

use plasma_hd::core::apss::{apss, ApssConfig};
use plasma_hd::core::plot;
use plasma_hd::core::StreamingSession;
use plasma_hd::data::datasets::catalog;

fn main() {
    let dataset = catalog::rcv1_like(0.05, 7);
    println!(
        "corpus: {} documents, vocabulary {}, avg {:.0} terms/doc\n",
        dataset.len(),
        dataset.dim,
        dataset.avg_len()
    );
    let cfg = ApssConfig {
        exact_on_accept: true,
        ..ApssConfig::default()
    };

    // --- The guided walk -------------------------------------------------
    let guided_start = Instant::now();
    let mut session = StreamingSession::new(&dataset, cfg);

    println!("step 1: user probes a high threshold (0.9) to see duplicates…");
    let r1 = session.probe(0.9);
    println!(
        "  {} near-duplicate pairs, {:.1}s (sketching {:.1}s of it)",
        r1.pairs.len(),
        r1.seconds,
        r1.sketch_seconds
    );

    let knee = session.suggest_next_threshold().expect("curve built");
    println!("step 2: the cumulative curve shows a knee near t = {knee:.2}; user probes it…");
    let r2 = session.probe(knee);
    println!(
        "  {} pairs, {:.2}s — {} of {} evaluations answered from the knowledge cache",
        r2.pairs.len(),
        r2.seconds,
        r2.cache_hits,
        r2.candidates
    );

    let cue = session.triangle_cue(&r2.pairs);
    let dp = session.density_plot(&r2.pairs);
    println!(
        "step 3: visual cues at t = {knee:.2}: {} triangles, clique density peaks at sizes {:?}",
        cue.total_triangles,
        dp.peaks()
    );
    let guided = guided_start.elapsed().as_secs_f64();

    // --- The brute-force alternative -------------------------------------
    println!(
        "\nbrute force: computing pair counts at every threshold 0.0, 0.1, … 1.0 from scratch…"
    );
    let brute_start = Instant::now();
    for k in 0..=10 {
        let _ = apss(&dataset.records, dataset.measure, k as f64 / 10.0, &cfg);
    }
    let brute = brute_start.elapsed().as_secs_f64();

    println!(
        "\nguided: {guided:.2}s for 2 probes | brute force: {brute:.2}s for 11 probes | saved {:.0}%",
        100.0 * (1.0 - guided / brute)
    );

    // Render the final cumulative curve as ASCII for the terminal.
    let curve = session.curve().expect("probes ran");
    println!("\ncumulative APSS graph (log-ish view):");
    let logs: Vec<f64> = curve.expected.iter().map(|&e| (e + 1.0).log10()).collect();
    print!(
        "{}",
        plot::ascii_chart(&curve.thresholds, &[("log10(pairs)", &logs)], 60, 12)
    );
}
