//! Quickstart: probe a dataset's similarity structure in a few lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use plasma_hd::core::apss::ApssConfig;
use plasma_hd::core::StreamingSession;
use plasma_hd::data::datasets::catalog;

fn main() {
    // 1. Get a dataset. The catalog ships seeded synthetic stand-ins for
    //    the paper's evaluation data; `wine_like` matches UCI wine's shape
    //    (178 records × 13 attributes, 3 classes).
    let dataset = catalog::wine_like(42);
    println!(
        "dataset: {} ({} records, {} dims, measure {})",
        dataset.name,
        dataset.len(),
        dataset.dim,
        dataset.measure.name()
    );

    // 2. Open an interactive session and probe at a similarity threshold.
    let mut session = StreamingSession::new(&dataset, ApssConfig::default());
    let report = session.probe(0.8);
    println!(
        "probe(0.8): {} similar pairs in {:.1} ms ({} candidates, {} pruned early)",
        report.pairs.len(),
        report.seconds * 1e3,
        report.candidates,
        report.pruned
    );

    // 3. The probe estimated the whole threshold spectrum, not just 0.8 —
    //    that is the Cumulative APSS Graph.
    println!("\ncumulative APSS estimates (pairs with similarity ≥ t):");
    for (k, &t) in report.curve.thresholds.iter().enumerate() {
        if k % 3 == 0 {
            println!(
                "  t = {t:.2}: {:8.0} ± {:.0}",
                report.curve.expected[k], report.curve.std_dev[k]
            );
        }
    }

    // 4. Let the system suggest where to look next (the curve's knee)...
    let next = session.suggest_next_threshold().expect("curve exists");
    println!("\nsuggested next threshold (knee): {next:.2}");

    // 5. ...probe there — cheap, thanks to the knowledge cache — and read
    //    the clusterability cues.
    let report2 = session.probe(next);
    let cue = session.triangle_cue(&report2.pairs);
    println!(
        "probe({next:.2}): {} pairs in {:.1} ms ({} answered from cache)",
        report2.pairs.len(),
        report2.seconds * 1e3,
        report2.cache_hits
    );
    println!(
        "triangles: {}, vertices in ≥1 triangle: {:.0}%",
        cue.total_triangles,
        100.0 * plasma_hd::core::cues::clusterability(&cue)
    );
}
