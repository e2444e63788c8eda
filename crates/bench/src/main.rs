//! `repro` — the PLASMA-HD reproduction harness.
//!
//! One subcommand per paper table/figure (see DESIGN.md's experiment
//! index). Usage:
//!
//! ```text
//! repro <experiment-id | all | list | bench | loadgen
//!        | check-bench [PATH] [--against BASELINE]>
//!       [--scale S] [--seed N] [--out DIR] [--json]
//! ```
//!
//! `repro bench` runs the counter snapshot ([`plasma_bench::perf`]), with
//! `--json` also written to `BENCH_apss.json`; `repro loadgen` prints the
//! load harness's counters alone ([`plasma_bench::loadgen`]).
//! `repro check-bench [PATH] [--against BASELINE]` checks a snapshot
//! against the schema and, with `--against`, gates it against the
//! committed baseline, exiting non-zero on drift. `bench` and `loadgen`
//! keep no clock: `benchmark/` times the served stack.

use plasma_bench::experiments::registry;
use plasma_bench::Opts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut command: Option<String> = None;
    let mut snapshot_path: Option<String> = None;
    let mut against: Option<String> = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number in (0, 1]"));
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                i += 1;
                opts.out_dir = args
                    .get(i)
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a directory"));
            }
            "--json" => json = true,
            "--against" => {
                i += 1;
                against = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--against needs a baseline snapshot path")),
                );
            }
            arg if command.is_none() => command = Some(arg.to_string()),
            arg if command.as_deref() == Some("check-bench") && snapshot_path.is_none() => {
                snapshot_path = Some(arg.to_string());
            }
            arg => die(&format!("unexpected argument: {arg}")),
        }
        i += 1;
    }

    let experiments = registry();
    match command.as_deref() {
        None | Some("list") => {
            println!("PLASMA-HD reproduction harness. Experiments:");
            for e in &experiments {
                println!("  {:<10} {}", e.id, e.title);
            }
            println!("  {:<10} run every experiment in order", "all");
            println!(
                "  {:<10} counter snapshot (add --json for BENCH_apss.json)",
                "bench"
            );
            println!(
                "  {:<10} serial load harness: exact serving-stack counters",
                "loadgen"
            );
            println!(
                "  {:<10} validate a BENCH_apss.json against the snapshot schema (--against BASELINE gates counters)",
                "check-bench"
            );
            println!(
                "\noptions: --scale S (default {}), --seed N, --out DIR",
                opts.scale
            );
        }
        Some("bench") => {
            banner("bench", "counter snapshot: every scenario's exact counters");
            let snapshot = plasma_bench::perf::measure(opts.seed);
            print!("{}", plasma_bench::perf::summary(&snapshot));
            if json {
                let path = "BENCH_apss.json";
                let text = plasma_bench::perf::render(&snapshot);
                std::fs::write(path, text).expect("write counter snapshot");
                println!("  [artifact] {path}");
            }
        }
        Some("loadgen") => {
            banner(
                "loadgen",
                "serial load harness: exact serving-stack counters",
            );
            let report = plasma_bench::loadgen::run(opts.seed)
                .unwrap_or_else(|e| die(&format!("loadgen: {e}")));
            print!("{}", report.summary());
        }
        Some("check-bench") => {
            let path = snapshot_path.as_deref().unwrap_or("BENCH_apss.json");
            let json = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            match plasma_bench::perf::validate_snapshot_json(&json) {
                Ok(()) => println!("{path}: schema OK"),
                Err(problems) => {
                    eprintln!("{path}: schema violations:");
                    for p in &problems {
                        eprintln!("  - {p}");
                    }
                    std::process::exit(1);
                }
            }
            if let Some(baseline_path) = against {
                let baseline = std::fs::read_to_string(&baseline_path)
                    .unwrap_or_else(|e| die(&format!("cannot read {baseline_path}: {e}")));
                match plasma_bench::perf::compare_snapshots(&json, &baseline) {
                    Ok(()) => println!("{path}: no regression against {baseline_path}"),
                    Err(problems) => {
                        eprintln!("{path}: regressions against {baseline_path}:");
                        for p in &problems {
                            eprintln!("  - {p}");
                        }
                        std::process::exit(1);
                    }
                }
            }
        }
        Some("all") => {
            let started = std::time::Instant::now();
            for e in &experiments {
                banner(e.id, e.title);
                (e.run)(&opts);
            }
            println!(
                "\nall {} experiments finished in {:.1}s",
                experiments.len(),
                started.elapsed().as_secs_f64()
            );
        }
        Some(id) => match experiments.iter().find(|e| e.id == id) {
            Some(e) => {
                banner(e.id, e.title);
                (e.run)(&opts);
            }
            None => die(&format!("unknown experiment '{id}'; run `repro list`")),
        },
    }
}

fn banner(id: &str, title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("[{id}] {title}");
    println!("{}", "=".repeat(72));
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
