//! Command line shared by `bench-wire` and `bench-trace`.

use std::path::PathBuf;

use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::workloads::{Opts, Workload};

pub const USAGE: &str =
    "--workload cold_sweep|warm_sweep|wide_answer|ingest_watch --server-bin PATH \
[--seed N] [--smoke] [--out DIR]";

/// Default seed; `BENCHMARK.json`'s runs pass their own.
pub const DEFAULT_SEED: u64 = 42;

pub fn parse(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut workload = None;
    let mut server_bin = None;
    let mut opts = Opts {
        workload: Workload::ColdSweep,
        seed: DEFAULT_SEED,
        smoke: false,
        traced: false,
        server_bin: PathBuf::new(),
        out_dir: PathBuf::from("benchmark/out"),
        keep_killed_dir: None,
    };
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--smoke" => opts.smoke = true,
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.server_bin = server_bin.ok_or("--server-bin is required")?;
    Ok(opts)
}

/// Prints every metric as `name value unit`, the violations, and — last —
/// the one-line result object; writes the same object to
/// `out/result-<workload>-<kind>.json`. Returns the process exit code.
pub fn finish(opts: &Opts, report: &Report) -> i32 {
    // Untraced, every end-to-end metric must have been measured; traced,
    // a layer that did no work on the workload reads 0.
    let (kind, table, strict) = if opts.traced {
        ("traced", PER_LAYER, false)
    } else {
        ("untraced", END_TO_END, true)
    };
    println!(
        "# {} ({kind}, seed {}{})",
        opts.workload.name(),
        opts.seed,
        if opts.smoke { ", smoke" } else { "" }
    );
    for line in report.lines() {
        println!("{line}");
    }
    for why in report.violations.iter().take(10) {
        println!("VIOLATION {why}");
    }
    if report.violations.len() > 10 {
        println!("VIOLATION ... and {} more", report.violations.len() - 10);
    }
    match report.result_json(table, strict) {
        Ok(json) => {
            let path = opts
                .out_dir
                .join(format!("result-{}-{kind}.json", opts.workload.name()));
            if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
                .and_then(|()| std::fs::write(&path, format!("{json}\n")))
            {
                eprintln!("cannot write {}: {e}", path.display());
                return 1;
            }
            println!("{json}");
            if report.correct() {
                0
            } else {
                1
            }
        }
        Err(why) => {
            eprintln!("no result: {why}");
            1
        }
    }
}
