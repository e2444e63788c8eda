//! `bench-trace`: the layer-by-layer traced run of one workload.
//!
//! It first does the untraced wire run (the per-layer list holds wire
//! measurements too: hit ratios, overlap penalties, process counters, the
//! transport residual), then replays part of the same request plan
//! single-threaded in-process, timing each layer's public entry point
//! from outside. This is the only benchmark package that links the
//! engine, and it calls nothing but `pub` functions: a change to those
//! can break the per-layer numbers, never the end-to-end ones.

mod replay;
mod twins;

use bench_wire::workloads::{self, Workload};
use bench_wire::{cli, server::ScratchDir};

fn main() {
    let mut opts = match cli::parse(std::env::args()) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("bench-trace: {why}\nusage: bench-trace {}", cli::USAGE);
            std::process::exit(2);
        }
    };
    opts.traced = true;
    let code = match run(&mut opts) {
        Ok(report) => cli::finish(&opts, &report),
        Err(why) => {
            eprintln!("bench-trace: {} failed: {why}", opts.workload.name());
            1
        }
    };
    std::process::exit(code);
}

fn run(opts: &mut workloads::Opts) -> Result<bench_wire::metrics::Report, String> {
    // Scratch for the in-process durable service, the store twin, and the
    // copy of the killed server's directory; gone when this returns.
    let scratch = ScratchDir::create(
        opts.out_dir
            .join(format!("trace-scratch-{}", std::process::id())),
    )?;
    if opts.workload == Workload::IngestWatch {
        opts.keep_killed_dir = Some(scratch.path().join("killed"));
    }
    let mut report = workloads::run(opts)?;
    let layers = match opts.workload {
        Workload::ColdSweep => replay::cold_sweep(opts, &report)?,
        Workload::WarmSweep | Workload::WideAnswer => replay::sweep(opts, &report)?,
        Workload::IngestWatch => replay::ingest_watch(opts, &report, scratch.path())?,
    };
    report.absorb(layers);
    Ok(report)
}
