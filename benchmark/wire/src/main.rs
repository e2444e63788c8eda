//! `bench-wire`: one untraced wire run of one workload; prints the
//! end-to-end metrics.

use bench_wire::{cli, workloads};

fn main() {
    let opts = match cli::parse(std::env::args()) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("bench-wire: {why}\nusage: bench-wire {}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let code = match workloads::run(&opts) {
        Ok(report) => cli::finish(&opts, &report),
        Err(why) => {
            eprintln!("bench-wire: {} failed: {why}", opts.workload.name());
            1
        }
    };
    std::process::exit(code);
}
