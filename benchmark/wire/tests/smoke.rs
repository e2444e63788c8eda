//! `run.sh --smoke`: every workload at tiny sizes, untraced then traced,
//! against the real `plasma-serve`, end to end. The first run builds the
//! server and the harness in release mode; after that the suite itself
//! takes seconds.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_suite_runs_green_end_to_end() {
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new("bash")
        .arg(benchmark.join("run.sh"))
        .arg("--smoke")
        .output()
        .expect("bash runs run.sh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "run.sh --smoke failed\n--- stdout\n{stdout}\n--- stderr\n{stderr}"
    );
    assert!(!stdout.contains("VIOLATION"), "{stdout}");

    let results = std::fs::read_to_string(benchmark.join("out/results.json"))
        .expect("run.sh writes out/results.json");
    for workload in ["cold_sweep", "warm_sweep", "wide_answer", "ingest_watch"] {
        for kind in ["untraced", "traced"] {
            let key = format!("\"{workload}-{kind}\": {{\"correct\": true,");
            assert!(
                results.contains(&key),
                "results.json lacks a correct {workload} {kind} result:\n{results}"
            );
        }
    }
    for workload in ["cold_sweep", "warm_sweep", "wide_answer", "ingest_watch"] {
        assert!(
            benchmark
                .join(format!("out/trace-{workload}.jsonl"))
                .exists(),
            "no span file for {workload}"
        );
    }

    // The wall time is the host's to decide; the budget is 20 s.
    if let Some(line) = stdout.lines().find(|l| l.starts_with("suite: ")) {
        println!("smoke {line}");
    }
}
