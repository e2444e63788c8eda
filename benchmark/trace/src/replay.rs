//! The traced in-process replays: a plan per workload, every layer's run
//! over it (`twins::replay`), and the per-layer metrics their columns
//! give.
//!
//! Every replay runs a fixed part of the workload's plan. Service A runs
//! it twice — spans off (the clean in-process figure, and the base of
//! `harness.trace_overhead_ratio`) and spans on — and each lower layer
//! once. The span file is written to `out/trace-<workload>.jsonl`.

use std::path::Path;
use std::time::Instant;

use bench_wire::check::LADDER;
use bench_wire::gen::{ingest_frame, verb_frame, watch_frame};
use bench_wire::metrics::Report;
use bench_wire::stats::median_f64;
use bench_wire::workloads::{
    cold_sweep as cold, ingest_watch as iw, sweep as sw, Opts, Sizes, Workload,
};
use plasma_core::durable;
use plasma_core::CacheCapacity;

use crate::twins::{replay, FreshEval, Layers, Op, Published, ServiceRun, Step};

/// A child may exceed its parent by this share of the parent before the
/// request counts against the add-up check. A twin is the same work run
/// again in a later pass, and on the shared 2-core sandbox two runs of the
/// same 15 ms probe differ by 10–30 % now and then, far more than a thin
/// layer's own microseconds; the check is there to catch a twin that does
/// different work, which shows as a multiple. Self times are medians over
/// the replayed requests and do not depend on this allowance.
const TWIN_NOISE: f64 = 0.25;

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    median_f64(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

fn step(conn: usize, op: Op) -> Step {
    Step { conn, op }
}

fn probe(conn: usize, threshold: f64, measured: bool) -> Step {
    step(
        conn,
        Op::Probe {
            threshold,
            measured,
        },
    )
}

/// Op indices of the measured probes.
fn measured_probes(plan: &[Step]) -> Vec<usize> {
    plan.iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.op, Op::Probe { measured: true, .. }))
        .map(|(i, _)| i)
        .collect()
}

fn ops_where(plan: &[Step], pred: impl Fn(&Op) -> bool) -> Vec<usize> {
    plan.iter()
        .enumerate()
        .filter(|(_, s)| pred(&s.op))
        .map(|(i, _)| i)
        .collect()
}

/// The metrics, checks and span file every replay ends with.
fn common(
    opts: &Opts,
    wire: &Report,
    plan: &[Step],
    p: &Layers,
    report: &mut Report,
) -> Result<(), String> {
    let path = opts
        .out_dir
        .join(format!("trace-{}.jsonl", opts.workload.name()));
    p.tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let probes = measured_probes(plan);
    let ms =
        |served: &ServiceRun| median(probes.iter().map(|&op| served.total_ns[op] as f64 / 1e6));
    let (clean_p50, traced_p50) = (ms(&p.clean), ms(&p.served));
    let wire_p50 = wire
        .get("probe_p50_ms")
        .ok_or("the wire run measured no probe_p50_ms")?;
    report.set("harness.inproc_probe_p50_ms", clean_p50);
    report.set(
        "server.transport.probe_residual_ms_p50",
        wire_p50 - clean_p50,
    );
    report.set_noted(
        "harness.trace_overhead_ratio",
        p.served.busy_ns as f64 / p.clean.busy_ns.max(1) as f64,
        format!(
            "service A alone: probe p50 {traced_p50:.3} ms with spans, {clean_p50:.3} ms without"
        ),
    );
    let (encode_ns, bytes) = probes.iter().fold((0u64, 0usize), |(ns, b), &op| {
        (ns + p.served.encode_ns[op], b + p.served.reply_bytes[op])
    });
    report.set(
        "server.protocol.encode_ns_per_byte",
        encode_ns as f64 / bytes.max(1) as f64,
    );
    report.set(
        "core.streaming.probe_self_us",
        median(
            probes
                .iter()
                .map(|&op| (p.sessions.call.ns[op] as f64 - p.caches.probe.ns[op] as f64) / 1e3),
        ),
    );
    report.set(
        "server.handler.probe_self_us",
        median(
            probes
                .iter()
                .map(|&op| (p.served.handle.ns[op] as f64 - p.sessions.call.ns[op] as f64) / 1e3),
        ),
    );
    let publishes = ops_where(plan, |op| matches!(op, Op::Publish(_)));
    report.set(
        "server.handler.publish_ms_p50",
        median(
            publishes
                .iter()
                .map(|&op| p.served.handle.ns[op] as f64 / 1e6),
        ),
    );
    report.set(
        "lsh.sketch.sketch_all_us_per_record",
        median(publishes.iter().map(|&op| {
            p.sketches.sketch_all.ns[op] as f64 / 1e3 / p.sketches.records[op].max(1) as f64
        })),
    );
    let within = p.tracer.children_within_parent_share(TWIN_NOISE);
    report.set("harness.child_within_parent_share", within);
    println!(
        "CHECK children within parent (+{}% twin noise) on {:.1}% of requests (want >= 95%): {}",
        TWIN_NOISE * 100.0,
        within * 100.0,
        if within >= 0.95 { "ok" } else { "NOT MET" }
    );
    println!(
        "CHECK in-process decode+handle+encode p50 {clean_p50:.3} ms <= wire probe_p50_ms {wire_p50:.3} ms: {}",
        if clean_p50 <= wire_p50 { "ok" } else { "NOT MET" }
    );
    println!(
        "spans: {} written to {}",
        p.tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn print_dominance(report: &mut Report, what: &str, share: f64, want: f64) {
    report.set("harness.dominant_share", share);
    println!(
        "DOMINANCE {what}: {:.1}% (designed to be >= {:.0}%): {}",
        share * 100.0,
        want * 100.0,
        if share >= want { "ok" } else { "NOT MET" }
    );
}

/// Frames whose decode cost is reported: bytes in, nanoseconds.
fn decode_ns_per_byte(plan: &[Step], served: &ServiceRun, ops: &[usize]) -> f64 {
    median(ops.iter().map(|&op| match &plan[op].op {
        Op::Publish(frame) | Op::Ingest(frame) => served.decode_ns[op] as f64 / frame.len() as f64,
        _ => 0.0,
    }))
}

/// Sessions of `cold_sweep` replayed: each costs a publish at four layers.
const COLD_REPLAY_SHARE: usize = 4;

pub fn cold_sweep(opts: &Opts, wire: &Report) -> Result<Report, String> {
    let sizes = Sizes::of(opts);
    let mut plan = Vec::new();
    for s in 0..(sizes.cold_sessions / COLD_REPLAY_SHARE).max(1) {
        plan.push(step(
            0,
            Op::Publish(cold::session_publish_frame(opts.seed, s, &sizes)),
        ));
        plan.push(step(0, Op::Attach));
        plan.extend(LADDER.iter().map(|&t| probe(0, t, true)));
        plan.push(step(0, Op::Frame(verb_frame("detach"))));
    }
    let p = replay(&plan, None, true, &[])?;
    let mut report = Report::default();
    common(opts, wire, &plan, &p, &mut report)?;

    let publishes = ops_where(&plan, |op| matches!(op, Op::Publish(_)));
    let firsts: Vec<usize> = publishes.iter().map(|&op| op + 2).collect();
    let fresh: Vec<_> = firsts
        .iter()
        .map(|&op| p.sketches.fresh[op].expect("first probes are evaluated fresh"))
        .collect();
    let total = |f: fn(&FreshEval) -> u64| fresh.iter().map(f).sum::<u64>() as f64;
    report.set(
        "lsh.bayes.eval_ns_per_hash",
        total(|f| f.ns) / total(|f| f.hashes).max(1.0),
    );
    report.set(
        "lsh.bayes.hashes_per_candidate",
        total(|f| f.hashes) / total(|f| f.candidates).max(1.0),
    );
    report.set(
        "lsh.bayes.pruned_share",
        total(|f| f.pruned) / total(|f| f.candidates).max(1.0),
    );
    report.set(
        "lsh.candidates.cold_join_ns_per_candidate",
        median(firsts.iter().map(|&op| {
            p.sketches.join.ns[op] as f64 / p.sketches.join_candidates[op].max(1) as f64
        })),
    );
    let later = measured_probes(&plan)
        .into_iter()
        .filter(|op| !firsts.contains(op));
    report.set(
        "lsh.candidates.warm_fetch_us",
        median(later.map(|op| p.sketches.join.ns[op] as f64 / 1e3)),
    );
    report.set(
        "lsh.candidates.candidates_per_pair",
        median(firsts.iter().map(|&op| {
            p.caches.candidates[op + LADDER.len() - 1] as f64
                / p.caches.pairs[op + LADDER.len() - 1].max(1) as f64
        })),
    );
    report.set(
        "core.cache.publish_ns_per_memo",
        median(firsts.iter().zip(&fresh).map(|(&op, f)| {
            (p.caches.probe.ns[op] as f64 - p.sketches.join.ns[op] as f64 - f.ns as f64)
                / p.caches.memos[op].max(1) as f64
        })),
    );
    report.set(
        "server.protocol.decode_ns_per_byte",
        decode_ns_per_byte(&plan, &p.served, &publishes),
    );
    let session_ms = wire
        .get("wire.session_p50_ms")
        .ok_or("the wire run measured no session time")?;
    let dominant_ms = median(publishes.iter().zip(&fresh).map(|(&op, f)| {
        (p.sketches.sketch_all.ns[op] + p.sketches.join.ns[op + 2] + f.ns) as f64 / 1e6
    }));
    print_dominance(
        &mut report,
        "sketch + cold join + fresh evaluation, of session_p50_ms",
        dominant_ms / session_ms,
        0.6,
    );
    Ok(report)
}

/// Re-probes of a sweep replayed (each runs at four layers).
const SWEEP_REPLAY_PROBES: usize = 120;

pub fn sweep(opts: &Opts, wire: &Report) -> Result<Report, String> {
    let sizes = Sizes::of(opts);
    let spec = if opts.workload == Workload::WarmSweep {
        sw::warm_sweep(&sizes)
    } else {
        sw::wide_answer(&sizes)
    };
    let mut plan = vec![
        step(0, Op::Publish(spec.publish_frame(opts.seed))),
        step(0, Op::Attach),
    ];
    // The same warming the wire run does.
    for _ in 0..2 {
        plan.extend(LADDER.iter().map(|&t| probe(0, t, false)));
    }
    plan.extend(
        spec.plan(opts.seed, 0)
            .into_iter()
            .take(SWEEP_REPLAY_PROBES)
            .map(|t| probe(0, t, true)),
    );
    let p = replay(&plan, None, false, &[])?;
    let mut report = Report::default();
    common(opts, wire, &plan, &p, &mut report)?;

    let probes = measured_probes(&plan);
    let hashed = probes
        .iter()
        .filter(|&&op| p.caches.hashes_compared[op] != 0)
        .count();
    if hashed > 0 {
        report.violation(format!(
            "{hashed} in-process re-probes compared hashes; every one should replay memos"
        ));
    }
    let cache_self =
        |op: usize| p.caches.probe.ns[op].saturating_sub(p.sketches.join.ns[op]) as f64;
    report.set(
        "core.cache.warm_probe_ns_per_candidate",
        median(
            probes
                .iter()
                .map(|&op| cache_self(op) / p.caches.candidates[op].max(1) as f64),
        ),
    );
    report.set(
        "lsh.candidates.warm_fetch_us",
        median(probes.iter().map(|&op| p.sketches.join.ns[op] as f64 / 1e3)),
    );
    report.set(
        "server.protocol.decode_ns_per_byte",
        decode_ns_per_byte(&plan, &p.served, &[0]),
    );
    if opts.workload == Workload::WarmSweep {
        let cache_ns: f64 = probes.iter().map(|&op| cache_self(op)).sum();
        let probe_ns: f64 = probes.iter().map(|&op| p.served.total_ns[op] as f64).sum();
        print_dominance(
            &mut report,
            "core.cache self time, of in-process probe time",
            cache_ns / probe_ns.max(1.0),
            0.6,
        );
    } else {
        let wire_p50 = wire.get("probe_p50_ms").unwrap_or(f64::NAN);
        let encode_p50_ms = median(probes.iter().map(|&op| p.served.encode_ns[op] as f64 / 1e6));
        let residual = report
            .get("server.transport.probe_residual_ms_p50")
            .unwrap_or(0.0);
        print_dominance(
            &mut report,
            "encode + transport residual, of probe_p50_ms",
            (encode_p50_ms + residual) / wire_p50,
            0.4,
        );
    }
    Ok(report)
}

/// Share of `ingest_watch`'s two schedules replayed.
const INGEST_REPLAY_SHARE: usize = 3;

pub fn ingest_watch(opts: &Opts, wire: &Report, scratch: &Path) -> Result<Report, String> {
    let sizes = Sizes::of(opts);
    let records = iw::all_records(opts.seed, &sizes);
    let (feeder, analyst) = (0, 1);
    let mut plan = vec![
        step(
            feeder,
            Op::Publish(iw::initial_publish_frame(&records, &sizes)),
        ),
        step(feeder, Op::Attach),
        step(analyst, Op::Attach),
    ];
    plan.extend(
        iw::WATCHES
            .iter()
            .map(|&t| step(analyst, Op::Frame(watch_frame(t)))),
    );
    plan.extend(LADDER.iter().map(|&t| probe(analyst, t, false)));
    // The first part of both schedules, merged by due time.
    let (ingests, probes) = (
        (sizes.ingests / INGEST_REPLAY_SHARE).max(1),
        (sizes.watch_probes / INGEST_REPLAY_SHARE).max(1),
    );
    let thresholds = iw::probe_plan(opts.seed, &sizes);
    let mut due: Vec<(f64, Step)> = (0..ingests)
        .map(|i| {
            (
                i as f64 / sizes.ingest_rate,
                step(
                    feeder,
                    Op::Ingest(ingest_frame(iw::batch(&records, i, &sizes))),
                ),
            )
        })
        .chain((0..probes).map(|j| {
            (
                (j as f64 + 0.37) / sizes.watch_probe_rate,
                probe(analyst, thresholds[j], true),
            )
        }))
        .collect();
    due.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    plan.extend(due.into_iter().map(|(_, s)| s));

    let mut p = replay(&plan, Some(scratch), false, &iw::WATCHES)?;
    let stores = p
        .stores
        .take()
        .expect("a durable replay runs the store layer");
    let (syncs_per_ack, snapshot_write_ms) = stores.finish(&mut p.tracer, plan.len())?;
    let unwatched = p
        .unwatched
        .take()
        .expect("a watched replay runs the unwatched session");
    let mut report = Report::default();
    common(opts, wire, &plan, &p, &mut report)?;

    let ops = ops_where(&plan, |op| matches!(op, Op::Ingest(_)));
    let per_record = |ns: &[u64]| {
        median(
            ops.iter()
                .map(|&op| ns[op] as f64 / 1e3 / p.sketches.records[op].max(1) as f64),
        )
    };
    let us = |ns: &[u64]| median(ops.iter().map(|&op| ns[op] as f64 / 1e3));
    report.set(
        "lsh.sketch.extend_batch_us_per_record",
        per_record(&p.sketches.extend.ns),
    );
    report.set(
        "lsh.candidates.delta_join_us_per_record",
        per_record(&p.sketches.delta_join.ns),
    );
    report.set(
        "lsh.candidates.warm_fetch_us",
        median(
            measured_probes(&plan)
                .iter()
                .map(|&op| p.sketches.join.ns[op] as f64 / 1e3),
        ),
    );
    report.set("core.cache.grow_us", us(&p.caches.grow.ns));
    report.set(
        "core.streaming.ingest_self_us",
        median(ops.iter().map(|&op| {
            (unwatched.call.ns[op] as f64
                - p.sketches.extend.ns[op] as f64
                - p.caches.grow.ns[op] as f64)
                / 1e3
        })),
    );
    let notify_ns = |op: usize| p.sessions.call.ns[op].saturating_sub(unwatched.call.ns[op]);
    report.set(
        "core.watch.notify_us_per_ingest",
        median(ops.iter().map(|&op| notify_ns(op) as f64 / 1e3)),
    );
    let delta_pairs: u64 = ops.iter().map(|&op| p.sessions.delta_pairs[op]).sum();
    report.set(
        "core.watch.notify_ns_per_delta_pair",
        ops.iter().map(|&op| notify_ns(op)).sum::<u64>() as f64 / delta_pairs.max(1) as f64,
    );
    report.set(
        "core.watch.delta_pairs_per_ingest",
        delta_pairs as f64 / ops.len() as f64,
    );
    report.set("core.durable.log_ingest_us", us(&stores.log.ns));
    report.set("core.durable.wait_durable_us", us(&stores.wait.ns));
    report.set("core.durable.syncs_per_ack", syncs_per_ack);
    report.set("core.durable.snapshot_write_ms", snapshot_write_ms);
    report.set(
        "server.handler.ingest_self_us",
        median(ops.iter().map(|&op| {
            (p.served.handle.ns[op] as f64
                - p.sessions.call.ns[op] as f64
                - stores.log.ns[op] as f64
                - stores.wait.ns[op] as f64)
                / 1e3
        })),
    );
    report.set(
        "server.protocol.decode_ns_per_byte",
        decode_ns_per_byte(&plan, &p.served, &ops),
    );

    // `durable::recover` on the copy of the directory the wire run's
    // server was killed on.
    let killed = scratch.join("killed");
    let corpus_dir = std::fs::read_dir(&killed)
        .map_err(|e| {
            format!(
                "no copy of the killed server's directory at {}: {e}",
                killed.display()
            )
        })?
        .flatten()
        .map(|e| e.path())
        .find(|path| path.is_dir())
        .ok_or("the killed server's directory holds no corpus")?;
    let Op::Publish(publish) = &plan[0].op else {
        unreachable!("the plan starts with its publish")
    };
    let corpus = Published::decode(publish)?;
    let start = Instant::now();
    let recovered = durable::recover(
        &corpus_dir,
        corpus.measure,
        corpus.cfg,
        CacheCapacity::unbounded(),
    )
    .map_err(|e| format!("recover refused the killed server's directory: {e}"))?;
    report.set(
        "core.durable.recover_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    if recovered.epoch != sizes.ingests as u64 {
        report.violation(format!(
            "recover came back at epoch {}; the server had acknowledged {}",
            recovered.epoch, sizes.ingests
        ));
    }

    let utilisation = wire.get("harness.dominant_share").unwrap_or(f64::NAN);
    let snapshots = wire.get("wire.snapshots_seen").unwrap_or(0.0);
    println!(
        "DOMINANCE server CPU time / wall time {utilisation:.2} (designed to lie in 0.3..0.7): {}; background snapshots seen {snapshots} (want >= 3): {}",
        if (0.3..=0.7).contains(&utilisation) { "ok" } else { "NOT MET" },
        if snapshots >= 3.0 { "ok" } else { "NOT MET" }
    );
    Ok(report)
}
