//! `ingest_watch`: writes beside reads, on a durable server.
//!
//! Two connections share one follower-set corpus (Jaccard, MinHash) served
//! with `--data-dir`. The feeder ingests small batches on an open-loop
//! schedule; the analyst holds four threshold watches and probes on its
//! own open-loop schedule. The same cache, candidate and session layers
//! the sweeps read from are here written to — `extend_batch`, `grow`,
//! delta joins, watch evaluation under the corpus write lock, WAL append
//! and group-commit fsync, background snapshots, pusher wake-ups — so a
//! change that speeds probes by slowing ingest, or the reverse, shows.
//! Every latency is charged from the *scheduled* send. After the measured
//! phase the server is `SIGKILL`ed and restarted on the same directory
//! three times, and must come back with every acked ingest.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use super::{
    fingerprint_of, health_rtt_us, ladder_truth, repeated_setup, reply_quality, set_memo_bytes,
    set_quality, set_tail, Client, Measured, Opts, Sizes, INGEST_BATCH, RESTARTS,
};
use crate::check::{expect_type, AnswerBook, DeltaBook, EpochOrder, ProbeObs, LADDER};
use crate::frame::{is_event_line, parse_pairs, Conn, Fields};
use crate::gen::{
    attach_frame, follower_sets, ingest_frame, probe_frame, publish_frame, watch_frame, Measure,
    PublishCfg, Record,
};
use crate::metrics::Report;
use crate::prng::{zipf_plan, SplitMix64};
use crate::sched::{run_open_loop, Clock, RealClock, Schedule, Sent};
use crate::server::{dir_bytes, snapshot_names, ScratchDir, Server};
use crate::stats::{median_f64, Samples};
use crate::truth::LadderQuality;

pub const CFG: PublishCfg = PublishCfg {
    bands: (32, 2),
    parallelism: Some(1),
};

/// The analyst's standing watches.
pub const WATCHES: [f64; 4] = [0.9, 0.8, 0.7, 0.6];

/// The threshold probed after each restart.
const RESTART_PROBE: f64 = 0.7;

/// Every record of the run: the first `ingest_initial` are published, the
/// rest arrive in batches of [`INGEST_BATCH`].
pub fn all_records(seed: u64, sizes: &Sizes) -> Vec<Record> {
    follower_sets(seed, &sizes.ingest_graph)
}

pub fn initial_publish_frame(records: &[Record], sizes: &Sizes) -> String {
    publish_frame(
        "ingest_watch",
        Measure::Jaccard,
        &records[..sizes.ingest_initial],
        &CFG,
    )
}

/// Batch `i` of the feeder.
pub fn batch<'a>(records: &'a [Record], i: usize, sizes: &Sizes) -> &'a [Record] {
    let from = sizes.ingest_initial + i * INGEST_BATCH;
    &records[from..from + INGEST_BATCH]
}

/// The analyst's probe thresholds, in order.
pub fn probe_plan(seed: u64, sizes: &Sizes) -> Vec<f64> {
    let mut rng = SplitMix64::stream(seed, 2000);
    zipf_plan(
        LADDER.len(),
        super::sweep::ZIPF_S,
        sizes.watch_probes,
        &mut rng,
    )
    .into_iter()
    .map(|rank| LADDER[rank])
    .collect()
}

struct Ready {
    // Declared before `dir`: the server dies before its directory goes.
    server: Server,
    dir: ScratchDir,
    records: Vec<Record>,
    fingerprint: String,
    feeder: Client,
    analyst: Client,
    book: AnswerBook,
    deltas: DeltaBook,
}

fn set_up(opts: &Opts, sizes: &Sizes) -> Result<Ready, String> {
    let dir = ScratchDir::create(opts.out_dir.join(format!("data-{}", std::process::id())))?;
    let server = Server::spawn(&opts.server_bin, Some(dir.path()))?;
    let records = all_records(opts.seed, sizes);
    let mut feeder = Client::connect(&server)?;
    let published = feeder.must(&initial_publish_frame(&records, sizes), "published")?;
    let fingerprint = fingerprint_of(&published.line)?;
    feeder.must(&attach_frame(&fingerprint), "attached")?;
    let mut analyst = Client::connect(&server)?;
    analyst.must(&attach_frame(&fingerprint), "attached")?;
    let mut deltas = DeltaBook::default();
    let mut events = Vec::new();
    for &t in &WATCHES {
        events.extend(analyst.must(&watch_frame(t), "watch_ack")?.events);
    }
    // The ladder once, so the measured probes pay for what ingests add
    // and not for the first look at the published corpus.
    let mut book = AnswerBook::default();
    for &t in &LADDER {
        if let Some((obs, reply)) = analyst.probe(t)? {
            events.extend(reply.events);
            if let Err(why) = book.check(&obs) {
                analyst.tally.violation(why);
            }
        }
    }
    // Each watch answers its registration with the full answer at epoch 0.
    for line in &events {
        let f = expect_type(line, "watch_delta")?;
        let pairs = parse_pairs(f.raw("new_pairs").unwrap_or("[]"))?;
        if let Err(why) = deltas.check(
            f.uint("watch_id").unwrap_or(u64::MAX),
            f.uint("epoch").unwrap_or(u64::MAX),
            &pairs,
        ) {
            analyst.tally.violation(why);
        }
    }
    if events.len() != WATCHES.len() {
        analyst.tally.violation(format!(
            "{} watches registered, {} registration deltas arrived",
            WATCHES.len(),
            events.len()
        ));
    }
    Ok(Ready {
        server,
        dir,
        records,
        fingerprint,
        feeder,
        analyst,
        book,
        deltas,
    })
}

/// Reads lines, stamping each, until `done` says the last expected one is
/// in.
fn read_lines(
    mut conn: Conn,
    clock: &RealClock,
    mut done: impl FnMut(&str) -> bool,
) -> Result<Vec<(u64, String)>, String> {
    let mut lines = Vec::new();
    loop {
        let (line, arrived) = conn
            .read_line()
            .map_err(|e| format!("open-loop read failed: {e}"))?;
        let finished = done(&line);
        lines.push((clock.ns_of(arrived), line));
        if finished {
            return Ok(lines);
        }
    }
}

/// What the open-loop phase recorded, before any of it is interpreted.
struct Recorded {
    ingests_sent: Vec<Sent>,
    ingest_lines: Vec<(u64, String)>,
    probes_sent: Vec<Sent>,
    analyst_lines: Vec<(u64, String)>,
    snapshots_seen: usize,
    /// Bytes of the ingest frames sent.
    ingested_bytes: usize,
}

fn open_loop_phase(ready: &mut Ready, sizes: &Sizes, plan: &[f64]) -> Result<Recorded, String> {
    let ingest_frames: Vec<String> = (0..sizes.ingests)
        .map(|i| ingest_frame(batch(&ready.records, i, sizes)))
        .collect();
    let probe_frames: Vec<String> = plan.iter().map(|&t| probe_frame(t)).collect();
    let feeder_reader = ready
        .feeder
        .conn()
        .split_reader()
        .map_err(|e| e.to_string())?;
    let analyst_reader = ready
        .analyst
        .conn()
        .split_reader()
        .map_err(|e| e.to_string())?;
    let (feeder_writer, analyst_writer) = (ready.feeder.conn(), ready.analyst.conn());
    let expected_deltas = WATCHES.len() * sizes.ingests;
    let known_snapshots: std::collections::BTreeSet<String> =
        snapshot_names(ready.dir.path()).into_iter().collect();

    let clock = RealClock::starting_at(Instant::now());
    let start_ns = clock.now_ns() + 20_000_000;
    let ingest_schedule = Schedule::per_second(start_ns, sizes.ingest_rate);
    // Two independent users are not phase-locked: the analyst starts a
    // fraction of a tick later, and neither rate is a multiple of the other.
    let probe_schedule = Schedule::per_second(
        start_ns + ingest_schedule.interval_ns * 37 / 100,
        sizes.watch_probe_rate,
    );
    let send_err = |e: std::io::Error| format!("open-loop send failed: {e}");

    std::thread::scope(|scope| {
        let clock = &clock;
        let feeder_send = scope.spawn(|| {
            run_open_loop(clock, ingest_schedule, ingest_frames.len(), |i| {
                feeder_writer.send(&ingest_frames[i])
            })
            .map_err(send_err)
        });
        let analyst_send = scope.spawn(|| {
            run_open_loop(clock, probe_schedule, probe_frames.len(), |j| {
                analyst_writer.send(&probe_frames[j])
            })
            .map_err(send_err)
        });
        let feeder_read = scope.spawn(|| {
            let mut left = ingest_frames.len();
            read_lines(feeder_reader, clock, |_| {
                left -= 1;
                left == 0
            })
        });
        let analyst_read = scope.spawn(|| {
            let (mut replies, mut events) = (0, 0);
            read_lines(analyst_reader, clock, |line| {
                if is_event_line(line) {
                    events += 1;
                } else {
                    replies += 1;
                }
                replies >= probe_frames.len() && events >= expected_deltas
            })
        });
        // The main thread has nothing to do but watch the data directory
        // for the background snapshotter's files.
        let mut seen = known_snapshots.clone();
        while !(feeder_read.is_finished() && analyst_read.is_finished()) {
            seen.extend(snapshot_names(ready.dir.path()));
            std::thread::sleep(Duration::from_millis(100));
        }
        let join = |what: &str| format!("the {what} thread panicked");
        Ok(Recorded {
            ingests_sent: feeder_send.join().map_err(|_| join("feeder"))??,
            probes_sent: analyst_send.join().map_err(|_| join("analyst"))??,
            ingest_lines: feeder_read.join().map_err(|_| join("feeder reader"))??,
            analyst_lines: analyst_read.join().map_err(|_| join("analyst reader"))??,
            snapshots_seen: seen.len() - known_snapshots.len(),
            ingested_bytes: ingest_frames.iter().map(String::len).sum(),
        })
    })
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let sizes = Sizes::of(opts);
    let mut report = Report::default();
    let (mut ready, setup_s) = repeated_setup(sizes.setup_repeats, || set_up(opts, &sizes))?;
    report.set("setup_s", setup_s);
    report.set(
        "server.transport.health_rtt_us_p50",
        health_rtt_us(&mut ready.feeder, 50)?,
    );

    let plan = probe_plan(opts.seed, &sizes);
    let disk_before = dir_bytes(ready.dir.path());
    let measured = Measured::begin(&ready.server)?;
    let recorded = open_loop_phase(&mut ready, &sizes, &plan)?;
    report.attempted += (recorded.ingests_sent.len() + recorded.probes_sent.len()) as u64;

    // Ingest receipts, in order: the feeder is the only writer, so ingest
    // `i` makes epoch `i + 1`.
    let mut ack_ns = Vec::new();
    let mut ingest_spans = Vec::new();
    let mut acked = 0u64;
    for (i, ((arrived, line), sent)) in recorded
        .ingest_lines
        .iter()
        .zip(&recorded.ingests_sent)
        .enumerate()
    {
        match expect_type(line, "ingested") {
            Ok(f)
                if f.uint("epoch") == Some(i as u64 + 1)
                    && f.uint("total_records")
                        == Some((sizes.ingest_initial + (i + 1) * INGEST_BATCH) as u64) =>
            {
                acked += 1;
                ack_ns.push(sent.latency_ns(*arrived));
                ingest_spans.push((sent.sent_ns, *arrived));
            }
            Ok(_) => report.violation(format!(
                "ingest {i} was acknowledged with the wrong epoch or size: {line}"
            )),
            Err(why) => report.violation(format!("ingest {i}: {why}")),
        }
    }
    let final_epoch = sizes.ingests as u64;

    // The analyst's lines: probe replies in request order, deltas by epoch.
    let mut probe_ns = Vec::new();
    let (mut overlapped, mut clear) = (Vec::new(), Vec::new());
    let mut reply_bytes = Vec::new();
    let mut order = EpochOrder::default();
    let mut last_delta_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let mut next_probe = 0;
    let (mut hits, mut candidates) = (0u64, 0u64);
    for (arrived, line) in &recorded.analyst_lines {
        if is_event_line(line) {
            let f = expect_type(line, "watch_delta")?;
            let (watch_id, epoch) = (
                f.uint("watch_id").unwrap_or(u64::MAX),
                f.uint("epoch").unwrap_or(u64::MAX),
            );
            let pairs = parse_pairs(f.raw("new_pairs").unwrap_or("[]"))?;
            if let Err(why) = ready.deltas.check(watch_id, epoch, &pairs) {
                report.violation(why);
            }
            let last = last_delta_ns.entry(epoch).or_insert(0);
            *last = (*last).max(*arrived);
            continue;
        }
        let (asked, sent) = (plan[next_probe], recorded.probes_sent[next_probe]);
        next_probe += 1;
        match ProbeObs::parse(line, asked).and_then(|obs| order.check(obs.epoch).map(|()| obs)) {
            Ok(obs) => {
                if let Err(why) = ready.book.check(&obs) {
                    report.violation(why);
                }
                let latency = sent.latency_ns(*arrived);
                probe_ns.push(latency);
                reply_bytes.push(obs.reply_bytes as u64);
                hits += obs.cache_hits;
                candidates += obs.candidates;
                let in_flight = ingest_spans
                    .iter()
                    .any(|&(from, to)| from < *arrived && sent.sent_ns < to);
                if in_flight {
                    &mut overlapped
                } else {
                    &mut clear
                }
                .push(latency);
            }
            Err(why) => report.violation(why),
        }
    }
    for watch_id in 0..WATCHES.len() as u64 {
        let missing = ready.deltas.missing(watch_id, 0..=final_epoch);
        if !missing.is_empty() {
            report.violation(format!(
                "watch {watch_id} delivered no delta for epochs {missing:?}"
            ));
        }
    }
    let mut lag_ns = Vec::new();
    let mut push_lag_ns = Vec::new();
    for (i, sent) in recorded.ingests_sent.iter().enumerate() {
        if let (Some(&last), Some(&ack)) = (last_delta_ns.get(&(i as u64 + 1)), ack_ns.get(i)) {
            lag_ns.push(sent.latency_ns(last));
            push_lag_ns.push(sent.latency_ns(last).saturating_sub(ack));
        }
    }

    let ops = ack_ns.len() + probe_ns.len();
    let wall = measured.finish(&mut report, probe_ns, ops)?;
    // The workload's designed property: the server is busy 0.3–0.7 of the
    // measured wall time (the traced run prints the check).
    let cpu_s = report.get("process.cpu_user_s").unwrap_or(0.0)
        + report.get("process.cpu_sys_s").unwrap_or(0.0);
    report.set("harness.dominant_share", cpu_s / wall.as_secs_f64());
    let (acks, lags) = (Samples::new(ack_ns), Samples::new(lag_ns));
    report.set_noted(
        "write_ack_p50_ms",
        acks.quantile_ms(0.5)?,
        format!("ingest, n={}", acks.len()),
    );
    report.set_noted(
        "wire.watch_lag_p50_ms",
        lags.quantile_ms(0.5)?,
        format!("n={}", lags.len()),
    );
    set_tail(&mut report, "wire.ingest_ack_p99_ms", &acks);
    set_tail(&mut report, "wire.watch_lag_p99_ms", &lags);
    report.set(
        "server.transport.push_lag_ms_p50",
        Samples::new(push_lag_ns).quantile_ms(0.5)?,
    );
    let (overlapped, clear) = (Samples::new(overlapped), Samples::new(clear));
    if !overlapped.is_empty() && !clear.is_empty() {
        report.set_noted(
            "core.streaming.probe_overlap_penalty_ms",
            overlapped.quantile_ms(0.5)? - clear.quantile_ms(0.5)?,
            format!(
                "{} probes overlapped an ingest in flight, {} did not",
                overlapped.len(),
                clear.len()
            ),
        );
    }
    let late: Vec<u64> = recorded
        .ingests_sent
        .iter()
        .chain(&recorded.probes_sent)
        .map(Sent::late_ns)
        .collect();
    report.set(
        "harness.send_late_p99_ms",
        Samples::new(late).quantile_ms(0.99)?,
    );
    report.set(
        "server.protocol.reply_bytes_p50",
        Samples::new(reply_bytes).quantile(0.5)? as f64,
    );
    report.set(
        "core.cache.hit_ratio",
        hits as f64 / candidates.max(1) as f64,
    );
    report.set("wire.snapshots_seen", recorded.snapshots_seen as f64);
    report.set(
        "core.durable.disk_bytes_per_ingested_byte",
        dir_bytes(ready.dir.path()).saturating_sub(disk_before) as f64
            / recorded.ingested_bytes.max(1) as f64,
    );

    // The ladder at the final epoch: the answers recall is measured on,
    // and the ones a restarted server must repeat.
    let truth = ladder_truth(&ready.records, Measure::Jaccard);
    let mut quality = LadderQuality::default();
    for &t in &LADDER {
        if let Some((obs, reply)) = ready.analyst.probe(t)? {
            if let Err(why) = ready.book.check(&obs) {
                report.violation(why);
            }
            if obs.epoch != final_epoch {
                report.violation(format!(
                    "after {final_epoch} ingests the corpus is at epoch {}",
                    obs.epoch
                ));
            }
            quality.absorb(t, reply_quality(&truth, t, &reply.line)?);
        }
    }
    set_quality(&mut report, &quality);
    set_memo_bytes(&mut ready.analyst, &mut report)?;

    let Ready {
        server,
        dir,
        fingerprint,
        feeder,
        analyst,
        book,
        ..
    } = ready;
    report.absorb(feeder.tally);
    report.absorb(analyst.tally);
    let want_records = (sizes.ingest_initial + acked as usize * INGEST_BATCH) as u64;
    let mut ready_ms = Vec::new();
    let mut acked_lost = 0u64;
    server.kill();
    if let Some(copy) = &opts.keep_killed_dir {
        copy_dir(dir.path(), copy)?;
    }
    for restart in 0..RESTARTS {
        let server = Server::spawn(&opts.server_bin, Some(dir.path()))?;
        let mut client = Client::connect(&server)?;
        let attached = client.must(&attach_frame(&fingerprint), "attached")?;
        let f = Fields::parse(&attached.line)?;
        let (records, epoch) = (f.uint("records").unwrap_or(0), f.uint("epoch").unwrap_or(0));
        if records != want_records || epoch != acked {
            acked_lost = acked_lost.max(acked.saturating_sub(epoch)).max(1);
            client.tally.violation(format!(
                "restart {restart}: {acked} ingests were acknowledged ({want_records} records); the server came back at epoch {epoch} with {records}"
            ));
        }
        if let Some((obs, _)) = client.probe(RESTART_PROBE)? {
            ready_ms.push(server.spawned.elapsed().as_secs_f64() * 1e3);
            if book.hash_at(RESTART_PROBE, obs.epoch) != Some(obs.pairs_hash) {
                client.tally.violation(format!(
                    "restart {restart}: probe({RESTART_PROBE}) at epoch {} does not repeat the answer given before the kill",
                    obs.epoch
                ));
            }
        }
        report.absorb(client.tally);
        server.kill();
    }
    report.set_noted(
        "wire.restart_ready_ms",
        median_f64(&ready_ms)?,
        format!("median of {}", ready_ms.len()),
    );
    report.set("wire.acked_lost", acked_lost as f64);
    drop(dir);
    Ok(report)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cannot copy {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(io)?;
        }
    }
    Ok(())
}
