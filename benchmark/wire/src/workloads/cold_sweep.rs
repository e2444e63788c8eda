//! `cold_sweep`: time to first answers on a dataset the server has never
//! seen. One connection, closed loop; every session publishes a fresh
//! corpus, attaches, probes the ladder downwards and detaches. Sketching,
//! the first banded join and fresh pair evaluation do nearly all the
//! work; the memo cache starts empty each session, so a cache-read gain
//! must not show here.

use std::time::Instant;

use super::{
    fingerprint_of, health_rtt_us, ladder_truth, repeated_setup, reply_quality, set_quality,
    Client, Measured, Opts, Sizes,
};
use crate::check::{AnswerBook, LADDER};
use crate::frame::Fields;
use crate::gen::{
    attach_frame, publish_frame, text_corpus, verb_frame, Measure, PublishCfg, Record,
};
use crate::metrics::Report;
use crate::prng::SplitMix64;
use crate::server::Server;
use crate::stats::Samples;
use crate::truth::LadderQuality;

/// `parallelism` is left unset: a first look at new data uses every core.
pub const CFG: PublishCfg = PublishCfg {
    bands: (32, 8),
    parallelism: None,
};

/// The corpus of session `s`: its own stream of the run's seed.
pub fn session_records(seed: u64, s: usize, sizes: &Sizes) -> Vec<Record> {
    text_corpus(
        SplitMix64::stream(seed, 100 + s as u64).next_u64(),
        &sizes.cold_text,
    )
}

pub fn session_publish_frame(seed: u64, s: usize, sizes: &Sizes) -> String {
    publish_frame(
        &format!("cold-{s}"),
        Measure::Cosine,
        &session_records(seed, s, sizes),
        &CFG,
    )
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let sizes = Sizes::of(opts);
    let mut report = Report::default();
    let ((server, frames), setup_s) = repeated_setup(sizes.setup_repeats, || {
        let server = Server::spawn(&opts.server_bin, None)?;
        let frames: Vec<String> = (0..sizes.cold_sessions)
            .map(|s| session_publish_frame(opts.seed, s, &sizes))
            .collect();
        Ok((server, frames))
    })?;
    report.set("setup_s", setup_s);

    let mut client = Client::connect(&server)?;
    report.set(
        "server.transport.health_rtt_us_p50",
        health_rtt_us(&mut client, 50)?,
    );

    let mut probe_ns = Vec::new();
    let mut session_ns = Vec::new();
    let mut publish_ns = Vec::new();
    let mut reply_bytes = Vec::new();
    let (mut hits, mut candidates) = (0u64, 0u64);
    // Reply lines of the sessions whose answers are held against truth.
    let mut kept: Vec<Vec<(f64, String)>> = Vec::new();
    let measured = Measured::begin(&server)?;
    for (s, frame) in frames.iter().enumerate() {
        let started = Instant::now();
        let published = client.must(frame, "published")?;
        publish_ns.push(published.latency.as_nanos() as u64);
        let fields = Fields::parse(&published.line)?;
        if fields.uint("records") != Some(sizes.cold_text.docs as u64)
            || fields.uint("epoch") != Some(0)
        {
            client.tally.violation(format!(
                "session {s}: publish reply does not describe the corpus sent"
            ));
        }
        client.must(&attach_frame(&fingerprint_of(&published.line)?), "attached")?;
        let mut book = AnswerBook::default();
        let mut lines = Vec::new();
        for &t in &LADDER {
            let Some((obs, reply)) = client.probe(t)? else {
                continue;
            };
            if let Err(why) = book.check(&obs) {
                client.tally.violation(why);
            }
            if obs.epoch != 0 {
                client.tally.violation(format!(
                    "session {s}: a corpus nobody ingests into is at epoch {}",
                    obs.epoch
                ));
            }
            probe_ns.push(reply.latency.as_nanos() as u64);
            reply_bytes.push(obs.reply_bytes as u64);
            hits += obs.cache_hits;
            candidates += obs.candidates;
            if s < sizes.cold_truth_sessions {
                lines.push((t, reply.line));
            }
        }
        client.must(&verb_frame("detach"), "detached")?;
        session_ns.push(started.elapsed().as_nanos() as u64);
        if s < sizes.cold_truth_sessions {
            kept.push(lines);
        }
    }
    let ops = probe_ns.len();
    measured.finish(&mut report, probe_ns, ops)?;
    let publishes = Samples::new(publish_ns);
    report.set_noted(
        "write_ack_p50_ms",
        publishes.quantile_ms(0.5)?,
        format!("publish, n={}", publishes.len()),
    );
    let sessions = Samples::new(session_ns);
    report.set_noted(
        "wire.session_p50_ms",
        sessions.quantile_ms(0.5)?,
        format!("n={}", sessions.len()),
    );
    report.set(
        "server.protocol.reply_bytes_p50",
        Samples::new(reply_bytes).quantile(0.5)? as f64,
    );
    report.set(
        "core.cache.hit_ratio",
        hits as f64 / candidates.max(1) as f64,
    );

    let mut quality = LadderQuality::default();
    for (s, lines) in kept.iter().enumerate() {
        let truth = ladder_truth(&session_records(opts.seed, s, &sizes), Measure::Cosine);
        for (t, line) in lines {
            quality.absorb(*t, reply_quality(&truth, *t, line)?);
        }
    }
    set_quality(&mut report, &quality);
    report.absorb(client.tally);
    drop(server);
    Ok(report)
}
