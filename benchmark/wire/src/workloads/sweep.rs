//! `warm_sweep` and `wide_answer`: Zipf-ranked re-probes of a corpus whose
//! every rung is already memoised. They differ in what a reply costs.
//!
//! `warm_sweep` is the paper's central promise: two analysts share one
//! text corpus, every reply is zero-hash, and memo replay per candidate
//! is the whole cost — sketching, joins and evaluation do nothing, so a
//! kernel gain must not show. Both connections run at `parallelism: 1`
//! (two runnable threads on two cores; default parallelism put four there
//! and the median moved ±15 % between runs), and the warming connection
//! is closed before measuring, as an analyst's first session would be.
//!
//! `wide_answer` sweeps low in dense data — three tight Gaussian clusters
//! — so answers run to a megabyte: encoding the reply and writing it to
//! the socket cost as much as finding it. It shows an encode or transport
//! gain that `warm_sweep`'s small frames hide, and a cache "gain" that
//! bloats frames.

use std::sync::Barrier;

use super::{
    fingerprint_of, health_rtt_us, ladder_truth, repeated_setup, reply_quality, set_memo_bytes,
    set_quality, Client, Measured, Opts, Sizes,
};
use crate::check::{AnswerBook, ProbeObs, LADDER};
use crate::gen::{
    attach_frame, gaussian_clusters, publish_frame, text_corpus, Measure, PublishCfg, Record,
};
use crate::metrics::Report;
use crate::prng::{zipf_plan, SplitMix64};
use crate::server::Server;
use crate::stats::Samples;
use crate::truth::LadderQuality;

/// Zipf exponent of the re-probe mix; rank 0 is the top rung.
pub const ZIPF_S: f64 = 1.1;

/// What distinguishes the two sweeps.
pub struct SweepSpec {
    pub name: &'static str,
    pub records: fn(u64, &Sizes) -> Vec<Record>,
    pub cfg: PublishCfg,
    pub connections: usize,
    pub probes_per_conn: usize,
    /// Warm on a connection that is closed before measuring (otherwise
    /// the measuring connection warms itself).
    pub separate_warming_conn: bool,
    sizes: Sizes,
}

pub fn warm_sweep(sizes: &Sizes) -> SweepSpec {
    SweepSpec {
        name: "warm_sweep",
        records: |seed, sizes| text_corpus(seed, &sizes.warm_text),
        cfg: PublishCfg {
            bands: (32, 8),
            parallelism: Some(1),
        },
        connections: 2,
        probes_per_conn: sizes.warm_probes_per_conn,
        separate_warming_conn: true,
        sizes: *sizes,
    }
}

pub fn wide_answer(sizes: &Sizes) -> SweepSpec {
    SweepSpec {
        name: "wide_answer",
        records: |seed, sizes| gaussian_clusters(seed, &sizes.wide_table),
        cfg: PublishCfg {
            bands: (16, 16),
            parallelism: None,
        },
        connections: 1,
        probes_per_conn: sizes.wide_probes,
        separate_warming_conn: false,
        sizes: *sizes,
    }
}

impl SweepSpec {
    pub fn corpus(&self, seed: u64) -> Vec<Record> {
        (self.records)(seed, &self.sizes)
    }

    pub fn publish_frame(&self, seed: u64) -> String {
        publish_frame(self.name, Measure::Cosine, &self.corpus(seed), &self.cfg)
    }

    /// The thresholds connection `conn` re-probes, in order.
    pub fn plan(&self, seed: u64, conn: usize) -> Vec<f64> {
        let mut rng = SplitMix64::stream(seed, 1000 + conn as u64);
        zipf_plan(LADDER.len(), ZIPF_S, self.probes_per_conn, &mut rng)
            .into_iter()
            .map(|rank| LADDER[rank])
            .collect()
    }
}

/// What set-up leaves behind for the measured phase.
struct Ready {
    server: Server,
    clients: Vec<Client>,
    book: AnswerBook,
    /// The warm pass's reply at each rung, for recall.
    ladder_replies: Vec<(f64, String)>,
    tally: Report,
    /// Publish frame written → `published` read.
    publish_ns: u64,
}

fn set_up(opts: &Opts, spec: &SweepSpec) -> Result<Ready, String> {
    let server = Server::spawn(&opts.server_bin, None)?;
    let frame = spec.publish_frame(opts.seed);
    let mut warming = Client::connect(&server)?;
    let published = warming.must(&frame, "published")?;
    let fingerprint = fingerprint_of(&published.line)?;
    warming.must(&attach_frame(&fingerprint), "attached")?;
    let mut book = AnswerBook::default();
    let mut ladder_replies = Vec::new();
    // Twice down the ladder: the first pass fills the memos, the second
    // must already be zero-hash.
    for pass in 0..2 {
        for &t in &LADDER {
            let Some((obs, reply)) = warming.probe(t)? else {
                continue;
            };
            if let Err(why) = book.check(&obs) {
                warming.tally.violation(why);
            }
            if pass == 1 {
                if !obs.zero_hash() {
                    warming.tally.violation(format!(
                        "warm pass: probe({t}) still compared {} hashes",
                        obs.hashes_compared
                    ));
                }
                ladder_replies.push((t, reply.line));
            }
        }
    }
    let mut clients = Vec::new();
    let mut tally = Report::default();
    if spec.separate_warming_conn {
        tally.absorb(std::mem::take(&mut warming.tally));
        drop(warming);
        // The server reaps a closed connection's two threads within a
        // poll tick (50 ms). Whether the next connection's thread starts
        // before or after that decides whether it inherits the reaped
        // thread's warmed-up allocator arena — 25 MB of resident memory
        // and a fifth of the probe latency either way — so wait it out.
        std::thread::sleep(std::time::Duration::from_millis(250));
    } else {
        clients.push(warming);
    }
    while clients.len() < spec.connections {
        let mut client = Client::connect(&server)?;
        client.must(&attach_frame(&fingerprint), "attached")?;
        clients.push(client);
    }
    Ok(Ready {
        server,
        clients,
        book,
        ladder_replies,
        tally,
        publish_ns: published.latency.as_nanos() as u64,
    })
}

pub fn run(opts: &Opts, spec: &SweepSpec) -> Result<Report, String> {
    let mut report = Report::default();
    // The sweeps write once, in set-up: the publish. One sample a set-up.
    let mut publish_ns = Vec::new();
    let (ready, setup_s) = repeated_setup(spec.sizes.setup_repeats, || {
        let ready = set_up(opts, spec)?;
        publish_ns.push(ready.publish_ns);
        Ok(ready)
    })?;
    let Ready {
        server,
        mut clients,
        mut book,
        ladder_replies,
        tally,
        ..
    } = ready;
    report.set("setup_s", setup_s);
    let publishes = Samples::new(publish_ns);
    report.set_noted(
        "write_ack_p50_ms",
        publishes.quantile_ms(0.5)?,
        format!("publish, n={}", publishes.len()),
    );
    report.absorb(tally);
    report.set(
        "server.transport.health_rtt_us_p50",
        health_rtt_us(&mut clients[0], 50)?,
    );

    let plans: Vec<Vec<f64>> = (0..clients.len())
        .map(|c| spec.plan(opts.seed, c))
        .collect();
    let start = Barrier::new(clients.len() + 1);
    let (measured, per_conn) = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(&plans)
            .map(|(client, plan)| {
                let start = &start;
                scope.spawn(move || -> Result<Vec<(ProbeObs, u64)>, String> {
                    start.wait();
                    let mut seen = Vec::with_capacity(plan.len());
                    for &t in plan {
                        if let Some((obs, reply)) = client.probe(t)? {
                            seen.push((obs, reply.latency.as_nanos() as u64));
                        }
                    }
                    Ok(seen)
                })
            })
            .collect();
        let measured = Measured::begin(&server);
        start.wait();
        let per_conn: Vec<_> = workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "a probing thread panicked".to_string())
                    .and_then(|r| r)
            })
            .collect();
        (measured, per_conn)
    });
    let mut probe_ns = Vec::new();
    let mut reply_bytes = Vec::new();
    let (mut hits, mut candidates) = (0u64, 0u64);
    for seen in per_conn {
        for (obs, latency) in seen? {
            if let Err(why) = book.check(&obs) {
                report.violation(why);
            }
            if !obs.zero_hash() {
                report.violation(format!(
                    "re-probe({}) was not answered from memos: {} hashes, {} hits of {} candidates",
                    obs.threshold, obs.hashes_compared, obs.cache_hits, obs.candidates
                ));
            }
            probe_ns.push(latency);
            reply_bytes.push(obs.reply_bytes as u64);
            hits += obs.cache_hits;
            candidates += obs.candidates;
        }
    }
    let ops = probe_ns.len();
    measured?.finish(&mut report, probe_ns, ops)?;
    report.set(
        "server.protocol.reply_bytes_p50",
        Samples::new(reply_bytes).quantile(0.5)? as f64,
    );
    report.set(
        "core.cache.hit_ratio",
        hits as f64 / candidates.max(1) as f64,
    );
    set_memo_bytes(&mut clients[0], &mut report)?;

    let truth = ladder_truth(&spec.corpus(opts.seed), Measure::Cosine);
    let mut quality = LadderQuality::default();
    for (t, line) in &ladder_replies {
        quality.absorb(*t, reply_quality(&truth, *t, line)?);
    }
    set_quality(&mut report, &quality);
    for client in clients {
        report.absorb(client.tally);
    }
    drop(server);
    Ok(report)
}
