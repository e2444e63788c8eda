//! The four workloads. Each drives the real `plasma-serve` over loopback
//! TCP with at most two connections, does a *fixed number* of requests
//! (never a fixed duration, so both sides of a later comparison do the
//! same work), checks every reply, and fills a [`Report`].

pub mod cold_sweep;
pub mod ingest_watch;
pub mod sweep;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::check::{expect_type, EpochOrder, ProbeObs, LADDER};
use crate::frame::{parse_pairs, Conn, Fields, Reply};
use crate::gen::{verb_frame, GaussianShape, Measure, Record, SocialShape, TextShape};
use crate::metrics::Report;
use crate::server::{ProcSample, Server};
use crate::stats::{median_f64, Samples};
use crate::truth::{LadderQuality, Quality, Truth, PRECISION_SLACK};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSweep,
    WarmSweep,
    WideAnswer,
    IngestWatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdSweep,
        Workload::WarmSweep,
        Workload::WideAnswer,
        Workload::IngestWatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::WarmSweep => "warm_sweep",
            Workload::WideAnswer => "wide_answer",
            Workload::IngestWatch => "ingest_watch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Tiny sizes: checks the harness end to end in seconds, measures
    /// nothing worth keeping.
    pub smoke: bool,
    /// Set by `bench-trace`: the wire run is the first half of a traced
    /// run, whose result holds no end-to-end metric.
    pub traced: bool,
    pub server_bin: PathBuf,
    /// The benchmark's `out/` directory; scratch data dirs live under it.
    pub out_dir: PathBuf,
    /// Where `ingest_watch` leaves a copy of the killed server's data
    /// directory for the traced run's `durable::recover` timing.
    pub keep_killed_dir: Option<PathBuf>,
}

/// Frozen sizes. The request counts are what a measured phase of 15 s
/// (`BENCHMARK.json`'s `run_seconds`) holds on the 2-core sandbox this was
/// calibrated on (see `benchmark/README.md`).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Times the set-up is done; `setup_s` is their median. Once where
    /// nothing reads it: smoke runs and the traced run.
    pub setup_repeats: usize,
    pub cold_text: TextShape,
    pub cold_sessions: usize,
    /// Sessions whose replies are checked against brute-force truth.
    pub cold_truth_sessions: usize,
    pub warm_text: TextShape,
    pub warm_probes_per_conn: usize,
    pub wide_table: GaussianShape,
    pub wide_probes: usize,
    pub ingest_graph: SocialShape,
    pub ingest_initial: usize,
    pub ingests: usize,
    pub ingest_rate: f64,
    pub watch_probes: usize,
    pub watch_probe_rate: f64,
}

/// Records per ingest.
pub const INGEST_BATCH: usize = 3;

/// `SIGKILL` → restart → verify rounds after `ingest_watch`'s measured
/// phase; `wire.restart_ready_ms` is their median.
pub const RESTARTS: usize = 3;

const TEXT: TextShape = TextShape {
    docs: 0,
    vocab: 4000,
    topics: 8,
    doc_len_mean: 80,
    zipf_s: 1.05,
    near_dup_share: 0.05,
};

const CLUSTERS: GaussianShape = GaussianShape {
    n: 0,
    dim: 8,
    clusters: 3,
    separation: 4.0,
    spread: 0.4,
};

const GRAPH: SocialShape = SocialShape {
    nodes: 0,
    follows_per_node: 20,
    communities: 20,
    homophily: 0.7,
    popularity_s: 0.5,
    clone_share: 0.25,
};

impl Sizes {
    pub fn of(opts: &Opts) -> Sizes {
        let setup_repeats = if opts.smoke || opts.traced { 1 } else { 5 };
        let mut sizes = if opts.smoke {
            Sizes {
                setup_repeats,
                cold_text: TextShape { docs: 150, ..TEXT },
                cold_sessions: 2,
                cold_truth_sessions: 1,
                warm_text: TextShape { docs: 200, ..TEXT },
                warm_probes_per_conn: 20,
                wide_table: GaussianShape { n: 150, ..CLUSTERS },
                wide_probes: 20,
                ingest_graph: GRAPH,
                ingest_initial: 300,
                ingests: 30,
                ingest_rate: 30.0,
                watch_probes: 12,
                watch_probe_rate: 16.0,
            }
        } else {
            Sizes {
                setup_repeats,
                cold_text: TextShape { docs: 1000, ..TEXT },
                cold_sessions: 28,
                cold_truth_sessions: 8,
                warm_text: TextShape { docs: 400, ..TEXT },
                warm_probes_per_conn: 4500,
                wide_table: GaussianShape { n: 400, ..CLUSTERS },
                wide_probes: 2500,
                ingest_graph: GRAPH,
                ingest_initial: 2000,
                ingests: 450,
                ingest_rate: 30.0,
                watch_probes: 900,
                // Not 60: at twice the ingest rate every ingest meets the
                // probes at one fixed phase, and which phase decides the
                // ack latency. At 59 the phase goes round once a second.
                watch_probe_rate: 59.0,
            }
        };
        sizes.ingest_graph.nodes = sizes.ingest_initial + INGEST_BATCH * sizes.ingests;
        sizes
    }
}

/// One connection plus the bookkeeping every request shares.
pub struct Client {
    conn: Conn,
    order: EpochOrder,
    pub tally: Report,
}

impl Client {
    pub fn connect(server: &Server) -> Result<Client, String> {
        Ok(Client {
            conn: Conn::connect(server.addr)
                .map_err(|e| format!("cannot connect to {}: {e}", server.addr))?,
            order: EpochOrder::default(),
            tally: Report::default(),
        })
    }

    pub fn conn(&mut self) -> &mut Conn {
        &mut self.conn
    }

    /// Sends `frame` and returns the reply when it has type `want`. A
    /// transport failure ends the run (`Err`); a reply of another type is
    /// counted as a failed operation (`Ok(None)`).
    pub fn call(&mut self, frame: &str, want: &str) -> Result<Option<Reply>, String> {
        self.tally.attempted += 1;
        let reply = self
            .conn
            .request(frame)
            .map_err(|e| format!("request failed in transport: {e}"))?;
        match expect_type(&reply.line, want) {
            Ok(_) => Ok(Some(reply)),
            Err(why) => {
                self.tally.violation(why);
                Ok(None)
            }
        }
    }

    /// [`call`](Self::call) for flows that cannot go on without the reply.
    pub fn must(&mut self, frame: &str, want: &str) -> Result<Reply, String> {
        match self.call(frame, want)? {
            Some(reply) => Ok(reply),
            None => Err(self.tally.violations.last().cloned().unwrap_or_default()),
        }
    }

    /// One probe: reply parsed, checked, and its epoch held against this
    /// connection's earlier ones.
    pub fn probe(&mut self, threshold: f64) -> Result<Option<(ProbeObs, Reply)>, String> {
        self.tally.attempted += 1;
        let reply = self
            .conn
            .request(&crate::gen::probe_frame(threshold))
            .map_err(|e| format!("probe failed in transport: {e}"))?;
        let checked = ProbeObs::parse(&reply.line, threshold)
            .and_then(|obs| self.order.check(obs.epoch).map(|()| obs));
        match checked {
            Ok(obs) => Ok(Some((obs, reply))),
            Err(why) => {
                self.tally.violation(why);
                Ok(None)
            }
        }
    }
}

/// Runs `setup` `repeats` times, each from nothing, and keeps the last
/// one's product; returns it with the median set-up time.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous server before spawning the next, so two never
        // share the machine.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), median_f64(&times)?))
}

/// Median round trip of the empty `health` verb: the floor under every
/// other latency.
pub fn health_rtt_us(client: &mut Client, rounds: usize) -> Result<f64, String> {
    let frame = crate::gen::verb_frame("health");
    let mut rtts = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        rtts.push(client.must(&frame, "health")?.latency.as_nanos() as u64);
    }
    Ok(Samples::new(rtts).quantile(0.5)? as f64 / 1e3)
}

/// The server's `/proc` counters around a measured phase.
pub struct Measured {
    before: ProcSample,
    started: Instant,
    pid: u32,
}

impl Measured {
    pub fn begin(server: &Server) -> Result<Measured, String> {
        Ok(Measured {
            before: ProcSample::of(server.pid())?,
            started: Instant::now(),
            pid: server.pid(),
        })
    }

    /// Fills the process metrics and the ones every workload derives the
    /// same way. `probes` are the probe latencies, `ops` the operations
    /// server CPU time is divided over.
    pub fn finish(
        self,
        report: &mut Report,
        probes: Vec<u64>,
        ops: usize,
    ) -> Result<Duration, String> {
        let wall = self.started.elapsed();
        let after = ProcSample::of(self.pid)?;
        let cpu_s = after.cpu_s() - self.before.cpu_s();
        let probes = Samples::new(probes);
        report.set_noted(
            "probe_p50_ms",
            probes.quantile_ms(0.5)?,
            format!("n={}", probes.len()),
        );
        let beyond = probes.beyond(0.95);
        let resolved = if probes.resolves(0.95) {
            ""
        } else {
            ", fewer than 10 beyond: not a resolved percentile"
        };
        report.set_noted(
            "wire.probe_p95_ms",
            probes.quantile_ms(0.95)?,
            format!("n={}, {beyond} beyond{resolved}", probes.len()),
        );
        set_tail(report, "wire.probe_p99_ms", &probes);
        report.set("probes_per_s", probes.len() as f64 / wall.as_secs_f64());
        report.set_noted(
            "server_cpu_ms_per_op",
            cpu_s * 1e3 / ops.max(1) as f64,
            format!("ops={ops}"),
        );
        report.set("server_peak_rss_mb", after.peak_rss_mb);
        report.set("process.cpu_user_s", after.user_s - self.before.user_s);
        report.set("process.cpu_sys_s", after.sys_s - self.before.sys_s);
        report.set(
            "process.minor_faults",
            (after.minor_faults - self.before.minor_faults) as f64,
        );
        report.set(
            "process.ctx_switches",
            after.ctx_switches.saturating_sub(self.before.ctx_switches) as f64,
        );
        Ok(wall)
    }
}

/// The fingerprint a `published` reply carries.
pub fn fingerprint_of(published: &str) -> Result<String, String> {
    Ok(Fields::parse(published)?
        .string("fingerprint")
        .ok_or("publish reply has no fingerprint")?
        .to_string())
}

/// Exact truth for every rung of the ladder (and the slack below the
/// lowest that precision allows).
pub fn ladder_truth(records: &[Record], measure: Measure) -> Truth {
    Truth::brute_force(records, measure, LADDER[LADDER.len() - 1] - PRECISION_SLACK)
}

/// Recall and precision counts of one `probe_result` line.
pub fn reply_quality(truth: &Truth, threshold: f64, line: &str) -> Result<Quality, String> {
    let pairs = parse_pairs(Fields::parse(line)?.raw("pairs").unwrap_or("[]"))?;
    Ok(Quality::of_reply(truth, threshold, &pairs))
}

/// `core.cache.memo_bytes_per_candidate` from the attached corpus's
/// `memory_stats`.
pub fn set_memo_bytes(client: &mut Client, report: &mut Report) -> Result<(), String> {
    if let Some(stats) = client.call(&verb_frame("memory_stats"), "memory_stats")? {
        let f = Fields::parse(&stats.line)?;
        let (bytes, entries) = (
            f.uint("memo_bytes").unwrap_or(0),
            f.uint("entries").unwrap_or(0),
        );
        report.set(
            "core.cache.memo_bytes_per_candidate",
            bytes as f64 / entries.max(1) as f64,
        );
    }
    Ok(())
}

/// Sets a `*_p99_ms` metric to the highest percentile the samples
/// resolve (p99 from 1 000 samples up, p95 from 200), and says which.
pub fn set_tail(report: &mut Report, name: &'static str, samples: &Samples) {
    if let Ok((q, tail)) = samples.highest_resolved() {
        let note = format!("n={}, resolved to p{}", samples.len(), q * 100.0);
        report.set_noted(name, tail as f64 / 1e6, note);
    }
}

/// Sets the quality metrics: recall as the mean over the ladder's rungs,
/// precision pooled.
pub fn set_quality(report: &mut Report, ladder: &LadderQuality) {
    let pooled = ladder.pooled();
    report.set_noted(
        "answer_recall",
        ladder.recall(),
        format!(
            "mean over the rungs; pooled, {} of {} relevant pairs",
            pooled.found, pooled.relevant
        ),
    );
    report.set_noted(
        "quality.precision",
        pooled.precision(),
        format!("{} of {} reported pairs", pooled.near, pooled.reported),
    );
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    report.set("harness.loadavg_before", crate::server::loadavg());
    let measured = match opts.workload {
        Workload::ColdSweep => cold_sweep::run(opts)?,
        Workload::WarmSweep => sweep::run(opts, &sweep::warm_sweep(&Sizes::of(opts)))?,
        Workload::WideAnswer => sweep::run(opts, &sweep::wide_answer(&Sizes::of(opts)))?,
        Workload::IngestWatch => ingest_watch::run(opts)?,
    };
    report.absorb(measured);
    report.set(
        "wire.failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(report)
}
