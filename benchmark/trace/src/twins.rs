//! Twin states, one per layer, stepped through the plan in turn.
//!
//! Engine outputs are deterministic functions of the operation history,
//! so a twin at a lower layer that is given the same history sees exactly
//! the inputs the layer above passes down. Each layer replays the whole
//! plan against its own public entry points, on state of its own:
//!
//! * **A** — `Request::decode → Connection::handle → Response::encode`
//!   (twice: once with spans off, for what tracing costs);
//! * **B** — `StreamingSession::{probe, ingest, watch}`, holding the
//!   workload's watches; **B′** — the same ingests on a session with no
//!   watches, so that the difference is the watches' share;
//! * **C** — `SharedKnowledgeCache::{probe, grow}`;
//! * **D** — `Sketcher::{sketch_all, extend_batch}`,
//!   `BandBuckets::extend_and_generate`, and a fresh
//!   `BayesLsh::probe_table` evaluation;
//! * **E** — `CorpusStore::{log_ingest, wait_durable, write_snapshot}`.
//!
//! The layers take turns a chunk of requests at a time. Running them one
//! whole pass after another would put minutes between a request at A and
//! the same request at C, and on the shared sandbox identical work takes
//! 10–40 % longer in some minutes than in others: a thin layer's self
//! time (a subtraction) would be that weather. Running them request by
//! request would have each twin evict the next one's memo pool, and every
//! span would read 60 % high. A chunk is long enough that only its first
//! request runs cold and short enough that all layers see the same
//! minute. A span's parent is the span of the same request one layer up.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bench_wire::gen::{attach_frame, probe_frame};
use bench_wire::span::{SpanId, Tracer};
use bench_wire::workloads::fingerprint_of;
use plasma_core::durable::CorpusStore;
use plasma_core::{
    ApssConfig, CandidateStrategy, DurableError, SharedKnowledgeCache, StreamingSession,
    WatchHandle,
};
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::candidates::BandBuckets;
use plasma_lsh::{BayesLsh, LshFamily, PairDecision, SketchSet, Sketcher};
use plasma_server::protocol::fingerprint_parse;
use plasma_server::{Connection, ProbeService, Request, Response};

/// One request of a replay plan.
pub enum Op {
    /// A publish frame: every layer stands its twin of the corpus up.
    Publish(String),
    /// Attach to the corpus last published (service A only).
    Attach,
    /// Any other frame only service A sees: `watch`, `detach`.
    Frame(String),
    /// A probe; `measured` ones feed the per-layer numbers, the others
    /// are the workload's warming.
    Probe { threshold: f64, measured: bool },
    /// An ingest frame.
    Ingest(String),
}

/// A request and the connection of service A it arrives on.
pub struct Step {
    pub conn: usize,
    pub op: Op,
}

/// Requests each layer runs before the next layer takes its turn.
const CHUNK: usize = 16;

/// No span: the op does not reach this layer.
const NONE: SpanId = SpanId::MAX;

/// Runs `f` inside a span; the nanoseconds are the span's (0 with spans
/// off, when only service A's wall time is wanted).
fn timed<T>(
    t: &mut Tracer,
    name: &'static str,
    rid: usize,
    parent: SpanId,
    f: impl FnOnce() -> T,
) -> (T, SpanId, u64) {
    let id = t.begin(name, rid as u32, (parent != NONE).then_some(parent));
    let out = f();
    let ns = t.end(id);
    (out, id, ns)
}

/// What a publish frame says about its corpus, in engine types.
pub struct Published {
    pub records: Vec<SparseVector>,
    pub measure: Similarity,
    pub cfg: ApssConfig,
    pub bands: (usize, usize),
}

impl Published {
    pub fn decode(frame: &str) -> Result<Published, String> {
        match Request::decode(frame) {
            Ok(Request::Publish {
                records,
                measure,
                cfg,
                ..
            }) => {
                let cfg = cfg.to_apss_config();
                let CandidateStrategy::Banded { bands, width } = cfg.candidates else {
                    return Err("the benchmark publishes banded corpora only".to_string());
                };
                Ok(Published {
                    records,
                    measure,
                    cfg,
                    bands: (bands, width),
                })
            }
            _ => Err("not a publish frame".to_string()),
        }
    }

    fn sketcher(&self) -> Sketcher {
        Sketcher::new(
            LshFamily::for_measure(self.measure),
            self.cfg.n_hashes,
            self.cfg.seed,
        )
        .with_parallelism(self.cfg.parallelism)
    }
}

fn ingest_records(frame: &str) -> Result<Vec<SparseVector>, String> {
    match Request::decode(frame) {
        Ok(Request::Ingest { records }) => Ok(records),
        _ => Err("an ingest frame did not decode as one".to_string()),
    }
}

/// One timed call per op: its span (for the layer below to hang its own
/// under) and its nanoseconds.
pub struct Column {
    pub spans: Vec<SpanId>,
    pub ns: Vec<u64>,
}

impl Column {
    fn new(ops: usize) -> Column {
        Column {
            spans: vec![NONE; ops],
            ns: vec![0; ops],
        }
    }

    fn set(&mut self, op: usize, (span, ns): (SpanId, u64)) {
        self.spans[op] = span;
        self.ns[op] = ns;
    }
}

/// A fresh BayesLSH evaluation of a candidate list: no memo is read or
/// written, so this is what pair evaluation alone costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreshEval {
    pub ns: u64,
    pub hashes: u64,
    pub pruned: u64,
    pub candidates: u64,
}

/// Service A: a service, its connections, and its columns.
pub struct ServiceRun {
    conns: Vec<Connection>,
    fingerprint: String,
    pub handle: Column,
    pub decode_ns: Vec<u64>,
    pub encode_ns: Vec<u64>,
    /// Wall time of the whole request, read outside the spans so that it
    /// is measured with spans off too.
    pub total_ns: Vec<u64>,
    pub reply_bytes: Vec<usize>,
    pub busy_ns: u64,
}

impl ServiceRun {
    /// With `data_dir` the service is durable, as `ingest_watch`'s is.
    fn new(plan: &[Step], data_dir: Option<PathBuf>) -> Result<ServiceRun, String> {
        let service = Arc::new(match data_dir {
            Some(dir) => {
                ProbeService::with_data_dir(&dir)
                    .map_err(|e| format!("cannot open {}: {e}", dir.display()))?
                    .0
            }
            None => ProbeService::new(),
        });
        let n = plan.len();
        Ok(ServiceRun {
            conns: (0..=plan.iter().map(|s| s.conn).max().unwrap_or(0))
                .map(|_| Connection::new(service.clone()))
                .collect(),
            fingerprint: String::new(),
            handle: Column::new(n),
            decode_ns: vec![0; n],
            encode_ns: vec![0; n],
            total_ns: vec![0; n],
            reply_bytes: vec![0; n],
            busy_ns: 0,
        })
    }

    /// One frame through the three calls the TCP layer makes per frame.
    fn op(&mut self, t: &mut Tracer, rid: usize, step: &Step) -> Result<(), String> {
        let built;
        let frame: &str = match &step.op {
            Op::Publish(frame) | Op::Frame(frame) | Op::Ingest(frame) => frame,
            Op::Attach => {
                built = attach_frame(&self.fingerprint);
                &built
            }
            Op::Probe { threshold, .. } => {
                built = probe_frame(*threshold);
                &built
            }
        };
        let start = Instant::now();
        let root = t.begin("server.request", rid as u32, None);
        let (request, _, decode_ns) =
            timed(t, "protocol.decode", rid, root, || Request::decode(frame));
        let request = request
            .map_err(|(code, why)| format!("frame did not decode ({}): {why}", code.as_str()))?;
        let (interaction, handle_span, handle_ns) = timed(t, "handler.handle", rid, root, || {
            self.conns[step.conn].handle(request)
        });
        let (reply, _, encode_ns) = timed(t, "protocol.encode", rid, root, || {
            let reply = interaction.response.encode();
            for event in &interaction.events {
                std::hint::black_box(event.encode());
            }
            reply
        });
        t.end(root);
        if matches!(step.op, Op::Ingest(_)) {
            // The pushers' half of an ingest: every other connection's
            // queued deltas, drained and encoded.
            timed(t, "server.push", rid, NONE, || {
                for (c, conn) in self.conns.iter().enumerate() {
                    if c != step.conn {
                        for event in conn.drain_watch_frames() {
                            std::hint::black_box(event.encode());
                        }
                    }
                }
            });
        }
        let total_ns = start.elapsed().as_nanos() as u64;
        if matches!(interaction.response, Response::Error { .. }) {
            return Err(format!(
                "in-process service answered with an error: {reply}"
            ));
        }
        if matches!(step.op, Op::Publish(_)) {
            self.fingerprint = fingerprint_of(&reply)?;
        }
        self.handle.set(rid, (handle_span, handle_ns));
        self.decode_ns[rid] = decode_ns;
        self.encode_ns[rid] = encode_ns;
        self.total_ns[rid] = total_ns;
        self.reply_bytes[rid] = reply.len() + 1;
        self.busy_ns += total_ns;
        Ok(())
    }
}

/// Layers B and B′: a session of its own, with or without watches.
pub struct SessionRun {
    watches: Vec<f64>,
    probes: bool,
    twin: Option<(StreamingSession, Vec<WatchHandle>)>,
    pub call: Column,
    /// Pairs the watches' deltas carried, per ingest op.
    pub delta_pairs: Vec<u64>,
}

impl SessionRun {
    fn new(ops: usize, watches: &[f64], probes: bool) -> SessionRun {
        SessionRun {
            watches: watches.to_vec(),
            probes,
            twin: None,
            call: Column::new(ops),
            delta_pairs: vec![0; ops],
        }
    }

    fn op(
        &mut self,
        t: &mut Tracer,
        rid: usize,
        step: &Step,
        parent: SpanId,
    ) -> Result<(), String> {
        match &step.op {
            Op::Publish(frame) => {
                let corpus = Published::decode(frame)?;
                let cache = Arc::new(SharedKnowledgeCache::new(
                    corpus.sketcher().sketch_all(&corpus.records),
                ));
                let session =
                    StreamingSession::from_records(corpus.records, corpus.measure, corpus.cfg)
                        .with_shared_cache(cache);
                let handles: Vec<WatchHandle> =
                    self.watches.iter().map(|&w| session.watch(w)).collect();
                handles.iter().for_each(|h| drop(h.drain()));
                self.twin = Some((session, handles));
            }
            Op::Probe { threshold, .. } if self.probes => {
                let (session, _) = self.twin.as_mut().ok_or("probe before publish")?;
                let (_, span, ns) = timed(t, "streaming.probe", rid, parent, || {
                    session.probe(*threshold)
                });
                self.call.set(rid, (span, ns));
            }
            Op::Ingest(frame) => {
                let (session, handles) = self.twin.as_mut().ok_or("ingest before publish")?;
                let batch = ingest_records(frame)?;
                let name = if self.probes {
                    "streaming.ingest"
                } else {
                    "streaming.ingest.unwatched"
                };
                let (_, span, ns) = timed(t, name, rid, parent, || session.ingest(&batch));
                self.call.set(rid, (span, ns));
                self.delta_pairs[rid] = handles
                    .iter()
                    .flat_map(|h| h.drain())
                    .map(|d| d.new_pairs.len() as u64)
                    .sum();
            }
            _ => {}
        }
        Ok(())
    }
}

/// Layer C: a cache of its own.
pub struct CacheRun {
    watches: Vec<f64>,
    twin: Option<(Published, Sketcher, SharedKnowledgeCache)>,
    pub probe: Column,
    pub grow: Column,
    pub candidates: Vec<u64>,
    pub hashes_compared: Vec<u64>,
    pub pairs: Vec<usize>,
    /// Memos resident after the op.
    pub memos: Vec<usize>,
}

impl CacheRun {
    fn new(ops: usize, watches: &[f64]) -> CacheRun {
        CacheRun {
            watches: watches.to_vec(),
            twin: None,
            probe: Column::new(ops),
            grow: Column::new(ops),
            candidates: vec![0; ops],
            hashes_compared: vec![0; ops],
            pairs: vec![0; ops],
            memos: vec![0; ops],
        }
    }

    /// A watch evaluates each epoch's new pairs at its threshold when the
    /// ingest lands; the cache has no public entry point for that, so
    /// after each `grow` (and at publish) an *untimed* probe at every
    /// watched threshold leaves the memos as the served cache's watches
    /// leave them.
    fn op(
        &mut self,
        t: &mut Tracer,
        rid: usize,
        step: &Step,
        parent: SpanId,
    ) -> Result<(), String> {
        match &step.op {
            Op::Publish(frame) => {
                let corpus = Published::decode(frame)?;
                let sketcher = corpus.sketcher();
                let cache = SharedKnowledgeCache::new(sketcher.sketch_all(&corpus.records));
                for &w in &self.watches {
                    cache.probe(&corpus.records, corpus.measure, w, &corpus.cfg);
                }
                self.twin = Some((corpus, sketcher, cache));
            }
            Op::Probe { threshold, .. } => {
                let (corpus, _, cache) = self.twin.as_mut().ok_or("probe before publish")?;
                let (result, span, ns) = timed(t, "cache.probe", rid, parent, || {
                    cache.probe(&corpus.records, corpus.measure, *threshold, &corpus.cfg)
                });
                self.probe.set(rid, (span, ns));
                self.candidates[rid] = result.stats.candidates;
                self.hashes_compared[rid] = result.stats.hashes_compared;
                self.pairs[rid] = result.pairs.len();
                self.memos[rid] = cache.memory_stats().entries;
            }
            Op::Ingest(frame) => {
                let (corpus, sketcher, cache) =
                    self.twin.as_mut().ok_or("ingest before publish")?;
                let batch = ingest_records(frame)?;
                let mut grown = (*cache.sketches()).clone();
                sketcher.extend_batch(&batch, &mut grown);
                let (_, span, ns) = timed(t, "cache.grow", rid, parent, || cache.grow(grown));
                self.grow.set(rid, (span, ns));
                corpus.records.extend(batch);
                for &w in &self.watches {
                    cache.probe(&corpus.records, corpus.measure, w, &corpus.cfg);
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Layer D: sketches and band buckets of its own.
pub struct SketchRun {
    with_fresh_eval: bool,
    twin: Option<(Published, Sketcher, SketchSet, BandBuckets, bool)>,
    pub sketch_all: Column,
    pub records: Vec<usize>,
    pub extend: Column,
    pub join: Column,
    pub join_candidates: Vec<usize>,
    pub delta_join: Column,
    /// For the first probe of each corpus.
    pub fresh: Vec<Option<FreshEval>>,
}

impl SketchRun {
    fn new(ops: usize, with_fresh_eval: bool) -> SketchRun {
        SketchRun {
            with_fresh_eval,
            twin: None,
            sketch_all: Column::new(ops),
            records: vec![0; ops],
            extend: Column::new(ops),
            join: Column::new(ops),
            join_candidates: vec![0; ops],
            delta_join: Column::new(ops),
            fresh: vec![None; ops],
        }
    }

    /// `parent` is the span one layer up (A's for a publish, C's for a
    /// probe, B′'s for an ingest); the delta join an ingest makes
    /// possible hangs under `watched`, B's span, because in the served
    /// corpus it is the watches that pay for it.
    fn op(
        &mut self,
        t: &mut Tracer,
        rid: usize,
        step: &Step,
        parent: SpanId,
        watched: SpanId,
    ) -> Result<(), String> {
        match &step.op {
            Op::Publish(frame) => {
                let corpus = Published::decode(frame)?;
                let sketcher = corpus.sketcher();
                let (sketches, span, ns) = timed(t, "sketch.sketch_all", rid, parent, || {
                    sketcher.sketch_all(&corpus.records)
                });
                self.sketch_all.set(rid, (span, ns));
                self.records[rid] = corpus.records.len();
                let buckets = BandBuckets::new(corpus.bands.0, corpus.bands.1);
                self.twin = Some((corpus, sketcher, sketches, buckets, false));
            }
            Op::Probe { threshold, .. } => {
                let (corpus, _, sketches, buckets, probed) =
                    self.twin.as_mut().ok_or("probe before publish")?;
                let (candidates, span, ns) = timed(t, "candidates.join", rid, parent, || {
                    buckets.extend_and_generate(sketches)
                });
                self.join.set(rid, (span, ns));
                self.join_candidates[rid] = candidates.len();
                if self.with_fresh_eval && !*probed {
                    let engine =
                        BayesLsh::new(LshFamily::for_measure(corpus.measure), corpus.cfg.bayes);
                    let ((hashes, pruned), _, ns) = timed(t, "bayes.evaluate", rid, parent, || {
                        let mut table = engine.probe_table(*threshold);
                        let (mut hashes, mut pruned) = (0u64, 0u64);
                        for &(i, j) in candidates.iter() {
                            let estimate = table.evaluate_pair(sketches, i as usize, j as usize);
                            hashes += u64::from(estimate.hashes);
                            pruned += u64::from(estimate.decision == PairDecision::Pruned);
                        }
                        (hashes, pruned)
                    });
                    self.fresh[rid] = Some(FreshEval {
                        ns,
                        hashes,
                        pruned,
                        candidates: candidates.len() as u64,
                    });
                }
                *probed = true;
            }
            Op::Ingest(frame) => {
                let (_, sketcher, sketches, buckets, _) =
                    self.twin.as_mut().ok_or("ingest before publish")?;
                let batch = ingest_records(frame)?;
                self.records[rid] = batch.len();
                let (_, span, ns) = timed(t, "sketch.extend_batch", rid, parent, || {
                    sketcher.extend_batch(&batch, sketches)
                });
                self.extend.set(rid, (span, ns));
                let (_, span, ns) = timed(t, "candidates.delta_join", rid, watched, || {
                    buckets.extend_and_generate(sketches)
                });
                self.delta_join.set(rid, (span, ns));
            }
            _ => {}
        }
        Ok(())
    }
}

/// Layer E: a durable store of its own.
pub struct StoreRun {
    dir: PathBuf,
    twin: Option<(Published, Sketcher, SketchSet, CorpusStore, u64)>,
    pub log: Column,
    pub wait: Column,
}

impl StoreRun {
    fn new(ops: usize, dir: PathBuf) -> StoreRun {
        StoreRun {
            dir,
            twin: None,
            log: Column::new(ops),
            wait: Column::new(ops),
        }
    }

    fn op(
        &mut self,
        t: &mut Tracer,
        rid: usize,
        step: &Step,
        parent: SpanId,
    ) -> Result<(), String> {
        let durable = |e: DurableError| e.to_string();
        match &step.op {
            Op::Publish(frame) => {
                let corpus = Published::decode(frame)?;
                let sketcher = corpus.sketcher();
                let sketches = sketcher.sketch_all(&corpus.records);
                // Any fingerprint serves: the twin store is never recovered.
                let fingerprint =
                    fingerprint_parse(&format!("{:032x}", rid + 1)).expect("32 hex digits");
                let store = CorpusStore::open(&self.dir, fingerprint).map_err(durable)?;
                // A publish writes the epoch-0 snapshot before serving.
                store
                    .write_snapshot(&corpus.records, &sketches)
                    .map_err(durable)?;
                self.twin = Some((corpus, sketcher, sketches, store, 0));
            }
            Op::Ingest(frame) => {
                let (corpus, sketcher, sketches, store, epoch) =
                    self.twin.as_mut().ok_or("ingest before publish")?;
                let batch = ingest_records(frame)?;
                *epoch += 1;
                let start_record = corpus.records.len();
                let (mark, span, ns) = timed(t, "durable.log_ingest", rid, parent, || {
                    store.log_ingest(*epoch, start_record, &batch)
                });
                self.log.set(rid, (span, ns));
                let mark = mark.map_err(durable)?;
                let (synced, span, ns) = timed(t, "durable.wait_durable", rid, parent, || {
                    store.wait_durable(mark)
                });
                self.wait.set(rid, (span, ns));
                synced.map_err(durable)?;
                sketcher.extend_batch(&batch, sketches);
                corpus.records.extend(batch);
            }
            _ => {}
        }
        Ok(())
    }

    /// `(syncs per acked append, milliseconds of one write_snapshot at
    /// final size)`.
    pub fn finish(&self, t: &mut Tracer, rid: usize) -> Result<(f64, f64), String> {
        let Some((corpus, _, sketches, store, _)) = &self.twin else {
            return Ok((0.0, 0.0));
        };
        let stats = store.sync_stats();
        let (written, _, ns) = timed(t, "durable.write_snapshot", rid, NONE, || {
            store.write_snapshot(&corpus.records, sketches)
        });
        written.map_err(|e| e.to_string())?;
        Ok((
            stats.syncs as f64 / stats.acked_appends.max(1) as f64,
            ns as f64 / 1e6,
        ))
    }
}

/// Every layer's run over one plan.
pub struct Layers {
    pub tracer: Tracer,
    /// Service A with spans off.
    pub clean: ServiceRun,
    pub served: ServiceRun,
    pub sessions: SessionRun,
    /// B′; only when the workload has watches.
    pub unwatched: Option<SessionRun>,
    pub caches: CacheRun,
    pub sketches: SketchRun,
    /// E; only when the served corpus is durable.
    pub stores: Option<StoreRun>,
}

/// Ops of a plan's head that a discarded run of service A executes first.
const WARM_UP_OPS: usize = 40;

/// Replays `plan` at every layer, the layers taking turns a chunk at a
/// time. With `scratch` service A is durable and layer E runs; with
/// `watches` the session twin holds them and B′ runs the ingests alone.
pub fn replay(
    plan: &[Step],
    scratch: Option<&Path>,
    with_fresh_eval: bool,
    watches: &[f64],
) -> Result<Layers, String> {
    let dir = |name: &str| scratch.map(|d| d.join(name));
    let n = plan.len();
    // A fresh process pays for its first page faults and heap growth;
    // whichever layer ran first would be charged for them. The head of the
    // plan, run once and thrown away, pays instead.
    let mut warm_up = ServiceRun::new(plan, dir("served-warm-up"))?;
    for (rid, step) in plan.iter().enumerate().take(WARM_UP_OPS) {
        warm_up.op(&mut Tracer::new(false), rid, step)?;
    }
    drop(warm_up);

    let mut off = Tracer::new(false);
    let mut l = Layers {
        tracer: Tracer::new(true),
        clean: ServiceRun::new(plan, dir("served-clean"))?,
        served: ServiceRun::new(plan, dir("served"))?,
        sessions: SessionRun::new(n, watches, true),
        unwatched: (!watches.is_empty()).then(|| SessionRun::new(n, &[], false)),
        caches: CacheRun::new(n, watches),
        sketches: SketchRun::new(n, with_fresh_eval),
        stores: dir("store-twin").map(|d| StoreRun::new(n, d)),
    };
    let t = &mut l.tracer;
    for chunk in (0..n).collect::<Vec<_>>().chunks(CHUNK) {
        for &rid in chunk {
            l.clean.op(&mut off, rid, &plan[rid])?;
        }
        for &rid in chunk {
            l.served.op(t, rid, &plan[rid])?;
        }
        for &rid in chunk {
            l.sessions
                .op(t, rid, &plan[rid], l.served.handle.spans[rid])?;
        }
        if let Some(unwatched) = &mut l.unwatched {
            for &rid in chunk {
                unwatched.op(t, rid, &plan[rid], l.sessions.call.spans[rid])?;
            }
        }
        // Below the session: a probe hangs under B's span, an ingest
        // under B′'s when there is one (what is left of B's is then the
        // watches' share).
        let below_session = |rid: usize| match (&plan[rid].op, &l.unwatched) {
            (Op::Ingest(_), Some(unwatched)) => unwatched.call.spans[rid],
            _ => l.sessions.call.spans[rid],
        };
        for &rid in chunk {
            l.caches.op(t, rid, &plan[rid], below_session(rid))?;
        }
        for &rid in chunk {
            let parent = match plan[rid].op {
                Op::Publish(_) => l.served.handle.spans[rid],
                Op::Probe { .. } => l.caches.probe.spans[rid],
                _ => below_session(rid),
            };
            l.sketches
                .op(t, rid, &plan[rid], parent, l.sessions.call.spans[rid])?;
        }
        if let Some(stores) = &mut l.stores {
            for &rid in chunk {
                stores.op(t, rid, &plan[rid], l.served.handle.spans[rid])?;
            }
        }
    }
    Ok(l)
}
