//! The transport-agnostic serving core: `Request -> Response` dispatch.
//!
//! Nothing in this module touches a socket. A [`ProbeService`] holds the
//! published corpora (each a [`plasma_core::StreamingSession`] master
//! multiplexed onto one [`SharedKnowledgeCache`]); a [`Connection`] is
//! one client's view — at most one attached session plus its watches —
//! and [`Connection::handle`] maps each decoded [`Request`] to an
//! [`Interaction`]: one response frame plus any event frames the request
//! produced. The TCP layer ([`crate::server`]), the trace recorder
//! ([`crate::trace`]), and any future framing all drive this same entry
//! point, which is what makes recorded traces replayable across
//! transports.
//!
//! # Panic → error boundary
//!
//! Every refusal the handler gives is decided before the engine runs,
//! so an engine panic is a genuine bug. A server must still outlive
//! one: every engine call sits behind the crate-private `catch_engine`,
//! which turns the panic into an `engine_panic` error frame and keeps
//! the connection serving.
//!
//! # Determinism
//!
//! Everything a response carries is deterministic for a given operation
//! history (timing fields never cross the protocol boundary), and watch
//! deltas produced by a connection's own ingest are drained
//! synchronously inside [`Connection::handle`] — so a sequential script
//! against a fresh service produces one exact frame sequence, which the
//! trace harness pins bit-for-bit against direct library calls.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use plasma_core::durable::{self, CorpusStore};
use plasma_core::{
    CacheCapacity, CacheRegistry, RegistryCapacity, SharedKnowledgeCache, StreamingSession,
    WalSyncStats,
};
use plasma_data::similarity::Similarity;

use crate::persist::{self, CorpusMeta};
use crate::protocol::{
    fingerprint_hex, fingerprint_parse, ErrorCode, PublishCfg, Request, Response,
};

/// One handled request: the response frame plus any event frames it
/// produced (watch registration answers, own-ingest deltas), in delivery
/// order.
#[derive(Debug)]
pub struct Interaction {
    /// The reply to the request.
    pub response: Response,
    /// Event frames to push after the reply, in order.
    pub events: Vec<Response>,
}

impl Interaction {
    fn reply(response: Response) -> Self {
        Interaction {
            response,
            events: Vec::new(),
        }
    }

    fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        Interaction::reply(Response::Error {
            code,
            message: message.into(),
        })
    }
}

/// The per-corpus ingest broadcast. Pushers of connections attached to
/// this corpus block here, and only an ingest adopted *into this corpus*
/// (or a service drain) wakes them. A single service-wide signal — the
/// previous design — woke every pusher on every ingest regardless of
/// corpus, a thundering herd that scaled with corpora × connections and
/// made each wakeup drain nothing; the per-corpus split is the fix, and
/// `wakeups` counts signalled (non-timeout) returns so tests can pin the
/// behaviour.
struct IngestSignal {
    stamp: Mutex<u64>,
    cvar: Condvar,
    wakeups: AtomicU64,
}

impl IngestSignal {
    fn new() -> Self {
        IngestSignal {
            stamp: Mutex::new(0),
            cvar: Condvar::new(),
            wakeups: AtomicU64::new(0),
        }
    }

    fn stamp(&self) -> u64 {
        *self.stamp.lock().expect("ingest signal lock")
    }

    fn bump(&self) {
        *self.stamp.lock().expect("ingest signal lock") += 1;
        self.cvar.notify_all();
    }

    fn notify_all(&self) {
        self.cvar.notify_all();
    }

    /// Blocks until the stamp moves past `seen`, the timeout lapses, or
    /// `draining` turns true; returns the current stamp and whether this
    /// was a signalled wakeup (the stamp moved) rather than a timeout.
    fn wait(&self, seen: u64, timeout: Duration, draining: impl Fn() -> bool) -> (u64, bool) {
        let guard = self.stamp.lock().expect("ingest signal lock");
        let (guard, _) = self
            .cvar
            .wait_timeout_while(guard, timeout, |stamp| *stamp == seen && !draining())
            .expect("ingest signal lock");
        let woken = *guard != seen;
        if woken {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
        }
        (*guard, woken)
    }
}

/// One published corpus: a master streaming session whose forks serve
/// every attached connection, all sharing one knowledge cache and one
/// watch registry.
struct ServedCorpus {
    name: String,
    measure: Similarity,
    /// Forked per attach; also the corpus-wide watch/epoch vantage
    /// point. The mutex guards only fork/inspect — probes and ingests
    /// run on the forks, serialized by the corpus's own record lock.
    master: Mutex<StreamingSession>,
    /// Bumped after every adopted ingest into *this* corpus.
    signal: IngestSignal,
    /// The corpus's durable half (snapshot files + ingest WAL) when the
    /// service runs with a data directory; `None` means volatile.
    store: Option<CorpusStore>,
    /// Serializes engine-mutate + WAL-append (ingest) against
    /// snapshot-write + WAL-truncate (the snapshotter), so a snapshot's
    /// `(records, sketches)` view can never interleave with a
    /// half-persisted ingest. Lock order: `persist` before `master`.
    persist: Mutex<()>,
}

impl ServedCorpus {
    fn new(
        name: String,
        measure: Similarity,
        master: StreamingSession,
        store: Option<CorpusStore>,
    ) -> Self {
        ServedCorpus {
            name,
            measure,
            master: Mutex::new(master),
            signal: IngestSignal::new(),
            store,
            persist: Mutex::new(()),
        }
    }
}

/// One corpus directory's recovery outcome at service boot.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The corpus fingerprint (32 hex digits — also its directory name).
    pub fingerprint: String,
    /// `Ok` with provenance when the corpus is being served warm; `Err`
    /// with the structured refusal otherwise. A refused corpus is
    /// skipped — the service still boots and serves the others.
    pub outcome: Result<RecoveredStats, String>,
}

/// Provenance of one warm-restarted corpus.
#[derive(Debug, Clone)]
pub struct RecoveredStats {
    /// The corpus's publish-time name.
    pub name: String,
    /// Records served after recovery.
    pub records: usize,
    /// Epoch served after recovery (snapshot epoch + replayed entries).
    pub epoch: u64,
    /// WAL entries replayed past the snapshot.
    pub replayed_entries: usize,
    /// True when a torn (never-acked) WAL tail was discarded.
    pub wal_tail_discarded: bool,
}

/// The shared serving state: published corpora over one cache registry.
pub struct ProbeService {
    registry: CacheRegistry,
    corpora: RwLock<BTreeMap<String, Arc<ServedCorpus>>>,
    /// Serializes publishes, so two publishes of one fingerprint never
    /// both build and open its store. A publish holds `corpora` only to
    /// look the fingerprint up and to insert, never across the sketching
    /// or the epoch-0 snapshot, so it stalls no other corpus's verbs.
    publishing: Mutex<()>,
    /// When set, every publish persists (meta + snapshot + WAL) under
    /// `data_dir/<fingerprint>/` and boot recovers what it finds there.
    data_dir: Option<PathBuf>,
    active_sessions: AtomicUsize,
    draining: AtomicBool,
    /// Runs inside every publish's build, so a test can hold a publish
    /// mid-build.
    #[cfg(test)]
    build_hook: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl Default for ProbeService {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeService {
    /// An empty, volatile service.
    pub fn new() -> Self {
        ProbeService {
            registry: CacheRegistry::new(),
            corpora: RwLock::new(BTreeMap::new()),
            publishing: Mutex::new(()),
            data_dir: None,
            active_sessions: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            #[cfg(test)]
            build_hook: Mutex::new(None),
        }
    }

    /// A volatile service whose cache registry enforces `capacity` —
    /// the multi-tenant churn shape: publishes beyond the cap evict
    /// least-recently-used caches from the registry (served corpora keep
    /// their own `Arc`s; see [`CacheRegistry`] eviction semantics).
    pub fn with_registry_capacity(capacity: RegistryCapacity) -> Self {
        ProbeService {
            registry: CacheRegistry::with_capacity(capacity),
            ..ProbeService::new()
        }
    }

    /// Whole caches evicted from the registry over its lifetime — the
    /// churn counter the load harness reports under registry pressure.
    pub fn registry_evictions(&self) -> u64 {
        self.registry.evicted_caches()
    }

    /// Per-corpus WAL group-commit counters `(fingerprint, stats)`,
    /// persisted corpora only. Acked-appends is exact for a quiesced
    /// service; the sync count tells how far concurrent ingests
    /// coalesced (`syncs <= acked_appends` always).
    pub fn wal_sync_stats(&self) -> Vec<(String, WalSyncStats)> {
        let corpora = self.corpora.read().expect("corpora lock");
        corpora
            .iter()
            .filter_map(|(fp, c)| c.store.as_ref().map(|s| (fp.clone(), s.sync_stats())))
            .collect()
    }

    /// A durable service over `dir`: every corpus directory found there
    /// is recovered warm (snapshot + WAL replay through the normal
    /// ingest path) and re-served under its original fingerprint, and
    /// every future publish/ingest persists. Recovery failures are
    /// per-corpus and structured — a corrupt corpus is reported and
    /// skipped, never silently re-served cold.
    pub fn with_data_dir(
        dir: impl Into<PathBuf>,
    ) -> std::io::Result<(ProbeService, Vec<RecoveryReport>)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut service = ProbeService::new();
        service.data_dir = Some(dir.clone());
        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if fingerprint_parse(&name).is_some() {
                names.push(name);
            }
        }
        names.sort();
        let mut reports = Vec::new();
        for name in names {
            let fp = fingerprint_parse(&name).expect("names were filtered");
            let outcome = service.recover_corpus(&dir.join(&name), fp);
            reports.push(RecoveryReport {
                fingerprint: name,
                outcome,
            });
        }
        Ok((service, reports))
    }

    /// Recovers one corpus directory into the service.
    fn recover_corpus(&self, dir: &Path, fp: u128) -> Result<RecoveredStats, String> {
        let meta = persist::read_meta(dir)?;
        let cfg = meta.cfg.to_apss_config();
        let recovered = durable::recover(dir, meta.measure, cfg, CacheCapacity::unbounded())
            .map_err(|e| e.to_string())?;
        if recovered.fingerprint != fp {
            return Err(format!(
                "directory is named {} but its snapshot carries fingerprint {}",
                fingerprint_hex(fp),
                fingerprint_hex(recovered.fingerprint)
            ));
        }
        let store = CorpusStore::open(dir, fp).map_err(|e| e.to_string())?;
        let stats = RecoveredStats {
            name: meta.name.clone(),
            records: recovered.session.len(),
            epoch: recovered.epoch,
            replayed_entries: recovered.replayed_entries,
            wal_tail_discarded: recovered.wal_tail_discarded,
        };
        // Future attaches and re-publishes of the same records find the
        // warm cache by fingerprint, exactly as if this process had
        // built it.
        self.registry.install(fp, recovered.cache);
        self.corpora.write().expect("corpora lock").insert(
            fingerprint_hex(fp),
            Arc::new(ServedCorpus::new(
                meta.name,
                meta.measure,
                recovered.session,
                Some(store),
            )),
        );
        Ok(stats)
    }

    /// The data directory, when the service is durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// True once a drain was requested; the transport stops accepting
    /// and the handler refuses new publishes/attaches.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests a drain and wakes every corpus's ingest-signal waiters
    /// so pusher threads can observe the flag.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let corpora = self.corpora.read().expect("corpora lock");
        for corpus in corpora.values() {
            corpus.signal.notify_all();
        }
    }

    /// Snapshots every persisted corpus whose WAL holds more than
    /// `min_wal_bytes` of entries (beyond the fixed header), truncating
    /// its log. Returns `(fingerprint, snapshot bytes)` per corpus
    /// written. Lock order is persist → master (view only), the same
    /// order ingest uses, so the snapshot view is always a consistent
    /// acked prefix.
    pub fn snapshot_corpora(&self, min_wal_bytes: u64) -> Vec<(String, Result<u64, String>)> {
        let corpora: Vec<(String, Arc<ServedCorpus>)> = {
            let guard = self.corpora.read().expect("corpora lock");
            guard.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let mut out = Vec::new();
        for (fp, corpus) in corpora {
            let Some(store) = &corpus.store else { continue };
            if store.wal_bytes() <= durable::WAL_HEADER_BYTES + min_wal_bytes {
                continue;
            }
            let _persist = corpus.persist.lock().expect("persist lock");
            let view = corpus.master.lock().expect("master lock").persist_view();
            let result = match view {
                Some((records, sketches, _epoch)) => store
                    .write_snapshot(&records, &sketches)
                    .map_err(|e| e.to_string()),
                None => Err("corpus has no cache to snapshot".to_string()),
            };
            out.push((fp, result));
        }
        out
    }

    /// Snapshots every persisted corpus with any logged entries at all
    /// (e.g. at drain, so the next boot needs no WAL replay).
    pub fn snapshot_now(&self) -> Vec<(String, Result<u64, String>)> {
        self.snapshot_corpora(0)
    }

    fn corpus(&self, fingerprint: &str) -> Option<Arc<ServedCorpus>> {
        self.corpora
            .read()
            .expect("corpora lock")
            .get(fingerprint)
            .cloned()
    }

    /// Live attached sessions across all connections.
    pub fn session_count(&self) -> usize {
        self.active_sessions.load(Ordering::SeqCst)
    }

    /// Live watches across all corpora.
    pub fn watch_count(&self) -> usize {
        let corpora = self.corpora.read().expect("corpora lock");
        corpora
            .values()
            .map(|c| c.master.lock().expect("master lock").watch_count())
            .sum()
    }
}

/// The attached session of one connection.
enum SessionKind {
    /// A fork of the corpus master: may probe, ingest, and watch. The
    /// fork shares the corpus records, cache, and watch registry, so the
    /// session alone keeps the served state alive. The corpus handle
    /// carries the ingest signal and durable store this session's
    /// ingests must reach.
    Stream {
        session: StreamingSession,
        corpus: Arc<ServedCorpus>,
    },
    /// A probe-only fork of the corpus master that remembers the epoch
    /// it attached at. Once the corpus grows past that epoch its probes
    /// answer `stale_session` rather than an answer at a newer epoch.
    Pinned {
        session: StreamingSession,
        epoch: u64,
    },
}

struct ConnState {
    session: Option<SessionKind>,
    /// Live watches in registration order, keyed by the
    /// connection-scoped id echoed on delta frames.
    watches: Vec<(u64, plasma_core::WatchHandle)>,
    next_watch_id: u64,
}

/// A pusher thread's position on its connection's corpus ingest signal.
/// Opaque: created by [`Connection::ingest_cursor`], advanced by
/// [`Connection::wait_ingest_signal`]. It remembers which corpus the
/// connection was attached to at the last wait, so a detach/re-attach
/// re-anchors on the new corpus's signal instead of sleeping on a stale
/// stamp.
pub struct IngestCursor {
    corpus: Option<Arc<ServedCorpus>>,
    seen: u64,
}

/// One client's view of the service. The transport owns exactly one per
/// connection and must call [`close`](Connection::close) (or drop) when
/// the peer goes away: that releases the session slot and the watch
/// handles, whose registry entries auto-cancel.
pub struct Connection {
    service: Arc<ProbeService>,
    state: Mutex<ConnState>,
}

impl Connection {
    /// Opens a connection against the service.
    pub fn new(service: Arc<ProbeService>) -> Self {
        Connection {
            service,
            state: Mutex::new(ConnState {
                session: None,
                watches: Vec::new(),
                next_watch_id: 0,
            }),
        }
    }

    /// The service this connection serves.
    pub fn service(&self) -> &Arc<ProbeService> {
        &self.service
    }

    /// Handles one request, returning the response plus any event
    /// frames it produced.
    pub fn handle(&self, request: Request) -> Interaction {
        match request {
            Request::Publish {
                name,
                measure,
                records,
                cfg,
            } => self.handle_publish(name, measure, records, cfg),
            Request::Attach {
                fingerprint,
                pinned,
                declared_measure,
            } => self.handle_attach(&fingerprint, pinned, declared_measure),
            Request::Probe { threshold } => self.handle_probe(threshold),
            Request::Ingest { records } => self.handle_ingest(&records),
            Request::Watch { threshold } => self.handle_watch(threshold),
            Request::Unwatch { watch_id } => self.handle_unwatch(watch_id),
            Request::MemoryStats => self.handle_memory_stats(),
            Request::Health => {
                let status = if self.service.draining() {
                    "draining"
                } else {
                    "ok"
                };
                Interaction::reply(Response::Health {
                    status: status.to_string(),
                    corpora: self.service.corpora.read().expect("corpora lock").len(),
                    sessions: self.service.session_count(),
                    watches: self.service.watch_count(),
                })
            }
            Request::Ready => Interaction::reply(Response::Ready {
                ready: !self.service.draining(),
            }),
            Request::Detach => {
                self.release_session();
                Interaction::reply(Response::Detached)
            }
            Request::Shutdown => {
                self.service.begin_drain();
                Interaction::reply(Response::ShuttingDown)
            }
        }
    }

    fn handle_publish(
        &self,
        name: String,
        measure: Similarity,
        records: Vec<plasma_data::vector::SparseVector>,
        publish_cfg: PublishCfg,
    ) -> Interaction {
        if self.service.draining() {
            return Interaction::error(ErrorCode::Draining, "server is draining");
        }
        let cfg = publish_cfg.to_apss_config();
        let fp_raw = CacheRegistry::fingerprint(&records, measure, &cfg);
        let fp = fingerprint_hex(fp_raw);
        let _publishing = self.service.publishing.lock().expect("publish lock");
        if let Some(existing) = self.service.corpus(&fp) {
            // Idempotent re-publish: answer with the corpus as it stands
            // (it may have grown since the original publish, or been
            // recovered warm from the data directory at boot).
            let master = existing.master.lock().expect("master lock");
            return Interaction::reply(Response::Published {
                fingerprint: fp.clone(),
                records: master.len(),
                epoch: master.epoch(),
            });
        }
        let built = catch_engine(|| {
            #[cfg(test)]
            if let Some(hook) = &*self.service.build_hook.lock().expect("build hook lock") {
                hook();
            }
            let cache = self.service.registry.get_or_build(&records, measure, &cfg);
            StreamingSession::from_records(records, measure, cfg).with_shared_cache(cache)
        });
        match built {
            Ok(master) => {
                // Persist before serving: with a data directory, a corpus
                // that cannot reach disk is refused loudly rather than
                // served volatile.
                let store = match self.open_corpus_store(
                    &fp,
                    fp_raw,
                    &name,
                    measure,
                    &publish_cfg,
                    &master,
                ) {
                    Ok(store) => store,
                    Err(msg) => {
                        return Interaction::error(
                            ErrorCode::EnginePanic,
                            format!("cannot persist corpus: {msg}"),
                        )
                    }
                };
                let response = Response::Published {
                    fingerprint: fp.clone(),
                    records: master.len(),
                    epoch: master.epoch(),
                };
                self.service.corpora.write().expect("corpora lock").insert(
                    fp,
                    Arc::new(ServedCorpus::new(name, measure, master, store)),
                );
                Interaction::reply(response)
            }
            Err(msg) => Interaction::error(ErrorCode::EnginePanic, msg),
        }
    }

    /// Creates (or re-opens) the corpus directory and writes the
    /// publish-time metadata and epoch-0 snapshot; `None` when the
    /// service is volatile.
    fn open_corpus_store(
        &self,
        fp_hex: &str,
        fp: u128,
        name: &str,
        measure: Similarity,
        publish_cfg: &PublishCfg,
        master: &StreamingSession,
    ) -> Result<Option<CorpusStore>, String> {
        let Some(data_dir) = &self.service.data_dir else {
            return Ok(None);
        };
        let dir = data_dir.join(fp_hex);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let meta = CorpusMeta {
            name: name.to_string(),
            measure,
            cfg: publish_cfg.clone(),
        };
        persist::write_meta(&dir, &meta).map_err(|e| e.to_string())?;
        let store = CorpusStore::open(&dir, fp).map_err(|e| e.to_string())?;
        let (records, sketches, _epoch) = master
            .persist_view()
            .ok_or("published corpus has no cache")?;
        store
            .write_snapshot(&records, &sketches)
            .map_err(|e| e.to_string())?;
        Ok(Some(store))
    }

    fn handle_attach(
        &self,
        fingerprint: &str,
        pinned: bool,
        declared_measure: Option<Similarity>,
    ) -> Interaction {
        if self.service.draining() {
            return Interaction::error(ErrorCode::Draining, "server is draining");
        }
        if fingerprint_parse(fingerprint).is_none() {
            return Interaction::error(
                ErrorCode::BadRequest,
                "'fingerprint' must be 32 hex digits",
            );
        }
        let mut state = self.state.lock().expect("connection state lock");
        if state.session.is_some() {
            return Interaction::error(
                ErrorCode::AlreadyAttached,
                "this connection already holds a session; detach first",
            );
        }
        let Some(corpus) = self.service.corpus(fingerprint) else {
            return Interaction::error(
                ErrorCode::UnknownFingerprint,
                format!("no published corpus has fingerprint {fingerprint}"),
            );
        };
        if let Some(declared) = declared_measure.filter(|&m| m != corpus.measure) {
            // Pinned clients already handle this refusal as
            // `engine_panic` naming the hash family; unifying the two
            // codes is a wire change.
            return if pinned {
                Interaction::error(
                    ErrorCode::EnginePanic,
                    format!(
                        "corpus '{}' is sketched for {}; the shared cache hash family \
                         does not serve {}",
                        corpus.name,
                        corpus.measure.name(),
                        declared.name()
                    ),
                )
            } else {
                Interaction::error(
                    ErrorCode::BadRequest,
                    format!(
                        "corpus '{}' was published with a different measure",
                        corpus.name
                    ),
                )
            };
        }
        let session = corpus.master.lock().expect("master lock").fork();
        let (records, epoch) = session.len_and_epoch();
        state.session = Some(if pinned {
            SessionKind::Pinned { session, epoch }
        } else {
            SessionKind::Stream { session, corpus }
        });
        self.service.active_sessions.fetch_add(1, Ordering::SeqCst);
        Interaction::reply(Response::Attached {
            fingerprint: fingerprint.to_string(),
            pinned,
            records,
            epoch,
        })
    }

    fn handle_probe(&self, threshold: f64) -> Interaction {
        let mut state = self.state.lock().expect("connection state lock");
        let (session, pinned_at) = match state.session.as_mut() {
            None => return Interaction::error(ErrorCode::NoSession, "attach to a corpus first"),
            Some(SessionKind::Stream { session, .. }) => (session, None),
            Some(SessionKind::Pinned { session, epoch }) => (session, Some(*epoch)),
        };
        // A pinned session answers only at its attach epoch. The check
        // before the probe saves its work; the one after catches an
        // ingest that landed in between (`report.epoch` is exact).
        let stale = |now: u64| match pinned_at {
            Some(at) if at != now => Some(Interaction::error(
                ErrorCode::StaleSession,
                format!(
                    "pinned session attached at epoch {at} but the corpus is at epoch \
                     {now}; detach and re-attach to re-sync"
                ),
            )),
            _ => None,
        };
        if let Some(refusal) = stale(session.epoch()) {
            return refusal;
        }
        match catch_engine(|| session.probe(threshold)) {
            Ok(report) => match stale(report.epoch) {
                Some(refusal) => refusal,
                None => {
                    let epoch = report.epoch;
                    Interaction::reply(Response::from_probe(report, epoch))
                }
            },
            Err(msg) => Interaction::error(ErrorCode::EnginePanic, msg),
        }
    }

    fn handle_ingest(&self, records: &[plasma_data::vector::SparseVector]) -> Interaction {
        let mut state = self.state.lock().expect("connection state lock");
        match state.session.as_mut() {
            None => Interaction::error(ErrorCode::NoSession, "attach to a corpus first"),
            Some(SessionKind::Pinned { .. }) => Interaction::error(
                ErrorCode::BadRequest,
                "pinned sessions are probe-only; attach with pinned=false to ingest",
            ),
            Some(SessionKind::Stream { session, corpus }) => {
                let corpus = corpus.clone();
                // Engine-mutate + WAL-append is one atomic unit versus
                // the snapshotter (lock order persist → engine), so a
                // snapshot can never capture the in-memory half of an
                // ingest whose log entry hasn't landed.
                let persist = corpus.persist.lock().expect("persist lock");
                let report = match catch_engine(|| session.ingest(records)) {
                    Ok(report) => report,
                    Err(msg) => return Interaction::error(ErrorCode::EnginePanic, msg),
                };
                let mut mark = None;
                if report.records_added > 0 {
                    if let Some(store) = &corpus.store {
                        // Log *before* acking: every acked batch
                        // survives a crash. On failure the batch is in
                        // memory but unacked — the client must treat it
                        // as lost, and the error says a restart will
                        // drop it.
                        let start = report.total_records - report.records_added;
                        match store.log_ingest(report.epoch, start, records) {
                            Ok(m) => mark = Some(m),
                            Err(e) => {
                                return Interaction::error(
                                    ErrorCode::EnginePanic,
                                    format!(
                                        "ingest adopted in memory but its WAL append \
                                         failed (a restart will lose it): {e}"
                                    ),
                                );
                            }
                        }
                    }
                }
                // The log entry is in; the covering fsync needs no
                // snapshotter exclusion. Waiting *outside* the persist
                // lock lets concurrent ingests on this corpus
                // group-commit into one sync (or be subsumed by a
                // snapshot truncation) instead of serializing fsyncs.
                drop(persist);
                if let (Some(mark), Some(store)) = (mark, &corpus.store) {
                    if let Err(e) = store.wait_durable(mark) {
                        return Interaction::error(
                            ErrorCode::EnginePanic,
                            format!(
                                "ingest adopted in memory but its WAL sync \
                                 failed (a restart may lose it): {e}"
                            ),
                        );
                    }
                }
                let response = Response::Ingested {
                    records_added: report.records_added,
                    total_records: report.total_records,
                    epoch: report.epoch,
                    carried_memos: report.carried_memos,
                };
                // Our own watches drain synchronously — the deltas ride
                // right behind the receipt, in registration order,
                // making the frame sequence deterministic for traces.
                // Other connections' pushers on *this corpus* are then
                // woken to drain theirs.
                let events = drain_watches(&mut state);
                if report.records_added > 0 {
                    corpus.signal.bump();
                }
                Interaction { response, events }
            }
        }
    }

    fn handle_watch(&self, threshold: f64) -> Interaction {
        let mut state = self.state.lock().expect("connection state lock");
        match state.session.as_mut() {
            None => Interaction::error(ErrorCode::NoSession, "attach to a corpus first"),
            Some(SessionKind::Pinned { .. }) => Interaction::error(
                ErrorCode::BadRequest,
                "pinned sessions are probe-only; attach with pinned=false to watch",
            ),
            Some(SessionKind::Stream { session, .. }) => {
                match catch_engine(|| session.watch(threshold)) {
                    Ok(handle) => {
                        let watch_id = state.next_watch_id;
                        state.next_watch_id += 1;
                        state.watches.push((watch_id, handle));
                        // The registration delta (the full answer at the
                        // current epoch) is already queued; deliver it
                        // right behind the ack.
                        let events = drain_watches(&mut state);
                        Interaction {
                            response: Response::WatchAck {
                                watch_id,
                                threshold,
                            },
                            events,
                        }
                    }
                    Err(msg) => Interaction::error(ErrorCode::EnginePanic, msg),
                }
            }
        }
    }

    fn handle_unwatch(&self, watch_id: u64) -> Interaction {
        let mut state = self.state.lock().expect("connection state lock");
        if state.session.is_none() {
            return Interaction::error(ErrorCode::NoSession, "attach to a corpus first");
        }
        match state.watches.iter().position(|(id, _)| *id == watch_id) {
            Some(idx) => {
                // Dropping the handle auto-cancels its registry entry;
                // queued-but-undelivered deltas die with it.
                state.watches.remove(idx);
                Interaction::reply(Response::Unwatched { watch_id })
            }
            None => Interaction::error(
                ErrorCode::UnknownWatch,
                format!("this connection has no watch with id {watch_id}"),
            ),
        }
    }

    fn handle_memory_stats(&self) -> Interaction {
        let state = self.state.lock().expect("connection state lock");
        let (scope, stats) = match &state.session {
            Some(SessionKind::Stream { session, .. } | SessionKind::Pinned { session, .. }) => {
                ("corpus", session.shared_cache().into_iter().collect())
            }
            None => {
                let corpora = self.service.corpora.read().expect("corpora lock");
                let caches: Vec<Arc<SharedKnowledgeCache>> = corpora
                    .values()
                    .filter_map(|c| c.master.lock().expect("master lock").shared_cache())
                    .collect();
                ("registry", caches)
            }
        };
        let mut response = Response::MemoryStatsResult {
            scope: scope.to_string(),
            entries: 0,
            memo_bytes: 0,
            sketch_bytes: 0,
            bucket_cache_bytes: 0,
            bucket_build_records: 0,
            cache_hits: 0,
        };
        if let Response::MemoryStatsResult {
            entries,
            memo_bytes,
            sketch_bytes,
            bucket_cache_bytes,
            bucket_build_records,
            cache_hits,
            ..
        } = &mut response
        {
            for cache in stats {
                let s = cache.memory_stats();
                *entries += s.entries;
                *memo_bytes += s.memo_bytes;
                *sketch_bytes += s.sketch_bytes;
                *bucket_cache_bytes += s.bucket_cache_bytes;
                *bucket_build_records += s.bucket_build_records;
                *cache_hits += s.cache_hits;
            }
        }
        Interaction::reply(response)
    }

    /// A fresh cursor for [`wait_ingest_signal`](Self::wait_ingest_signal).
    pub fn ingest_cursor(&self) -> IngestCursor {
        IngestCursor {
            corpus: None,
            seen: 0,
        }
    }

    /// Blocks until the *attached* corpus adopts an ingest, the timeout
    /// lapses, or a drain begins; returns true exactly when the corpus's
    /// signal moved (a signalled wakeup, not a timeout). A connection
    /// without a streaming session sleeps out the timeout — there is
    /// nothing to watch, and no other corpus's ingests can wake it. The
    /// cursor re-anchors itself when the connection switches corpora
    /// (detach/re-attach), returning true once so the caller drains
    /// anything queued in the gap.
    pub fn wait_ingest_signal(&self, cursor: &mut IngestCursor, timeout: Duration) -> bool {
        let attached: Option<Arc<ServedCorpus>> = {
            let state = self.state.lock().expect("connection state lock");
            match &state.session {
                Some(SessionKind::Stream { corpus, .. }) => Some(corpus.clone()),
                _ => None,
            }
        };
        let Some(corpus) = attached else {
            cursor.corpus = None;
            if !self.service.draining() {
                std::thread::sleep(timeout);
            }
            return false;
        };
        let rebase = match &cursor.corpus {
            Some(held) => !Arc::ptr_eq(held, &corpus),
            None => true,
        };
        if rebase {
            cursor.seen = corpus.signal.stamp();
            cursor.corpus = Some(corpus);
            return true;
        }
        let (stamp, woken) = corpus
            .signal
            .wait(cursor.seen, timeout, || self.service.draining());
        cursor.seen = stamp;
        woken
    }

    /// Event frames other connections' ingests have queued on this
    /// connection's watches, in watch-registration order. The transport's
    /// pusher calls this when the attached corpus's ingest signal fires.
    pub fn drain_watch_frames(&self) -> Vec<Response> {
        let mut state = self.state.lock().expect("connection state lock");
        drain_watches(&mut state)
    }

    /// Live watches on this connection.
    pub fn watch_count(&self) -> usize {
        self.state
            .lock()
            .expect("connection state lock")
            .watches
            .len()
    }

    /// Drops the session and every watch (auto-cancelling their registry
    /// entries). Idempotent; called by the transport on peer disconnect.
    pub fn close(&self) {
        self.release_session();
    }

    fn release_session(&self) {
        let mut state = self.state.lock().expect("connection state lock");
        state.watches.clear();
        if state.session.take().is_some() {
            self.service.active_sessions.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

fn drain_watches(state: &mut ConnState) -> Vec<Response> {
    let mut events = Vec::new();
    for (watch_id, handle) in &state.watches {
        for delta in handle.drain() {
            events.push(Response::WatchDeltaEvent {
                watch_id: *watch_id,
                delta,
            });
        }
    }
    events
}

/// Runs an engine call, converting a panic (a genuine bug: every
/// refusal is decided before the engine runs) into its message. Guards
/// (mutexes) must be acquired *outside* the closure so an unwinding
/// engine call cannot poison them.
fn catch_engine<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked with a non-string payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PublishCfg;
    use plasma_data::vector::SparseVector;

    fn corpus(n: usize) -> Vec<SparseVector> {
        (0..n)
            .map(|i| {
                SparseVector::from_pairs(vec![
                    ((i % 7) as u32, 1.0),
                    ((i % 5 + 10) as u32, 0.5),
                    ((i % 3 + 20) as u32, 2.0),
                ])
            })
            .collect()
    }

    fn publish(conn: &Connection, n: usize) -> String {
        let outcome = conn.handle(Request::Publish {
            name: "t".into(),
            measure: Similarity::Jaccard,
            records: corpus(n),
            cfg: PublishCfg {
                parallelism: Some(1),
                ..PublishCfg::default()
            },
        });
        match outcome.response {
            Response::Published { fingerprint, .. } => fingerprint,
            other => panic!("publish failed: {}", other.encode()),
        }
    }

    #[test]
    fn publish_attach_probe_round_trip() {
        let service = Arc::new(ProbeService::new());
        let conn = Connection::new(service.clone());
        let fp = publish(&conn, 24);
        let attached = conn.handle(Request::Attach {
            fingerprint: fp.clone(),
            pinned: false,
            declared_measure: None,
        });
        assert!(matches!(attached.response, Response::Attached { .. }));
        let probed = conn.handle(Request::Probe { threshold: 0.5 });
        match probed.response {
            Response::ProbeResult { epoch, .. } => assert_eq!(epoch, 0),
            other => panic!("probe failed: {}", other.encode()),
        }
        assert_eq!(service.session_count(), 1);
        conn.close();
        assert_eq!(service.session_count(), 0);
    }

    #[test]
    fn a_publish_mid_build_stalls_no_other_corpus() {
        let service = Arc::new(ProbeService::new());
        let fp = publish(&Connection::new(service.clone()), 16);
        let (entered, at_build) = std::sync::mpsc::channel();
        let (release, held) = std::sync::mpsc::channel::<()>();
        let held = Mutex::new(held);
        *service.build_hook.lock().unwrap() = Some(Box::new(move || {
            entered.send(()).unwrap();
            held.lock().unwrap().recv().unwrap();
        }));
        std::thread::scope(|s| {
            let publisher = s.spawn(|| publish(&Connection::new(service.clone()), 24));
            at_build.recv().unwrap();
            // The second publish is now held inside its build. Verbs on
            // the first corpus, and registry-wide ones, must still finish.
            let (done, finished) = std::sync::mpsc::channel();
            let (service, fp) = (&service, &fp);
            s.spawn(move || {
                let reader = Connection::new(service.clone());
                let attached = reader.handle(Request::Attach {
                    fingerprint: fp.clone(),
                    pinned: false,
                    declared_measure: None,
                });
                let corpus_stats = reader.handle(Request::MemoryStats);
                let idle = Connection::new(service.clone());
                let registry_stats = idle.handle(Request::MemoryStats);
                let health = idle.handle(Request::Health);
                done.send((attached, corpus_stats, registry_stats, health))
                    .unwrap();
            });
            // Only a deadlock reaches the timeout; it then releases the
            // publish so the test fails instead of hanging.
            let outcome = finished.recv_timeout(Duration::from_secs(60));
            release.send(()).unwrap();
            let (attached, corpus_stats, registry_stats, health) =
                outcome.expect("verbs on another corpus blocked behind a publish's build");
            assert!(matches!(attached.response, Response::Attached { .. }));
            for (stats, want) in [(corpus_stats, "corpus"), (registry_stats, "registry")] {
                match stats.response {
                    Response::MemoryStatsResult { scope, .. } => assert_eq!(scope, want),
                    other => panic!("memory_stats failed: {}", other.encode()),
                }
            }
            match health.response {
                Response::Health { corpora, .. } => assert_eq!(corpora, 1),
                other => panic!("health failed: {}", other.encode()),
            }
            assert_ne!(publisher.join().unwrap(), *fp);
        });
        assert_eq!(service.corpora.read().unwrap().len(), 2);
    }

    #[test]
    fn publish_is_idempotent_by_fingerprint() {
        let service = Arc::new(ProbeService::new());
        let conn = Connection::new(service);
        let fp1 = publish(&conn, 16);
        let fp2 = publish(&conn, 16);
        assert_eq!(fp1, fp2);
        assert_eq!(
            conn.service().corpora.read().expect("corpora lock").len(),
            1
        );
    }

    #[test]
    fn stale_pinned_probe_is_a_structured_error() {
        let service = Arc::new(ProbeService::new());
        let writer = Connection::new(service.clone());
        let fp = publish(&writer, 16);
        writer.handle(Request::Attach {
            fingerprint: fp.clone(),
            pinned: false,
            declared_measure: None,
        });
        let reader = Connection::new(service);
        reader.handle(Request::Attach {
            fingerprint: fp,
            pinned: true,
            declared_measure: None,
        });
        // Grow the corpus under the pinned reader.
        writer.handle(Request::Ingest { records: corpus(4) });
        let outcome = reader.handle(Request::Probe { threshold: 0.5 });
        match outcome.response {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::StaleSession),
            other => panic!("expected stale_session, got {}", other.encode()),
        }
        // The connection survives and can re-attach.
        reader.handle(Request::Detach);
        let again = reader.handle(Request::Probe { threshold: 0.5 });
        match again.response {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSession),
            other => panic!("expected no_session, got {}", other.encode()),
        }
    }

    #[test]
    fn measure_mismatch_surfaces_engine_guard() {
        let service = Arc::new(ProbeService::new());
        let conn = Connection::new(service);
        let fp = publish(&conn, 12);
        let outcome = conn.handle(Request::Attach {
            fingerprint: fp,
            pinned: true,
            declared_measure: Some(Similarity::Cosine),
        });
        match outcome.response {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::EnginePanic);
                assert!(message.contains("hash family"), "{message}");
            }
            other => panic!("expected engine_panic, got {}", other.encode()),
        }
    }

    fn attach(conn: &Connection, fingerprint: &str, pinned: bool) -> (usize, u64) {
        let attached = conn.handle(Request::Attach {
            fingerprint: fingerprint.to_string(),
            pinned,
            declared_measure: None,
        });
        match attached.response {
            Response::Attached { records, epoch, .. } => (records, epoch),
            other => panic!("attach failed: {}", other.encode()),
        }
    }

    #[test]
    fn pinned_attach_and_probe_race_an_ingest() {
        const INITIAL: usize = 12;
        const BATCH: usize = 2;
        const ROUNDS: usize = 30;
        let service = Arc::new(ProbeService::new());
        let writer = Connection::new(service.clone());
        let fp = publish(&writer, INITIAL);
        attach(&writer, &fp, false);
        let reader = Connection::new(service);
        // Each attach releases one ingest, which races that round's
        // probe (staggered so either may win) and the next round's
        // attach. Nothing asserts inside the scope, so a failure cannot
        // strand the other thread at the barrier.
        let barrier = std::sync::Barrier::new(2);
        let (ingests, rounds) = std::thread::scope(|scope| {
            let ingests = scope.spawn(|| {
                (0..ROUNDS)
                    .map(|_| {
                        barrier.wait();
                        writer
                            .handle(Request::Ingest {
                                records: corpus(BATCH),
                            })
                            .response
                    })
                    .collect::<Vec<_>>()
            });
            let rounds: Vec<_> = (0..ROUNDS)
                .map(|round| {
                    let attached = reader.handle(Request::Attach {
                        fingerprint: fp.clone(),
                        pinned: true,
                        declared_measure: None,
                    });
                    barrier.wait();
                    std::thread::sleep(Duration::from_micros(200 * (round % 3) as u64));
                    let probed = reader.handle(Request::Probe { threshold: 0.5 });
                    reader.handle(Request::Detach);
                    (attached.response, probed.response)
                })
                .collect();
            (ingests.join().expect("writer thread"), rounds)
        });
        for ingested in ingests {
            assert!(matches!(ingested, Response::Ingested { .. }));
        }
        for (attached, probed) in rounds {
            let Response::Attached { records, epoch, .. } = attached else {
                panic!("attach failed: {}", attached.encode());
            };
            assert_eq!(
                records,
                INITIAL + BATCH * epoch as usize,
                "the attached frame mixes two epochs"
            );
            match probed {
                Response::ProbeResult { epoch: at, .. } => assert_eq!(at, epoch),
                Response::Error {
                    code: ErrorCode::StaleSession,
                    ..
                } => {}
                other => panic!(
                    "expected probe_result or stale_session, got {}",
                    other.encode()
                ),
            }
        }
    }

    #[test]
    fn pinned_probe_does_the_work_of_an_unpinned_one() {
        let probe_frames = |pinned: bool| {
            let conn = Connection::new(Arc::new(ProbeService::new()));
            let fp = publish(&conn, 20);
            attach(&conn, &fp, pinned);
            [0.5, 0.4].map(|threshold| conn.handle(Request::Probe { threshold }).response.encode())
        };
        assert_eq!(probe_frames(true), probe_frames(false));

        // A stale pinned probe is refused before the engine runs: the
        // shared cache gains no memo and counts no hit.
        let service = Arc::new(ProbeService::new());
        let writer = Connection::new(service.clone());
        let fp = publish(&writer, 20);
        attach(&writer, &fp, false);
        let reader = Connection::new(service);
        attach(&reader, &fp, true);
        writer.handle(Request::Ingest { records: corpus(4) });
        let stats = || reader.handle(Request::MemoryStats).response.encode();
        let before = stats();
        let outcome = reader.handle(Request::Probe { threshold: 0.5 });
        assert!(matches!(
            outcome.response,
            Response::Error {
                code: ErrorCode::StaleSession,
                ..
            }
        ));
        assert_eq!(stats(), before, "a stale pinned probe touched the cache");
    }

    #[test]
    fn unwatch_cancels_delivery_and_unknown_ids_are_structured() {
        let service = Arc::new(ProbeService::new());
        let lone = Connection::new(service.clone());
        match lone.handle(Request::Unwatch { watch_id: 0 }).response {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSession),
            other => panic!("expected no_session, got {}", other.encode()),
        }
        let conn = Connection::new(service);
        let fp = publish(&conn, 20);
        conn.handle(Request::Attach {
            fingerprint: fp,
            pinned: false,
            declared_measure: None,
        });
        let watched = conn.handle(Request::Watch { threshold: 0.5 });
        assert!(matches!(
            watched.response,
            Response::WatchAck { watch_id: 0, .. }
        ));
        match conn.handle(Request::Unwatch { watch_id: 7 }).response {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::UnknownWatch);
                assert!(message.contains('7'), "{message}");
            }
            other => panic!("expected unknown_watch, got {}", other.encode()),
        }
        assert_eq!(conn.watch_count(), 1, "failed unwatch cancels nothing");
        let ok = conn.handle(Request::Unwatch { watch_id: 0 });
        assert!(matches!(ok.response, Response::Unwatched { watch_id: 0 }));
        assert_eq!(conn.watch_count(), 0);
        // The watch is gone end to end: an ingest that would have
        // produced a delta produces no event frames.
        let ingested = conn.handle(Request::Ingest { records: corpus(6) });
        assert!(matches!(ingested.response, Response::Ingested { .. }));
        assert!(ingested.events.is_empty(), "cancelled watch still fired");
        // Unwatching the same id again is the structured error.
        match conn.handle(Request::Unwatch { watch_id: 0 }).response {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownWatch),
            other => panic!("expected unknown_watch, got {}", other.encode()),
        }
        // Ids are not reused: the next watch gets a fresh id.
        let again = conn.handle(Request::Watch { threshold: 0.6 });
        assert!(matches!(
            again.response,
            Response::WatchAck { watch_id: 1, .. }
        ));
    }

    #[test]
    fn ingest_signal_is_per_corpus_not_global() {
        let service = Arc::new(ProbeService::new());
        let conn_a = Connection::new(service.clone());
        let fp_a = publish(&conn_a, 16);
        conn_a.handle(Request::Attach {
            fingerprint: fp_a.clone(),
            pinned: false,
            declared_measure: None,
        });
        let conn_b = Connection::new(service.clone());
        let fp_b = publish(&conn_b, 24);
        assert_ne!(fp_a, fp_b, "distinct corpora");
        conn_b.handle(Request::Attach {
            fingerprint: fp_b,
            pinned: false,
            declared_measure: None,
        });
        let mut cursor = conn_a.ingest_cursor();
        // The first wait anchors the cursor on corpus A (returns true by
        // contract so the pusher drains the attach gap).
        assert!(conn_a.wait_ingest_signal(&mut cursor, Duration::from_millis(1)));
        let corpus_a = service.corpus(&fp_a).expect("corpus A");
        let baseline = corpus_a.signal.wakeups.load(Ordering::Relaxed);
        // An ingest into corpus B must NOT wake a pusher on corpus A —
        // this was the global-signal bug.
        let ingested = conn_b.handle(Request::Ingest { records: corpus(4) });
        assert!(matches!(ingested.response, Response::Ingested { .. }));
        assert!(
            !conn_a.wait_ingest_signal(&mut cursor, Duration::from_millis(25)),
            "corpus B's ingest woke corpus A's pusher"
        );
        assert_eq!(
            corpus_a.signal.wakeups.load(Ordering::Relaxed),
            baseline,
            "corpus A recorded a signalled wakeup it should not have"
        );
        // An ingest into corpus A itself does wake it, exactly once.
        conn_a.handle(Request::Ingest { records: corpus(5) });
        assert!(conn_a.wait_ingest_signal(&mut cursor, Duration::from_secs(5)));
        assert_eq!(
            corpus_a.signal.wakeups.load(Ordering::Relaxed),
            baseline + 1
        );
        // Caught up: the next wait times out quietly.
        assert!(!conn_a.wait_ingest_signal(&mut cursor, Duration::from_millis(5)));
    }

    #[test]
    fn own_ingest_drains_watch_deltas_synchronously() {
        let service = Arc::new(ProbeService::new());
        let conn = Connection::new(service);
        let fp = publish(&conn, 20);
        conn.handle(Request::Attach {
            fingerprint: fp,
            pinned: false,
            declared_measure: None,
        });
        let watched = conn.handle(Request::Watch { threshold: 0.5 });
        assert!(matches!(
            watched.response,
            Response::WatchAck { watch_id: 0, .. }
        ));
        assert_eq!(watched.events.len(), 1, "registration delta rides the ack");
        let ingested = conn.handle(Request::Ingest { records: corpus(6) });
        assert!(matches!(ingested.response, Response::Ingested { .. }));
        assert_eq!(ingested.events.len(), 1, "own ingest drains own watches");
        match &ingested.events[0] {
            Response::WatchDeltaEvent { watch_id, delta } => {
                assert_eq!(*watch_id, 0);
                assert_eq!(delta.epoch, 1);
            }
            other => panic!("expected watch delta, got {}", other.encode()),
        }
    }
}
