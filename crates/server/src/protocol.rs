//! The wire protocol: newline-delimited JSON frames.
//!
//! One request frame in, one response frame out, plus unsolicited
//! `watch_delta` *event* frames (marked `"event": true`) pushed after
//! ingests. The protocol layer is pure data — it never touches a socket
//! or an engine type's behaviour, only its fields — so the handler
//! ([`crate::handler`]) stays transport-agnostic and another framing
//! (gRPC, UDS) can reuse both ends unchanged.
//!
//! # Canonical encoding
//!
//! [`Response::encode`] is canonical: a fixed field order and the exact
//! shortest-round-trip float form from [`crate::json`]. The trace
//! harness compares *encoded strings*, which makes "bit-identical to a
//! direct library call" a plain `assert_eq!` — including the `f64`
//! similarity estimates, which round-trip exactly.
//!
//! # Error codes
//!
//! Every failure is a structured `{"type":"error","code":...}` frame;
//! the connection stays open. [`ErrorCode`] is the closed set of codes
//! clients may match on.

use plasma_core::apss::{ApssStats, SimilarPair};
use plasma_core::{ApssConfig, CandidateStrategy, ProbeReport, WatchDelta};
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::bayes::{PairDecision, PairEstimate};

use crate::json::{self, obj, Json};

/// Hard cap on one frame's byte length; a peer that streams an unbounded
/// line is cut off rather than buffered forever.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// The closed set of protocol error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a JSON object, or fields had the wrong shape.
    MalformedFrame,
    /// The `verb` field named no known verb.
    UnknownVerb,
    /// A known verb with invalid or missing arguments.
    BadRequest,
    /// `attach` named a fingerprint no published corpus carries.
    UnknownFingerprint,
    /// A session verb arrived before a successful `attach`.
    NoSession,
    /// `attach` on a connection that already holds a session.
    AlreadyAttached,
    /// A pinned session probed a corpus that has grown past its attach
    /// epoch; detach and re-attach to probe the grown corpus.
    StaleSession,
    /// `unwatch` named a watch id this connection never registered (or
    /// already cancelled).
    UnknownWatch,
    /// The engine panicked (a bug; the message carries the panic text),
    /// or a pinned attach declared a measure other than the corpus's —
    /// the code that refusal has always had on the wire.
    EnginePanic,
    /// The server is draining and accepts no new work.
    Draining,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownFingerprint => "unknown_fingerprint",
            ErrorCode::NoSession => "no_session",
            ErrorCode::AlreadyAttached => "already_attached",
            ErrorCode::StaleSession => "stale_session",
            ErrorCode::UnknownWatch => "unknown_watch",
            ErrorCode::EnginePanic => "engine_panic",
            ErrorCode::Draining => "draining",
        }
    }
}

/// Probe configuration a `publish` request may override; unset fields
/// take the engine defaults. The fingerprint covers `n_hashes`, `seed`,
/// and the Bayes batch, so two publishes differing there are distinct
/// corpora.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PublishCfg {
    /// Hashes per sketch (default 256).
    pub n_hashes: Option<usize>,
    /// RNG/hash seed (default engine seed).
    pub seed: Option<u64>,
    /// Banded candidate generation as `(bands, width)`; default
    /// exhaustive.
    pub bands: Option<(usize, usize)>,
    /// Worker threads (`1` = sequential; default all cores). Results are
    /// bit-identical at any setting.
    pub parallelism: Option<usize>,
    /// Recompute accepted pairs exactly (default false).
    pub exact_on_accept: Option<bool>,
}

impl PublishCfg {
    /// Resolves against engine defaults.
    pub fn to_apss_config(&self) -> ApssConfig {
        let mut cfg = ApssConfig::default();
        if let Some(n) = self.n_hashes {
            cfg.n_hashes = n;
        }
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some((bands, width)) = self.bands {
            cfg.candidates = CandidateStrategy::Banded { bands, width };
        }
        if let Some(p) = self.parallelism {
            cfg.parallelism = Some(p);
        }
        if let Some(x) = self.exact_on_accept {
            cfg.exact_on_accept = x;
        }
        cfg
    }
}

/// A client request, decoded from one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Registers a corpus with the server and builds (or reuses) its
    /// shared knowledge cache. Idempotent by fingerprint.
    Publish {
        /// Human-readable corpus label (diagnostics only; not part of
        /// the fingerprint).
        name: String,
        /// Similarity family.
        measure: Similarity,
        /// The corpus records.
        records: Vec<SparseVector>,
        /// Probe configuration overrides.
        cfg: PublishCfg,
    },
    /// Opens this connection's session on a published corpus.
    Attach {
        /// The corpus fingerprint, 32 hex digits, as reported by
        /// `publish`.
        fingerprint: String,
        /// Pinned sessions are probe-only and answer only at their
        /// attach epoch (`stale_session` once the corpus grows);
        /// streaming sessions (the default) may ingest and watch.
        pinned: bool,
        /// When set, the attach is refused unless the corpus was
        /// published with this measure: `engine_panic` for a pinned
        /// attach, `bad_request` otherwise.
        declared_measure: Option<Similarity>,
    },
    /// Probes the attached corpus at a threshold.
    Probe {
        /// Similarity threshold in `[0, 1]`.
        threshold: f64,
    },
    /// Appends a batch to the attached (streaming) corpus.
    Ingest {
        /// The batch.
        records: Vec<SparseVector>,
    },
    /// Registers a standing threshold watch; deltas arrive as pushed
    /// `watch_delta` event frames.
    Watch {
        /// Similarity threshold in `[0, 1]`.
        threshold: f64,
    },
    /// Cancels one of this connection's watches; no further deltas are
    /// delivered for it. An unknown id is a structured `unknown_watch`
    /// error.
    Unwatch {
        /// The id `watch_ack` reported.
        watch_id: u64,
    },
    /// Memory accounting for the attached corpus (or the registry when
    /// unattached).
    MemoryStats,
    /// Liveness + load counters.
    Health,
    /// Readiness (false while draining).
    Ready,
    /// Closes this connection's session, keeping the connection.
    Detach,
    /// Asks the server to drain and stop.
    Shutdown,
}

/// A server response or pushed event, encoded as one frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// `publish` succeeded.
    Published {
        /// Corpus fingerprint, 32 hex digits.
        fingerprint: String,
        /// Corpus size.
        records: usize,
        /// Corpus epoch (non-zero when re-publishing a grown corpus).
        epoch: u64,
    },
    /// `attach` succeeded.
    Attached {
        /// Echoed fingerprint.
        fingerprint: String,
        /// Echoed session mode.
        pinned: bool,
        /// Corpus size at attach.
        records: usize,
        /// Corpus epoch at attach.
        epoch: u64,
    },
    /// A probe's answer. Timing fields are deliberately absent — every
    /// field here is deterministic for a given op history, which is what
    /// lets traces assert bit-identity.
    ProbeResult {
        /// Echoed threshold.
        threshold: f64,
        /// Corpus epoch the probe saw.
        epoch: u64,
        /// Pairs at or above the threshold, canonical `(i, j)` order.
        pairs: Vec<SimilarPair>,
        /// Candidates evaluated.
        candidates: u64,
        /// Candidates pruned.
        pruned: u64,
        /// Pair evaluations answered entirely from the cache.
        cache_hits: u64,
        /// Hashes compared.
        hashes_compared: u64,
    },
    /// An ingest's receipt.
    Ingested {
        /// Records appended.
        records_added: usize,
        /// Corpus size after.
        total_records: usize,
        /// Corpus epoch after.
        epoch: u64,
        /// Memos carried across the bump.
        carried_memos: usize,
    },
    /// A watch was registered; its first delta (the full answer at the
    /// current epoch) follows as an event frame.
    WatchAck {
        /// Connection-scoped watch id, echoed on every delta frame.
        watch_id: u64,
        /// Echoed threshold.
        threshold: f64,
    },
    /// `unwatch` succeeded; the watch's registry entry is cancelled.
    Unwatched {
        /// Echoed watch id.
        watch_id: u64,
    },
    /// One epoch's delta at one watched threshold (pushed; marked
    /// `"event": true` on the wire).
    WatchDeltaEvent {
        /// The watch this delta belongs to.
        watch_id: u64,
        /// The delta.
        delta: WatchDelta,
    },
    /// Memory accounting.
    MemoryStatsResult {
        /// `"corpus"` when attached, `"registry"` otherwise.
        scope: String,
        /// Resident pair memos.
        entries: usize,
        /// Accounted memo bytes.
        memo_bytes: usize,
        /// Immutable sketch bytes.
        sketch_bytes: usize,
        /// Band-bucket cache bytes.
        bucket_cache_bytes: usize,
        /// Lifetime records bucketed.
        bucket_build_records: u64,
        /// Configured cap, if any.
        capacity_bytes: Option<usize>,
        /// Lifetime memos evicted.
        evicted_entries: u64,
        /// Lifetime cache hits.
        cache_hits: u64,
    },
    /// Liveness + load counters.
    Health {
        /// `"ok"` or `"draining"`.
        status: String,
        /// Published corpora.
        corpora: usize,
        /// Live attached sessions.
        sessions: usize,
        /// Live watches across all corpora.
        watches: usize,
    },
    /// Readiness.
    Ready {
        /// False while draining.
        ready: bool,
    },
    /// `detach` succeeded.
    Detached,
    /// `shutdown` acknowledged; the server drains after this frame.
    ShuttingDown,
    /// A structured failure; the connection stays open.
    Error {
        /// One of the [`ErrorCode`] spellings.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

pub(crate) fn measure_str(m: Similarity) -> &'static str {
    match m {
        Similarity::Cosine => "cosine",
        Similarity::Jaccard => "jaccard",
    }
}

pub(crate) fn measure_from(s: &str) -> Option<Similarity> {
    match s {
        "cosine" => Some(Similarity::Cosine),
        "jaccard" => Some(Similarity::Jaccard),
        _ => None,
    }
}

fn records_json(records: &[SparseVector]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|r| {
                Json::Arr(
                    r.iter()
                        .map(|(d, w)| Json::Arr(vec![Json::Int(i64::from(d)), Json::Float(w)]))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn records_from(value: &Json) -> Result<Vec<SparseVector>, String> {
    let rows = value.as_arr().ok_or("'records' must be an array")?;
    rows.iter()
        .map(|row| {
            let entries = row
                .as_arr()
                .ok_or("record must be an array of [dim, weight]")?;
            let pairs = entries
                .iter()
                .map(|e| {
                    let pair = e
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| "record entry must be a [dim, weight] pair".to_string())?;
                    let dim = pair[0]
                        .as_u64()
                        .and_then(|d| u32::try_from(d).ok())
                        .ok_or("dimension must be a u32")?;
                    let weight = pair[1].as_f64().ok_or("weight must be a number")?;
                    Ok::<(u32, f64), String>((dim, weight))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SparseVector::from_pairs(pairs))
        })
        .collect()
}

/// Reads a `records` value straight from the frame when it is exactly
/// `[[[dim, weight], …], …]` with a `u32` dim and a numeric weight, the
/// shape [`records_from`] accepts. Tokens go through the tree parser's
/// own number reader and [`Json`]'s own conversions, and each record
/// through [`SparseVector::from_pairs`] in frame order, so the records
/// equal `records_from(&json::parse(..))`'s. Any other value gives
/// `None`; the caller rewinds and takes the tree path, which produces
/// every error. Whitespace is skipped wherever the tree parser skips it,
/// and `pos` ends just past the closing `]`.
fn read_records(bytes: &[u8], pos: &mut usize) -> Option<Vec<SparseVector>> {
    let mut records = Vec::new();
    let mut more = open_array(bytes, pos)?;
    while more {
        let mut pairs = Vec::new();
        let mut more_pairs = open_array(bytes, pos)?;
        while more_pairs {
            punct(bytes, pos, b'[')?;
            json::skip_ws(bytes, pos);
            let dim = json::parse_number(bytes, pos).ok()?.as_u64()?;
            let dim = u32::try_from(dim).ok()?;
            punct(bytes, pos, b',')?;
            json::skip_ws(bytes, pos);
            let weight = json::parse_number(bytes, pos).ok()?.as_f64()?;
            punct(bytes, pos, b']')?;
            pairs.push((dim, weight));
            more_pairs = next_item(bytes, pos)?;
        }
        records.push(SparseVector::from_pairs(pairs));
        more = next_item(bytes, pos)?;
    }
    Some(records)
}

/// Consumes `c` after optional whitespace.
fn punct(bytes: &[u8], pos: &mut usize, c: u8) -> Option<()> {
    json::skip_ws(bytes, pos);
    (bytes.get(*pos) == Some(&c)).then(|| *pos += 1)
}

/// Consumes an array's `[`; `Some(false)` when it is empty (its `]`
/// consumed too).
fn open_array(bytes: &[u8], pos: &mut usize) -> Option<bool> {
    punct(bytes, pos, b'[')?;
    Some(punct(bytes, pos, b']').is_none())
}

/// Consumes the `,` (`Some(true)`) or `]` (`Some(false)`) after an array
/// item.
fn next_item(bytes: &[u8], pos: &mut usize) -> Option<bool> {
    json::skip_ws(bytes, pos);
    let more = match bytes.get(*pos)? {
        b',' => true,
        b']' => false,
        _ => return None,
    };
    *pos += 1;
    Some(more)
}

fn pairs_json(pairs: &[SimilarPair]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|p| {
                Json::Arr(vec![
                    Json::Int(i64::from(p.i)),
                    Json::Int(i64::from(p.j)),
                    Json::Float(p.similarity),
                ])
            })
            .collect(),
    )
}

fn estimate_json(e: &PairEstimate) -> Json {
    let decision = match e.decision {
        PairDecision::Pruned => "pruned",
        PairDecision::Accepted => "accepted",
        PairDecision::Exhausted => "exhausted",
    };
    obj(vec![
        ("decision", Json::Str(decision.to_string())),
        ("matches", Json::Int(i64::from(e.matches))),
        ("hashes", Json::Int(i64::from(e.hashes))),
        ("map_similarity", Json::Float(e.map_similarity)),
        ("variance", Json::Float(e.variance)),
    ])
}

fn work_json(w: &ApssStats) -> Json {
    // Timing fields are dropped: counters only, so the frame is
    // deterministic for a given op history.
    obj(vec![
        ("candidates", Json::Int(w.candidates as i64)),
        ("pruned", Json::Int(w.pruned as i64)),
        ("accepted", Json::Int(w.accepted as i64)),
        ("exhausted", Json::Int(w.exhausted as i64)),
        ("hashes_compared", Json::Int(w.hashes_compared as i64)),
        ("cache_hits", Json::Int(w.cache_hits as i64)),
    ])
}

fn invalid_json(e: String) -> (ErrorCode, String) {
    (ErrorCode::MalformedFrame, format!("invalid JSON: {e}"))
}

impl Request {
    /// Encodes the request as one frame (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            Request::Publish {
                name,
                measure,
                records,
                cfg,
            } => {
                let mut cfg_fields = Vec::new();
                if let Some(n) = cfg.n_hashes {
                    cfg_fields.push(("n_hashes", Json::Int(n as i64)));
                }
                if let Some(seed) = cfg.seed {
                    cfg_fields.push(("seed", Json::Int(seed as i64)));
                }
                if let Some((bands, width)) = cfg.bands {
                    cfg_fields.push((
                        "bands",
                        Json::Arr(vec![Json::Int(bands as i64), Json::Int(width as i64)]),
                    ));
                }
                if let Some(p) = cfg.parallelism {
                    cfg_fields.push(("parallelism", Json::Int(p as i64)));
                }
                if let Some(x) = cfg.exact_on_accept {
                    cfg_fields.push(("exact_on_accept", Json::Bool(x)));
                }
                obj(vec![
                    ("verb", Json::Str("publish".into())),
                    ("name", Json::Str(name.clone())),
                    ("measure", Json::Str(measure_str(*measure).into())),
                    ("records", records_json(records)),
                    ("cfg", obj(cfg_fields)),
                ])
            }
            Request::Attach {
                fingerprint,
                pinned,
                declared_measure,
            } => {
                let mut fields = vec![
                    ("verb", Json::Str("attach".into())),
                    ("fingerprint", Json::Str(fingerprint.clone())),
                    ("pinned", Json::Bool(*pinned)),
                ];
                if let Some(m) = declared_measure {
                    fields.push(("measure", Json::Str(measure_str(*m).into())));
                }
                obj(fields)
            }
            Request::Probe { threshold } => obj(vec![
                ("verb", Json::Str("probe".into())),
                ("threshold", Json::Float(*threshold)),
            ]),
            Request::Ingest { records } => obj(vec![
                ("verb", Json::Str("ingest".into())),
                ("records", records_json(records)),
            ]),
            Request::Watch { threshold } => obj(vec![
                ("verb", Json::Str("watch".into())),
                ("threshold", Json::Float(*threshold)),
            ]),
            Request::Unwatch { watch_id } => obj(vec![
                ("verb", Json::Str("unwatch".into())),
                ("watch_id", Json::Int(*watch_id as i64)),
            ]),
            Request::MemoryStats => obj(vec![("verb", Json::Str("memory_stats".into()))]),
            Request::Health => obj(vec![("verb", Json::Str("health".into()))]),
            Request::Ready => obj(vec![("verb", Json::Str("ready".into()))]),
            Request::Detach => obj(vec![("verb", Json::Str("detach".into()))]),
            Request::Shutdown => obj(vec![("verb", Json::Str("shutdown".into()))]),
        };
        value.encode()
    }

    /// Decodes one frame. Failures carry the [`ErrorCode`] the server
    /// should answer with.
    ///
    /// The frame is parsed once. The first `records` member, the one
    /// [`Json::get`] finds, is read straight into records when it has
    /// exactly the records shape, without building a tree of it; any
    /// other value is parsed into the tree and checked there. Either
    /// way the records, and every error, equal the tree path's.
    pub fn decode(frame: &str) -> Result<Request, (ErrorCode, String)> {
        let (value, read) =
            json::parse_taking(frame, "records", read_records).map_err(invalid_json)?;
        Self::from_json(&value, read)
    }

    /// Decodes a parsed frame. `read` holds the records when they were
    /// read straight from the frame; otherwise they come from the tree's
    /// `records` member, through [`records_from`].
    fn from_json(
        value: &Json,
        read: Option<Vec<SparseVector>>,
    ) -> Result<Request, (ErrorCode, String)> {
        if !matches!(value, Json::Obj(_)) {
            return Err((
                ErrorCode::MalformedFrame,
                "frame must be a JSON object".to_string(),
            ));
        }
        let verb = value
            .get("verb")
            .and_then(Json::as_str)
            .ok_or((ErrorCode::MalformedFrame, "missing 'verb'".to_string()))?;
        let bad = |msg: &str| (ErrorCode::BadRequest, msg.to_string());
        // Records read from the frame, else the tree's `records` member.
        let records = |read: Option<Vec<SparseVector>>| match read {
            Some(records) => Ok(records),
            None => records_from(
                value
                    .get("records")
                    .ok_or_else(|| bad("missing 'records'"))?,
            )
            .map_err(|e| bad(&e)),
        };
        match verb {
            "publish" => {
                let name = value
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let measure = value
                    .get("measure")
                    .and_then(Json::as_str)
                    .and_then(measure_from)
                    .ok_or_else(|| bad("'measure' must be \"cosine\" or \"jaccard\""))?;
                let records = records(read)?;
                let mut cfg = PublishCfg::default();
                if let Some(c) = value.get("cfg") {
                    cfg.n_hashes = c.get("n_hashes").and_then(Json::as_usize);
                    cfg.seed = c.get("seed").and_then(Json::as_u64);
                    cfg.bands = c.get("bands").and_then(Json::as_arr).and_then(|b| {
                        match (b.first()?.as_usize(), b.get(1)?.as_usize()) {
                            (Some(bands), Some(width)) => Some((bands, width)),
                            _ => None,
                        }
                    });
                    cfg.parallelism = c.get("parallelism").and_then(Json::as_usize);
                    cfg.exact_on_accept = c.get("exact_on_accept").and_then(Json::as_bool);
                }
                Ok(Request::Publish {
                    name,
                    measure,
                    records,
                    cfg,
                })
            }
            "attach" => {
                let fingerprint = value
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing 'fingerprint'"))?
                    .to_string();
                let pinned = value
                    .get("pinned")
                    .map(|p| p.as_bool().ok_or_else(|| bad("'pinned' must be a bool")))
                    .transpose()?
                    .unwrap_or(false);
                let declared_measure = match value.get("measure") {
                    None => None,
                    Some(m) => Some(
                        m.as_str()
                            .and_then(measure_from)
                            .ok_or_else(|| bad("'measure' must be \"cosine\" or \"jaccard\""))?,
                    ),
                };
                Ok(Request::Attach {
                    fingerprint,
                    pinned,
                    declared_measure,
                })
            }
            "probe" | "watch" => {
                let threshold = value
                    .get("threshold")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("missing numeric 'threshold'"))?;
                if !(0.0..=1.0).contains(&threshold) {
                    return Err(bad("'threshold' must lie in [0, 1]"));
                }
                Ok(if verb == "probe" {
                    Request::Probe { threshold }
                } else {
                    Request::Watch { threshold }
                })
            }
            "unwatch" => {
                let watch_id = value
                    .get("watch_id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing integer 'watch_id'"))?;
                Ok(Request::Unwatch { watch_id })
            }
            "ingest" => Ok(Request::Ingest {
                records: records(read)?,
            }),
            "memory_stats" => Ok(Request::MemoryStats),
            "health" => Ok(Request::Health),
            "ready" => Ok(Request::Ready),
            "detach" => Ok(Request::Detach),
            "shutdown" => Ok(Request::Shutdown),
            other => Err((ErrorCode::UnknownVerb, format!("unknown verb '{other}'"))),
        }
    }
}

impl Response {
    /// Encodes the response as one canonical frame (no trailing
    /// newline). Canonical means: fixed field order, exact
    /// shortest-round-trip floats — equal frames iff equal values.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`encode`](Self::encode)'s bytes to `out`, so a
    /// connection can reuse one buffer for every frame. A `probe_result`
    /// — the frame that grows with the answer — is written straight into
    /// `out` with no `Json` tree and no per-pair allocation; its bytes
    /// equal the tree form's (pinned by a test). Its similarities go
    /// through a `json::FloatMemo` local to this call: an estimate-only
    /// answer repeats BayesLSH grid points, so most are copied, not
    /// formatted, and no state crosses frames.
    pub fn encode_into(&self, out: &mut String) {
        let Response::ProbeResult {
            threshold,
            epoch,
            pairs,
            candidates,
            pruned,
            cache_hits,
            hashes_compared,
        } = self
        else {
            return self.to_json().write(out);
        };
        out.push_str("{\"type\":\"probe_result\",\"threshold\":");
        json::write_float(*threshold, out);
        out.push_str(",\"epoch\":");
        json::write_int(*epoch as i64, out);
        out.push_str(",\"pairs\":[");
        let mut floats = json::FloatMemo::new();
        for (n, p) in pairs.iter().enumerate() {
            out.push_str(if n == 0 { "[" } else { ",[" });
            json::write_int(i64::from(p.i), out);
            out.push(',');
            json::write_int(i64::from(p.j), out);
            out.push(',');
            floats.write(p.similarity, out);
            out.push(']');
        }
        for (key, value) in [
            ("],\"candidates\":", candidates),
            (",\"pruned\":", pruned),
            (",\"cache_hits\":", cache_hits),
            (",\"hashes_compared\":", hashes_compared),
        ] {
            out.push_str(key);
            json::write_int(*value as i64, out);
        }
        out.push('}');
    }

    /// The response as a `Json` tree. [`encode_into`](Self::encode_into)
    /// writes every variant but `probe_result` through it; the
    /// `probe_result` arm is the reference its direct writer is pinned
    /// against.
    fn to_json(&self) -> Json {
        match self {
            Response::Published {
                fingerprint,
                records,
                epoch,
            } => obj(vec![
                ("type", Json::Str("published".into())),
                ("fingerprint", Json::Str(fingerprint.clone())),
                ("records", Json::Int(*records as i64)),
                ("epoch", Json::Int(*epoch as i64)),
            ]),
            Response::Attached {
                fingerprint,
                pinned,
                records,
                epoch,
            } => obj(vec![
                ("type", Json::Str("attached".into())),
                ("fingerprint", Json::Str(fingerprint.clone())),
                ("pinned", Json::Bool(*pinned)),
                ("records", Json::Int(*records as i64)),
                ("epoch", Json::Int(*epoch as i64)),
            ]),
            Response::ProbeResult {
                threshold,
                epoch,
                pairs,
                candidates,
                pruned,
                cache_hits,
                hashes_compared,
            } => obj(vec![
                ("type", Json::Str("probe_result".into())),
                ("threshold", Json::Float(*threshold)),
                ("epoch", Json::Int(*epoch as i64)),
                ("pairs", pairs_json(pairs)),
                ("candidates", Json::Int(*candidates as i64)),
                ("pruned", Json::Int(*pruned as i64)),
                ("cache_hits", Json::Int(*cache_hits as i64)),
                ("hashes_compared", Json::Int(*hashes_compared as i64)),
            ]),
            Response::Ingested {
                records_added,
                total_records,
                epoch,
                carried_memos,
            } => obj(vec![
                ("type", Json::Str("ingested".into())),
                ("records_added", Json::Int(*records_added as i64)),
                ("total_records", Json::Int(*total_records as i64)),
                ("epoch", Json::Int(*epoch as i64)),
                ("carried_memos", Json::Int(*carried_memos as i64)),
            ]),
            Response::WatchAck {
                watch_id,
                threshold,
            } => obj(vec![
                ("type", Json::Str("watch_ack".into())),
                ("watch_id", Json::Int(*watch_id as i64)),
                ("threshold", Json::Float(*threshold)),
            ]),
            Response::Unwatched { watch_id } => obj(vec![
                ("type", Json::Str("unwatched".into())),
                ("watch_id", Json::Int(*watch_id as i64)),
            ]),
            Response::WatchDeltaEvent { watch_id, delta } => obj(vec![
                ("type", Json::Str("watch_delta".into())),
                ("event", Json::Bool(true)),
                ("watch_id", Json::Int(*watch_id as i64)),
                ("epoch", Json::Int(delta.epoch as i64)),
                ("threshold", Json::Float(delta.threshold)),
                ("new_pairs", pairs_json(&delta.new_pairs)),
                (
                    "estimates",
                    Json::Arr(
                        delta
                            .estimates
                            .iter()
                            .map(|(i, j, e)| {
                                Json::Arr(vec![
                                    Json::Int(i64::from(*i)),
                                    Json::Int(i64::from(*j)),
                                    estimate_json(e),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("work", work_json(&delta.work)),
            ]),
            Response::MemoryStatsResult {
                scope,
                entries,
                memo_bytes,
                sketch_bytes,
                bucket_cache_bytes,
                bucket_build_records,
                capacity_bytes,
                evicted_entries,
                cache_hits,
            } => obj(vec![
                ("type", Json::Str("memory_stats".into())),
                ("scope", Json::Str(scope.clone())),
                ("entries", Json::Int(*entries as i64)),
                ("memo_bytes", Json::Int(*memo_bytes as i64)),
                ("sketch_bytes", Json::Int(*sketch_bytes as i64)),
                ("bucket_cache_bytes", Json::Int(*bucket_cache_bytes as i64)),
                (
                    "bucket_build_records",
                    Json::Int(*bucket_build_records as i64),
                ),
                (
                    "capacity_bytes",
                    capacity_bytes.map_or(Json::Null, |c| Json::Int(c as i64)),
                ),
                ("evicted_entries", Json::Int(*evicted_entries as i64)),
                ("cache_hits", Json::Int(*cache_hits as i64)),
            ]),
            Response::Health {
                status,
                corpora,
                sessions,
                watches,
            } => obj(vec![
                ("type", Json::Str("health".into())),
                ("status", Json::Str(status.clone())),
                ("corpora", Json::Int(*corpora as i64)),
                ("sessions", Json::Int(*sessions as i64)),
                ("watches", Json::Int(*watches as i64)),
            ]),
            Response::Ready { ready } => obj(vec![
                ("type", Json::Str("ready".into())),
                ("ready", Json::Bool(*ready)),
            ]),
            Response::Detached => obj(vec![("type", Json::Str("detached".into()))]),
            Response::ShuttingDown => obj(vec![("type", Json::Str("shutting_down".into()))]),
            Response::Error { code, message } => obj(vec![
                ("type", Json::Str("error".into())),
                ("code", Json::Str(code.as_str().into())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    /// Builds a `ProbeResult` from an engine report, moving its pairs
    /// (and dropping the nondeterministic timing fields).
    pub fn from_probe(report: ProbeReport, epoch: u64) -> Response {
        Response::ProbeResult {
            threshold: report.threshold,
            epoch,
            pairs: report.pairs,
            candidates: report.candidates,
            pruned: report.pruned,
            cache_hits: report.cache_hits,
            hashes_compared: report.hashes_compared,
        }
    }

    /// True for pushed event frames (`watch_delta`), false for
    /// request/response frames.
    pub fn is_event(&self) -> bool {
        matches!(self, Response::WatchDeltaEvent { .. })
    }
}

/// Renders a u128 fingerprint as the 32-hex-digit wire form.
pub fn fingerprint_hex(fp: u128) -> String {
    format!("{fp:032x}")
}

/// Parses the 32-hex-digit wire form back to a u128.
pub fn fingerprint_parse(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(rows: &[&[(u32, f64)]]) -> Vec<SparseVector> {
        rows.iter()
            .map(|r| SparseVector::from_pairs(r.to_vec()))
            .collect()
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Publish {
                name: "demo".into(),
                measure: Similarity::Jaccard,
                records: vecs(&[&[(0, 1.0), (3, 0.5)], &[(1, 2.0)]]),
                cfg: PublishCfg {
                    n_hashes: Some(128),
                    seed: Some(42),
                    bands: Some((16, 4)),
                    parallelism: Some(1),
                    exact_on_accept: Some(true),
                },
            },
            Request::Attach {
                fingerprint: "0".repeat(32),
                pinned: true,
                declared_measure: Some(Similarity::Cosine),
            },
            Request::Probe { threshold: 0.7 },
            Request::Ingest {
                records: vecs(&[&[(9, 1.0)]]),
            },
            Request::Watch { threshold: 0.5 },
            Request::Unwatch { watch_id: 3 },
            Request::MemoryStats,
            Request::Health,
            Request::Ready,
            Request::Detach,
            Request::Shutdown,
        ];
        for req in reqs {
            let decoded = Request::decode(&req.encode()).expect("decodes");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn decode_failures_carry_codes() {
        let cases = [
            ("not json", ErrorCode::MalformedFrame),
            ("[1,2]", ErrorCode::MalformedFrame),
            ("{\"no\":\"verb\"}", ErrorCode::MalformedFrame),
            ("{\"verb\":\"frobnicate\"}", ErrorCode::UnknownVerb),
            ("{\"verb\":\"probe\"}", ErrorCode::BadRequest),
            (
                "{\"verb\":\"probe\",\"threshold\":1.5}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"verb\":\"publish\",\"measure\":\"euclid\",\"records\":[]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"verb\":\"ingest\",\"records\":[[[0]]]}",
                ErrorCode::BadRequest,
            ),
            ("{\"verb\":\"unwatch\"}", ErrorCode::BadRequest),
            (
                "{\"verb\":\"unwatch\",\"watch_id\":-1}",
                ErrorCode::BadRequest,
            ),
        ];
        for (frame, want) in cases {
            let (code, _) = Request::decode(frame).expect_err(frame);
            assert_eq!(code, want, "{frame}");
        }
    }

    /// The tree path: the whole frame parsed into a [`Json`] tree, the
    /// records taken from it by [`records_from`].
    fn decode_by_tree(frame: &str) -> Result<Request, (ErrorCode, String)> {
        Request::from_json(&json::parse(frame).map_err(invalid_json)?, None)
    }

    /// Records' dims and weight bits, so `-0` and `0` differ.
    fn record_bits(req: &Request) -> Option<Vec<Vec<(u32, u64)>>> {
        let records = match req {
            Request::Publish { records, .. } | Request::Ingest { records } => records,
            _ => return None,
        };
        let bits = records
            .iter()
            .map(|r| r.iter().map(|(d, w)| (d, w.to_bits())).collect())
            .collect();
        Some(bits)
    }

    /// A `records` value over `records`' dim and weight tokens, with
    /// random whitespace between tokens.
    fn seeded_frame(rng: &mut impl rand::Rng, records: &[Vec<(String, String)>]) -> String {
        let mut ws = || [" ", "", "", "\n\t", ""][rng.gen_range(0..5)].to_string();
        let pairs = |r: &Vec<(String, String)>, ws: &mut dyn FnMut() -> String| {
            r.iter()
                .map(|(d, w)| format!("[{}{d}{},{}{w}{}]", ws(), ws(), ws(), ws()))
                .collect::<Vec<_>>()
                .join(&format!("{},", ws()))
        };
        let rows: Vec<String> = records
            .iter()
            .map(|r| format!("[{}{}{}]", ws(), pairs(r, &mut ws), ws()))
            .collect();
        format!("[{}{}{}]", ws(), rows.join(","), ws())
    }

    #[test]
    fn read_records_takes_only_the_records_shape() {
        for (frame, records) in [
            (r#"{"verb":"ingest","records":[]}"#, Some(0)),
            (r#"{"verb":"ingest","records":[[]]}"#, Some(1)),
            (
                r#"{"verb":"ingest","records": [ [ [ 1 , -0 ] ] ] }"#,
                Some(1),
            ),
            (r#"{"verb":"ingest","records":[[[1,2,3]]]}"#, None),
            (r#"{"verb":"ingest","records":[[[1.0,2]]]}"#, None),
            (r#"{"verb":"ingest","records":{}}"#, None),
        ] {
            let (_, read) = json::parse_taking(frame, "records", read_records).expect(frame);
            assert_eq!(read.map(|r| r.len()), records, "{frame}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn decode_equals_the_tree_path(seed in 0u64..u64::MAX, mutation in 0usize..14) {
            use rand::Rng;
            let mut rng = plasma_data::rng::seeded(seed);
            let mut records: Vec<Vec<(String, String)>> = (0..rng.gen_range(0..5))
                .map(|_| {
                    (0..rng.gen_range(0..5))
                        .map(|_| {
                            let dim = rng.gen_range(0..3000u32).to_string();
                            let weight = match rng.gen_range(0..4) {
                                0 => rng.gen_range(-3i32..4).to_string(),
                                _ => rng.gen_range(-3.0..3.0f64).to_string(),
                            };
                            (dim, weight)
                        })
                        .collect()
                })
                .collect();
            // Token mutations: one dim or weight of a non-empty record.
            let token_edits: [(bool, &str); 8] = [
                (true, "3.0"),
                (true, "-1"),
                (true, "4294967296"),
                (true, "4294967295"),
                (false, "-0"),
                (false, "1e-3"),
                (false, "2E+2"),
                (false, "1e999"),
            ];
            let filled: Vec<usize> = (0..records.len()).filter(|&r| !records[r].is_empty()).collect();
            if (1..=8).contains(&mutation) && !filled.is_empty() {
                let r = filled[rng.gen_range(0..filled.len())];
                let p = rng.gen_range(0..records[r].len());
                let (is_dim, token) = token_edits[mutation - 1];
                if is_dim {
                    records[r][p].0 = token.to_string();
                } else {
                    records[r][p].1 = token.to_string();
                }
            }
            let value = seeded_frame(&mut rng, &records);
            let verb = if rng.gen_bool(0.5) { "publish" } else { "ingest" };
            let head = format!(r#""verb":"{verb}","name":"n","measure":"cosine""#);
            let mut frame = match mutation {
                // `records` before `verb`.
                9 => format!(r#"{{"records":{value},{head}}}"#),
                // A duplicate `records` key: the first one counts, whether
                // it has the records shape or not.
                10 => format!(r#"{{{head},"records":{value},"records":[[[1,2]]]}}"#),
                11 => format!(r#"{{{head},"records":[[["x",2]]],"records":{value}}}"#),
                // A probe does not read a mis-shaped `records`.
                12 => r#"{"verb":"probe","threshold":0.5,"records":[[[-1]],{}]}"#.to_string(),
                _ => format!(r#"{{{head},"records":{value},"cfg":{{"n_hashes":64}}}}"#),
            };
            if mutation == 0 {
                // Truncation, or a swapped bracket, inside the frame.
                let cut = rng.gen_range(0..frame.len());
                if rng.gen_bool(0.5) {
                    frame.truncate(cut);
                } else if let Some(at) = frame[cut..].find(['[', ']']).map(|i| cut + i) {
                    let swapped = if &frame[at..=at] == "[" { "]" } else { "[" };
                    frame.replace_range(at..=at, swapped);
                }
            }
            let fast = Request::decode(&frame);
            let tree = decode_by_tree(&frame);
            match (&fast, &tree) {
                (Ok(a), Ok(b)) => {
                    proptest::prop_assert_eq!(record_bits(a), record_bits(b), "{}", frame);
                    proptest::prop_assert_eq!(a, b, "{}", frame);
                }
                _ => proptest::prop_assert_eq!(&fast, &tree, "{}", frame),
            }
            if mutation == 12 {
                proptest::prop_assert!(matches!(fast, Ok(Request::Probe { .. })), "{}", frame);
            }
            if mutation == 13 {
                proptest::prop_assert!(fast.is_ok(), "{}", frame);
            }
        }
    }

    #[test]
    fn fingerprints_round_trip() {
        for fp in [0u128, 1, u128::MAX, 0xdead_beef_0123] {
            let hex = fingerprint_hex(fp);
            assert_eq!(hex.len(), 32);
            assert_eq!(fingerprint_parse(&hex), Some(fp));
        }
        assert_eq!(fingerprint_parse("xyz"), None);
        assert_eq!(fingerprint_parse(&"f".repeat(31)), None);
    }

    #[test]
    fn response_encoding_is_canonical() {
        let resp = Response::ProbeResult {
            threshold: 0.7,
            epoch: 3,
            pairs: vec![SimilarPair {
                i: 0,
                j: 2,
                similarity: 1.0 / 3.0,
            }],
            candidates: 5,
            pruned: 2,
            cache_hits: 1,
            hashes_compared: 96,
        };
        let frame = resp.encode();
        assert_eq!(frame, resp.clone().encode(), "encoding is deterministic");
        // The embedded float survives a parse round-trip exactly.
        let parsed = json::parse(&frame).expect("frame parses");
        let sim = parsed.get("pairs").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap()[2]
            .as_f64()
            .unwrap();
        assert_eq!(sim.to_bits(), (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn direct_probe_result_writer_matches_the_json_tree() {
        use rand::Rng;
        let edges = [0.0, 1.0, -0.0, 5e-324, 0.1 + 0.2, 1e-7];
        let mut rng = plasma_data::rng::seeded(37);
        let mut frames = Vec::new();
        for round in 0..40 {
            // Round 0 answers with no pair at all.
            let mut pairs: Vec<SimilarPair> = (0..rng.gen_range(0..200))
                .map(|_| SimilarPair {
                    i: rng.gen(),
                    j: rng.gen(),
                    similarity: rng.gen(),
                })
                .collect();
            pairs.extend(edges.map(|similarity| SimilarPair {
                i: 0,
                j: u32::MAX,
                similarity,
            }));
            if round == 0 {
                pairs.clear();
            }
            frames.push(Response::ProbeResult {
                threshold: if round < edges.len() {
                    edges[round]
                } else {
                    rng.gen()
                },
                epoch: rng.gen_range(0..1 << 40),
                pairs,
                candidates: rng.gen(),
                pruned: rng.gen(),
                cache_hits: rng.gen_range(0..1 << 20),
                hashes_compared: u64::MAX - round as u64,
            });
        }
        let mut reused = String::new();
        for frame in frames {
            let tree = frame.to_json().encode();
            assert_eq!(frame.encode(), tree);
            reused.clear();
            frame.encode_into(&mut reused);
            assert_eq!(reused, tree);
        }
        // Every other frame appends its tree form to what is there.
        let health = Response::Ready { ready: true };
        let mut out = String::from("x");
        health.encode_into(&mut out);
        assert_eq!(out, format!("x{}", health.to_json().encode()));
    }
}
