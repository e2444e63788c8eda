//! Satellite 1 — the trace-replay differential suite.
//!
//! The serving layer's contract is that the wire adds *nothing* to the
//! engine's semantics. Three equalities pin it:
//!
//! 1. **Handler vs library**: a script recorded through the
//!    transport-agnostic handler produces, frame for frame, the exact
//!    encodings of direct `StreamingSession` calls with the same
//!    history — probes, ingest receipts, and watch deltas at every
//!    epoch.
//! 2. **Wire vs handler**: replaying the recorded script through a live
//!    TCP server against a fresh service reproduces every frame byte
//!    for byte (`Trace::replay_over_tcp`).
//! 3. **Storage round-trip**: the JSON-lines form of a trace
//!    deserializes to the identical trace, so stored traces are durable
//!    regression artifacts.

mod common;

use std::sync::Arc;

use common::corpus;
use plasma_core::{ApssConfig, CacheRegistry, StreamingSession};
use plasma_data::similarity::Similarity;
use plasma_server::{
    ProbeServer, ProbeService, PublishCfg, Request, Response, Trace, TraceRecorder,
};

/// The canonical script: every served verb, two growth epochs, probes
/// at every epoch, a watch registered before the first ingest.
fn script(fingerprint_of: impl Fn(&[plasma_data::vector::SparseVector]) -> String) -> Vec<Request> {
    let base = corpus(30, 0);
    let fingerprint = fingerprint_of(&base);
    vec![
        Request::Publish {
            name: "trace-corpus".into(),
            measure: Similarity::Jaccard,
            records: base,
            cfg: PublishCfg::default(),
        },
        Request::Attach {
            fingerprint,
            pinned: false,
            declared_measure: Some(Similarity::Jaccard),
        },
        Request::Watch { threshold: 0.6 },
        Request::Probe { threshold: 0.5 },
        Request::Ingest {
            records: corpus(8, 30),
        },
        Request::Probe { threshold: 0.5 },
        Request::Ingest {
            records: corpus(6, 38),
        },
        Request::Probe { threshold: 0.75 },
        Request::MemoryStats,
        Request::Health,
        Request::Detach,
    ]
}

fn record_script() -> Trace {
    let service = Arc::new(ProbeService::new());
    let mut recorder = TraceRecorder::new(service);
    let cfg = PublishCfg::default().to_apss_config();
    for request in script(|records| {
        plasma_server::protocol::fingerprint_hex(CacheRegistry::fingerprint(
            records,
            Similarity::Jaccard,
            &cfg,
        ))
    }) {
        recorder.apply(request);
    }
    recorder.finish()
}

/// Equality 1: every recorded frame is the canonical encoding of the
/// equivalent direct library call.
#[test]
fn recorded_frames_equal_direct_library_calls() {
    let trace = record_script();
    assert_eq!(trace.entries.len(), 11);

    // The same history, directly against the engine, mirroring how the
    // service builds a corpus: registry cache + streaming session.
    let cfg = ApssConfig::default();
    let base = corpus(30, 0);
    let registry = CacheRegistry::new();
    let cache = registry.get_or_build(&base, Similarity::Jaccard, &cfg);
    let mut session =
        StreamingSession::from_records(base, Similarity::Jaccard, cfg).with_shared_cache(cache);

    // Entry 2: watch registration — ack plus the full answer at epoch 0.
    let watch = session.watch(0.6);
    let expect_deltas = |watch: &plasma_core::WatchHandle| {
        watch
            .drain()
            .into_iter()
            .map(|delta| Response::WatchDeltaEvent { watch_id: 0, delta }.encode())
            .collect::<Vec<_>>()
    };
    assert_eq!(trace.entries[2].events, expect_deltas(&watch));

    // Entries 3..8: probe/ingest alternation at epochs 0, 1, 2.
    let probe_frame = |session: &mut StreamingSession, threshold: f64| {
        let report = session.probe(threshold);
        let epoch = session.epoch();
        Response::from_probe(report, epoch).encode()
    };
    assert_eq!(trace.entries[3].response, probe_frame(&mut session, 0.5));

    let ingest_frame = |session: &mut StreamingSession,
                        batch: &[plasma_data::vector::SparseVector]| {
        let report = session.ingest(batch);
        Response::Ingested {
            records_added: report.records_added,
            total_records: report.total_records,
            epoch: report.epoch,
            carried_memos: report.carried_memos,
        }
        .encode()
    };
    assert_eq!(
        trace.entries[4].response,
        ingest_frame(&mut session, &corpus(8, 30))
    );
    assert_eq!(
        trace.entries[4].events,
        expect_deltas(&watch),
        "epoch-1 watch delta rides the ingest receipt"
    );
    assert_eq!(trace.entries[5].response, probe_frame(&mut session, 0.5));
    assert_eq!(
        trace.entries[6].response,
        ingest_frame(&mut session, &corpus(6, 38))
    );
    assert_eq!(
        trace.entries[6].events,
        expect_deltas(&watch),
        "epoch-2 watch delta rides the ingest receipt"
    );
    assert_eq!(trace.entries[7].response, probe_frame(&mut session, 0.75));

    // Entry 8: memory stats match the shared cache's own accounting.
    let stats = session
        .shared_cache()
        .expect("cache attached")
        .memory_stats();
    let expected = Response::MemoryStatsResult {
        scope: "corpus".into(),
        entries: stats.entries,
        memo_bytes: stats.memo_bytes,
        sketch_bytes: stats.sketch_bytes,
        bucket_cache_bytes: stats.bucket_cache_bytes,
        bucket_build_records: stats.bucket_build_records,
        capacity_bytes: stats.capacity_bytes,
        evicted_entries: stats.evicted_entries,
        cache_hits: stats.cache_hits,
    };
    assert_eq!(trace.entries[8].response, expected.encode());
}

/// Equality 2: the wire reproduces the recording byte for byte — every
/// response and every watch-delta event frame, at every epoch.
#[test]
fn replay_over_tcp_is_bit_identical() {
    let trace = record_script();
    let (_service, server) = common::boot();
    let addr = server.local_addr();
    trace
        .replay_over_tcp(addr)
        .unwrap_or_else(|divergence| panic!("{divergence}"));
    server.stop();
}

/// Replaying on a *warmed* server must diverge in the work counters —
/// the proof that the bit-identity above is a real assertion and not a
/// comparison that never could fail.
#[test]
fn replay_against_warm_state_diverges() {
    let trace = record_script();
    let (_service, server) = common::boot();
    let addr = server.local_addr();
    trace
        .replay_over_tcp(addr)
        .expect("first replay, fresh server");
    let second = trace.replay_over_tcp(addr);
    let divergence = second.expect_err("second replay hits warm memos");
    assert!(
        divergence.contains("diverged"),
        "unexpected failure shape: {divergence}"
    );
    server.stop();
}

/// Equality 3: the JSON-lines serialization round-trips exactly.
#[test]
fn trace_jsonl_round_trips() {
    let trace = record_script();
    let stored = trace.to_jsonl();
    let reloaded = Trace::from_jsonl(&stored).expect("stored trace parses");
    assert_eq!(reloaded, trace);
}

/// A trace recorded in one process replays against a server in the same
/// suite even when the server was built from the serialized form — the
/// end-to-end shape a stored regression trace goes through.
#[test]
fn stored_trace_replays_over_tcp() {
    let stored = record_script().to_jsonl();
    let reloaded = Trace::from_jsonl(&stored).expect("stored trace parses");
    let service = Arc::new(ProbeService::new());
    let server = ProbeServer::start(service, "127.0.0.1:0").expect("bind");
    reloaded
        .replay_over_tcp(server.local_addr())
        .unwrap_or_else(|divergence| panic!("{divergence}"));
    server.stop();
}
