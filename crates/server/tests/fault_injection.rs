//! Satellite 3 — fault injection: clients dying at the worst moments.
//!
//! A client disconnect — mid-watch-stream, mid-ingest-frame, or right
//! after a request it never reads the answer to — must (a) drop the
//! connection's session, (b) auto-cancel its watch registry entries,
//! and (c) leave the shared cache serving the survivors with outputs
//! identical to a history in which the victim's operations happened and
//! its subscriptions simply ended. The direct-library mirror in each
//! test is that equivalent history.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{attach, corpus, publish, wait_until};
use plasma_core::{ApssConfig, CacheRegistry, StreamingSession};
use plasma_data::similarity::Similarity;
use plasma_server::{ProbeClient, PublishCfg, Request, Response};

/// Victim dies mid-watch-stream: its watch must auto-cancel, and the
/// survivor's subsequent delta and probe frames must be bit-identical
/// to the direct-library history where the victim's watch existed for
/// epoch 1 and was dropped before epoch 2.
#[test]
fn disconnect_mid_watch_stream_cancels_watch_and_spares_survivors() {
    let (service, server) = common::boot();
    let addr = server.local_addr();

    let mut survivor = ProbeClient::connect(addr).expect("connect");
    let fingerprint = publish(&mut survivor, corpus(30, 0), PublishCfg::default());
    attach(&mut survivor, &fingerprint);
    survivor
        .request(&Request::Watch { threshold: 0.6 })
        .expect("survivor watch");
    assert!(survivor
        .poll_event(Duration::from_secs(5))
        .expect("survivor registration delta")
        .is_some());

    let mut victim = ProbeClient::connect(addr).expect("connect");
    attach(&mut victim, &fingerprint);
    victim
        .request(&Request::Watch { threshold: 0.5 })
        .expect("victim watch");
    assert_eq!(service.watch_count(), 2);

    // Epoch 1: both watches live; the victim receives its delta stream.
    survivor
        .request(&Request::Ingest {
            records: corpus(8, 30),
        })
        .expect("epoch-1 ingest");
    let survivor_delta_1 = survivor
        .poll_event(Duration::from_secs(5))
        .expect("survivor epoch-1 delta")
        .expect("survivor epoch-1 delta arrives");
    wait_until("victim's pushed delta", || {
        victim
            .poll_event(Duration::from_millis(50))
            .ok()
            .flatten()
            .is_some()
    });

    // The victim dies mid-stream. The server must notice, drop its
    // session, and cancel its watch.
    victim.abort();
    wait_until("victim session reaped", || {
        service.session_count() == 1 && service.watch_count() == 1
    });

    // Epoch 2: only the survivor's watch fires.
    survivor
        .request(&Request::Ingest {
            records: corpus(6, 38),
        })
        .expect("epoch-2 ingest");
    let survivor_delta_2 = survivor
        .poll_event(Duration::from_secs(5))
        .expect("survivor epoch-2 delta")
        .expect("survivor epoch-2 delta arrives");
    let survivor_probe = survivor
        .request(&Request::Probe { threshold: 0.6 })
        .expect("survivor probe");

    // Direct mirror: same history, victim's watch dropped before epoch 2.
    let cfg = ApssConfig::default();
    let base = corpus(30, 0);
    let registry = CacheRegistry::new();
    let cache = registry.get_or_build(&base, Similarity::Jaccard, &cfg);
    let mut session =
        StreamingSession::from_records(base, Similarity::Jaccard, cfg).with_shared_cache(cache);
    let survivor_watch = session.watch(0.6);
    let fork = session.fork();
    let victim_watch = fork.watch(0.5);
    survivor_watch.drain();
    victim_watch.drain();
    session.ingest(&corpus(8, 30));
    let expect_1 = survivor_watch.drain();
    drop(victim_watch);
    session.ingest(&corpus(6, 38));
    let expect_2 = survivor_watch.drain();
    let expect_probe = {
        let report = session.probe(0.6);
        Response::from_probe(report, session.epoch()).encode()
    };
    let encode_delta = |deltas: Vec<plasma_core::WatchDelta>| {
        let mut frames = deltas
            .into_iter()
            .map(|delta| Response::WatchDeltaEvent { watch_id: 0, delta }.encode());
        frames.next().expect("one delta per epoch")
    };
    assert_eq!(survivor_delta_1.raw, encode_delta(expect_1));
    assert_eq!(survivor_delta_2.raw, encode_delta(expect_2));
    assert_eq!(survivor_probe.raw, expect_probe);
    server.stop();
}

/// Victim dies mid-ingest *frame*: half a frame and no newline. The
/// partial line must be discarded — no growth, no epoch bump, survivor
/// untouched.
#[test]
fn disconnect_mid_ingest_frame_discards_the_batch() {
    let (service, server) = common::boot();
    let addr = server.local_addr();

    let mut survivor = ProbeClient::connect(addr).expect("connect");
    let fingerprint = publish(&mut survivor, corpus(24, 0), PublishCfg::default());
    attach(&mut survivor, &fingerprint);
    let before = survivor
        .request(&Request::Probe { threshold: 0.6 })
        .expect("probe before");

    // Raw socket: attach, then half an ingest frame, then vanish.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let attach_frame = Request::Attach {
        fingerprint: fingerprint.clone(),
        pinned: false,
        declared_measure: None,
    }
    .encode();
    raw.write_all(format!("{attach_frame}\n").as_bytes())
        .expect("raw attach");
    wait_until("raw session attached", || service.session_count() == 2);
    let ingest_frame = Request::Ingest {
        records: corpus(8, 24),
    }
    .encode();
    raw.write_all(&ingest_frame.as_bytes()[..ingest_frame.len() / 2])
        .expect("half a frame");
    raw.flush().expect("flush");
    drop(raw);

    wait_until("victim session reaped", || service.session_count() == 1);
    // The survivor sees the corpus exactly as before: same epoch, and a
    // re-probe is the warmed twin of the first one.
    let after = survivor
        .request(&Request::Probe { threshold: 0.6 })
        .expect("probe after");
    assert_eq!(
        after.json.get("epoch").and_then(|e| e.as_u64()),
        before.json.get("epoch").and_then(|e| e.as_u64()),
        "a half-received ingest must not grow the corpus"
    );
    assert_eq!(
        after.json.get("pairs"),
        before.json.get("pairs"),
        "survivor's pairs changed: {}",
        after.raw
    );
    server.stop();
}

/// Victim sends a complete ingest frame and dies without reading the
/// receipt. The ingest *was* received, so it must apply — the write
/// failure on the dead socket must neither kill the server nor lose the
/// epoch — and the survivor's watch sees the delta.
#[test]
fn disconnect_after_complete_ingest_frame_still_applies() {
    let (service, server) = common::boot();
    let addr = server.local_addr();

    let mut survivor = ProbeClient::connect(addr).expect("connect");
    let fingerprint = publish(&mut survivor, corpus(24, 0), PublishCfg::default());
    attach(&mut survivor, &fingerprint);
    survivor
        .request(&Request::Watch { threshold: 0.6 })
        .expect("survivor watch");
    survivor
        .poll_event(Duration::from_secs(5))
        .expect("registration delta")
        .expect("registration delta arrives");

    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let attach_frame = Request::Attach {
        fingerprint: fingerprint.clone(),
        pinned: false,
        declared_measure: None,
    }
    .encode();
    let ingest_frame = Request::Ingest {
        records: corpus(8, 24),
    }
    .encode();
    raw.write_all(format!("{attach_frame}\n{ingest_frame}\n").as_bytes())
        .expect("attach + full ingest frame");
    raw.flush().expect("flush");
    // Half-close: the frames are on the wire, the sender is gone, and it
    // will never read a receipt. (A full close here would race the
    // server's read of the buffered frames; FIN-after-data is the
    // deterministic version of the same death.)
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");

    // The applied ingest reaches the survivor as a pushed delta.
    let delta = survivor
        .poll_event(Duration::from_secs(10))
        .expect("pushed delta read")
        .expect("epoch-1 delta arrives despite the dead ingester");
    assert_eq!(delta.json.get("epoch").and_then(|e| e.as_u64()), Some(1));
    let probe = survivor
        .request(&Request::Probe { threshold: 0.6 })
        .expect("survivor probe");
    assert_eq!(
        probe.json.get("epoch").and_then(|e| e.as_u64()),
        Some(1),
        "the complete frame must have grown the corpus: {}",
        probe.raw
    );
    wait_until("victim session reaped", || service.session_count() == 1);
    server.stop();
}
