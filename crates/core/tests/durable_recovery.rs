//! Crash-recovery fault injection for the durable snapshot + WAL layer.
//!
//! The contract under test: recovery either reproduces the acked lineage
//! *exactly* — warm probes bit-identical to a cold build of the same
//! corpus — or refuses loudly with a structured [`DurableError`]. Fault
//! classes injected here: torn WAL tail (crash mid-append), corrupt
//! snapshot checksum, snapshot/WAL fingerprint mismatch, the
//! crash-between-snapshot-and-truncate overlap window (both the honest
//! case, which must verify via `is_prefix_of`, and a diverged snapshot,
//! which must be rejected).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use plasma_core::apss::{ApssConfig, CandidateStrategy};
use plasma_core::cache::{CacheCapacity, CacheRegistry};
use plasma_core::durable::{self, CorpusStore, DurableError};
use plasma_core::streaming::StreamingSession;
use plasma_core::ProbeReport;
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;

/// Unique scratch directory per test, removed on drop (best effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "plasma-durable-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dataset(n: usize, seed: u64) -> Vec<SparseVector> {
    GaussianSpec {
        separation: 3.5,
        spread: 0.7,
        ..GaussianSpec::new("durable", n, 6, 3)
    }
    .generate(seed)
    .records
}

fn test_cfg() -> ApssConfig {
    ApssConfig {
        n_hashes: 64,
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        parallelism: Some(1),
        ..ApssConfig::default()
    }
}

/// Probes must match bit for bit — pairs and decision counters always;
/// work counters too when both sides start memo-cold (`work_counters`),
/// since warmth is then deterministic.
fn assert_same_probe_inner(a: &ProbeReport, b: &ProbeReport, work_counters: bool, label: &str) {
    assert_eq!(a.pairs.len(), b.pairs.len(), "{label}: pair count");
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((x.i, x.j), (y.i, y.j), "{label}: pair ids");
        assert_eq!(
            x.similarity.to_bits(),
            y.similarity.to_bits(),
            "{label}: similarity of ({}, {})",
            x.i,
            x.j
        );
    }
    assert_eq!(a.candidates, b.candidates, "{label}: candidates");
    assert_eq!(a.pruned, b.pruned, "{label}: pruned");
    if work_counters {
        assert_eq!(a.cache_hits, b.cache_hits, "{label}: cache hits");
        assert_eq!(
            a.hashes_compared, b.hashes_compared,
            "{label}: hashes compared"
        );
    }
}

fn assert_same_probe(a: &ProbeReport, b: &ProbeReport, label: &str) {
    assert_same_probe_inner(a, b, true, label);
}

/// Builds a live session over `base` records, snapshots it at epoch 0,
/// then ingests each batch WAL-first (the serving layer's
/// append-before-ack order). Returns the store and live session.
fn seed_store(
    dir: &Path,
    base: &[SparseVector],
    batches: &[&[SparseVector]],
) -> (CorpusStore, StreamingSession, u128) {
    let cfg = test_cfg();
    let fp = CacheRegistry::fingerprint(base, Similarity::Jaccard, &cfg);
    let mut live = StreamingSession::from_records(base.to_vec(), Similarity::Jaccard, cfg);
    // An empty ingest builds the cache without bumping the epoch, so the
    // publish-time snapshot sees epoch 0 sketches.
    live.ingest(&[]);
    let (records, sketches, epoch) = live.persist_view().expect("cache built");
    assert_eq!(epoch, 0);
    let store = CorpusStore::open(dir, fp).expect("open store");
    store.write_snapshot(&records, &sketches).expect("snapshot");
    for batch in batches {
        let report = live.ingest(batch);
        store
            .append_ingest(
                report.epoch,
                report.total_records - report.records_added,
                batch,
            )
            .expect("wal append");
    }
    (store, live, fp)
}

fn recover(dir: &Path) -> Result<durable::RecoveredCorpus, DurableError> {
    durable::recover(
        dir,
        Similarity::Jaccard,
        test_cfg(),
        CacheCapacity::unbounded(),
    )
}

/// A cold session over the same corpus prefix, probed identically — the
/// bit-identical reference for every warm restart.
fn cold_session(records: &[SparseVector]) -> StreamingSession {
    StreamingSession::from_records(records.to_vec(), Similarity::Jaccard, test_cfg())
}

#[test]
fn warm_restart_replays_wal_tail_bit_identically() {
    let tmp = TempDir::new("warm");
    let all = dataset(48, 11);
    let (b1, b2) = (&all[28..37], &all[37..48]);
    let (_store, _live, fp) = seed_store(tmp.path(), &all[..28], &[b1, b2]);

    let rec = recover(tmp.path()).expect("recovery succeeds");
    assert_eq!(rec.fingerprint, fp);
    assert_eq!(rec.snapshot_epoch, 0);
    assert_eq!(rec.snapshot_records, 28);
    assert_eq!(rec.epoch, 2);
    assert_eq!(rec.replayed_entries, 2);
    assert_eq!(rec.replayed_records, 20);
    assert!(!rec.wal_tail_discarded);

    let mut warm = rec.session;
    assert_eq!(warm.len(), 48);
    let mut cold = cold_session(&all);
    for threshold in [0.85, 0.65, 0.5] {
        assert_same_probe(
            &warm.probe(threshold),
            &cold.probe(threshold),
            &format!("threshold {threshold}"),
        );
    }

    // The recovered lineage keeps growing through the normal path: a
    // post-recovery ingest reaches epoch 3 and still matches cold.
    let extra = dataset(8, 99);
    let report = warm.ingest(&extra);
    assert_eq!(report.epoch, 3);
    let mut grown_cold = cold_session(&{
        let mut v = all.clone();
        v.extend_from_slice(&extra);
        v
    });
    // The warm session's earlier probes left memos behind, so only the
    // outputs (not work counters) are comparable against a fresh build.
    assert_same_probe_inner(
        &warm.probe(0.65),
        &grown_cold.probe(0.65),
        false,
        "post-recovery",
    );
}

#[test]
fn snapshot_only_restart_needs_no_wal_replay() {
    let tmp = TempDir::new("snap-only");
    let all = dataset(40, 5);
    let (store, live, _) = seed_store(tmp.path(), &all[..25], &[&all[25..40]]);
    // A snapshotter pass captures epoch 1 and truncates the log.
    let (records, sketches, epoch) = live.persist_view().expect("view");
    assert_eq!(epoch, 1);
    store.write_snapshot(&records, &sketches).expect("snapshot");
    assert!(store.wal_bytes() < 64, "snapshot must truncate the WAL");

    let rec = recover(tmp.path()).expect("recovery succeeds");
    assert_eq!(rec.snapshot_epoch, 1);
    assert_eq!(rec.epoch, 1);
    assert_eq!(rec.replayed_entries, 0);
    let mut warm = rec.session;
    let mut cold = cold_session(&all);
    assert_same_probe(&warm.probe(0.65), &cold.probe(0.65), "snapshot-only");
}

#[test]
fn torn_wal_tail_recovers_to_last_acked_epoch() {
    let tmp = TempDir::new("torn");
    let all = dataset(44, 23);
    let (b1, b2) = (&all[26..34], &all[34..44]);
    let (store, _live, _) = seed_store(tmp.path(), &all[..26], &[b1, b2]);

    // Crash mid-append: the final entry loses its last 7 bytes. That
    // entry was never acked, so recovery must serve epoch 1 (batch 1
    // acked and intact) and report the discard.
    drop(store);
    let wal = tmp.path().join("wal.bin");
    let len = std::fs::metadata(&wal).expect("wal meta").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal");
    f.set_len(len - 7).expect("truncate");

    let rec = recover(tmp.path()).expect("torn tail must still recover");
    assert!(rec.wal_tail_discarded, "discard must be reported");
    assert_eq!(rec.epoch, 1, "only the acked epoch survives");
    assert_eq!(rec.replayed_entries, 1);
    let mut warm = rec.session;
    assert_eq!(warm.len(), 34);
    let mut cold = cold_session(&all[..34]);
    assert_same_probe(&warm.probe(0.65), &cold.probe(0.65), "torn tail");
}

#[test]
fn corrupt_snapshot_checksum_is_a_structured_refusal() {
    let tmp = TempDir::new("corrupt");
    let all = dataset(36, 31);
    seed_store(tmp.path(), &all[..30], &[&all[30..36]]);

    let snap = std::fs::read_dir(tmp.path())
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("snapshot-"))
        })
        .expect("snapshot file exists");
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).expect("write corrupted");

    match recover(tmp.path()) {
        Err(DurableError::CorruptSnapshot { path, detail }) => {
            assert_eq!(path, snap);
            assert!(
                detail.contains("checksum") || detail.contains("truncated"),
                "detail should name the failure: {detail}"
            );
        }
        Err(other) => panic!("wrong refusal: {other}"),
        Ok(_) => panic!("corrupt snapshot must not recover"),
    }
}

#[test]
fn fingerprint_mismatch_is_a_structured_refusal() {
    let tmp = TempDir::new("fp");
    let all = dataset(32, 41);
    let (store, _live, fp) = seed_store(tmp.path(), &all[..32], &[]);
    drop(store);

    // Replace the WAL with one from a different lineage: same directory,
    // different fingerprint, one entry so it is not header-only.
    std::fs::remove_file(tmp.path().join("wal.bin")).expect("drop wal");
    let alien = CorpusStore::open(tmp.path(), fp ^ 0xDEAD_BEEF).expect("alien store");
    alien
        .append_ingest(1, 32, &dataset(4, 77))
        .expect("alien append");

    match recover(tmp.path()) {
        Err(DurableError::FingerprintMismatch { snapshot, wal }) => {
            assert_eq!(snapshot, fp);
            assert_eq!(wal, fp ^ 0xDEAD_BEEF);
        }
        Err(other) => panic!("wrong refusal: {other}"),
        Ok(_) => panic!("mismatched lineages must not recover"),
    }
}

#[test]
fn crash_between_snapshot_and_truncate_verifies_overlap() {
    let tmp = TempDir::new("overlap");
    let all = dataset(42, 53);
    let b1 = &all[27..42];
    let (store, live, _) = seed_store(tmp.path(), &all[..27], &[b1]);

    // Simulate the crash window: a snapshot at epoch 1 exists but the
    // WAL still holds the epoch-1 entry (truncation never happened).
    // `write_snapshot` truncates atomically, so rebuild that state by
    // hand: snapshot, then re-append the same entry.
    let (records, sketches, _) = live.persist_view().expect("view");
    store.write_snapshot(&records, &sketches).expect("snapshot");
    store.append_ingest(1, 27, b1).expect("stale overlap entry");

    // The overlap replays, passes `is_prefix_of`, and serves epoch 1.
    let rec = recover(tmp.path()).expect("honest overlap must verify");
    assert_eq!(rec.snapshot_epoch, 1);
    assert_eq!(rec.epoch, 1);
    assert_eq!(rec.replayed_entries, 0, "overlap is verified, not replayed");
    let mut warm = rec.session;
    let mut cold = cold_session(&all);
    assert_same_probe(&warm.probe(0.65), &cold.probe(0.65), "overlap window");
}

#[test]
fn diverged_snapshot_is_rejected_by_the_prefix_check() {
    let tmp = TempDir::new("diverged");
    let all = dataset(42, 67);
    let b1 = &all[27..42];
    let (store, live, _) = seed_store(tmp.path(), &all[..27], &[b1]);
    let (records, sketches, _) = live.persist_view().expect("view");
    store.write_snapshot(&records, &sketches).expect("snapshot");

    // The WAL claims epoch 1 was a *different* batch than the snapshot
    // absorbed: `is_prefix_of` must reject the snapshot as diverged.
    let mut wrong = b1.to_vec();
    wrong[0] = SparseVector::from_pairs(vec![(1, 1.0), (99999, 42.0)]);
    store.append_ingest(1, 27, &wrong).expect("diverged entry");

    match recover(tmp.path()) {
        Err(DurableError::DivergedSnapshot { epoch, detail }) => {
            assert_eq!(epoch, 1);
            assert!(
                detail.contains("different sketch words"),
                "detail should say what diverged: {detail}"
            );
        }
        Err(other) => panic!("wrong refusal: {other}"),
        Ok(_) => panic!("a diverged snapshot must never serve"),
    }
}

#[test]
fn empty_directory_refuses_with_missing_snapshot() {
    let tmp = TempDir::new("empty");
    match recover(tmp.path()) {
        Err(DurableError::MissingSnapshot { dir }) => assert_eq!(dir, tmp.path()),
        Err(other) => panic!("wrong refusal: {other}"),
        Ok(_) => panic!("an empty directory has nothing to recover"),
    }
}

#[test]
fn group_commit_coalesces_queued_appends_into_one_sync() {
    let tmp = TempDir::new("group-det");
    let all = dataset(44, 13);
    let (store, mut live, _) = seed_store(tmp.path(), &all[..26], &[]);

    // Log three batches without waiting, then wait on the *last* mark:
    // one sync must cover all three, and the earlier waits must ride it.
    let mut marks = Vec::new();
    for (lo, hi) in [(26, 32), (32, 38), (38, 44)] {
        let report = live.ingest(&all[lo..hi]);
        let mark = store
            .log_ingest(report.epoch, lo, &all[lo..hi])
            .expect("log entry");
        marks.push(mark);
    }
    store.wait_durable(marks[2]).expect("leader sync");
    store.wait_durable(marks[0]).expect("covered follower");
    store.wait_durable(marks[1]).expect("covered follower");

    let stats = store.sync_stats();
    assert_eq!(stats.acked_appends, 3, "all three batches acked");
    assert_eq!(stats.syncs, 1, "one covering sync paid for all acks");
    assert!(
        stats.syncs < stats.acked_appends,
        "group commit must coalesce: {} syncs for {} acks",
        stats.syncs,
        stats.acked_appends
    );

    // The coalesced log recovers bit-identically to a cold build.
    drop(store);
    let rec = recover(tmp.path()).expect("recovery succeeds");
    assert_eq!(rec.epoch, 3);
    let mut warm = rec.session;
    let mut cold = cold_session(&all);
    assert_same_probe(&warm.probe(0.65), &cold.probe(0.65), "group commit");
}

#[test]
fn concurrent_multi_writer_ingest_group_commits_and_recovers() {
    use std::sync::atomic::AtomicUsize;

    let tmp = TempDir::new("group-mt");
    let all = dataset(74, 17);
    let (store, live, _) = seed_store(tmp.path(), &all[..26], &[]);

    // 4 writers race over 24 two-record batches, each reproducing the
    // serving layer's split: engine-mutate + WAL-log under one exclusion,
    // covering-sync wait outside it — which is what lets syncs coalesce.
    let batches: Vec<&[SparseVector]> = all[26..74].chunks(2).collect();
    let engine = Mutex::new(live);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= batches.len() {
                    break;
                }
                let mark = {
                    let mut session = engine.lock().expect("engine lock");
                    let report = session.ingest(batches[i]);
                    store
                        .log_ingest(
                            report.epoch,
                            report.total_records - report.records_added,
                            batches[i],
                        )
                        .expect("log entry")
                };
                store.wait_durable(mark).expect("covering sync");
            });
        }
    });

    let stats = store.sync_stats();
    assert_eq!(stats.acked_appends, 24, "every batch acked durable");
    assert!(
        stats.syncs <= stats.acked_appends,
        "syncs ({}) can never exceed acks ({})",
        stats.syncs,
        stats.acked_appends
    );

    // Whatever the interleaving, recovery is bit-identical to cold.
    drop(store);
    let rec = recover(tmp.path()).expect("recovery succeeds");
    assert_eq!(rec.epoch, 24);
    let mut warm = rec.session;
    assert_eq!(warm.len(), 74);
    let mut cold = cold_session(&all);
    for threshold in [0.85, 0.65] {
        assert_same_probe(
            &warm.probe(threshold),
            &cold.probe(threshold),
            &format!("multi-writer threshold {threshold}"),
        );
    }
}

#[test]
fn never_synced_tail_is_discarded_and_reported() {
    let tmp = TempDir::new("unsynced-tail");
    let all = dataset(44, 29);
    let b1 = &all[26..34];
    let b2 = &all[34..44];
    let (store, mut live, _) = seed_store(tmp.path(), &all[..26], &[b1]);

    // Batch 2 is logged but the process "crashes" before any covering
    // sync: no wait_durable, so it was never acked. Tear its entry the
    // way an unflushed page-cache tail would be lost.
    let report = live.ingest(b2);
    store
        .log_ingest(report.epoch, 34, b2)
        .expect("log unsynced entry");
    assert_eq!(store.sync_stats().acked_appends, 1, "batch 2 never acked");
    drop(store);
    let wal = tmp.path().join("wal.bin");
    let len = std::fs::metadata(&wal).expect("wal meta").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal");
    f.set_len(len - 5).expect("tear unsynced tail");

    // Recovery discards the tail, says so, and serves exactly the acked
    // prefix — bit-identical to a cold build of those records.
    let rec = recover(tmp.path()).expect("recovery succeeds");
    assert!(rec.wal_tail_discarded, "discard must be reported");
    assert_eq!(rec.epoch, 1, "only the acked epoch survives");
    let mut warm = rec.session;
    assert_eq!(warm.len(), 34);
    let mut cold = cold_session(&all[..34]);
    assert_same_probe(&warm.probe(0.65), &cold.probe(0.65), "unsynced tail");
}

#[test]
fn config_mismatch_refuses_before_touching_the_engine() {
    let tmp = TempDir::new("config");
    let all = dataset(30, 71);
    seed_store(tmp.path(), &all, &[]);
    let other_seed = ApssConfig {
        seed: 0x1234,
        ..test_cfg()
    };
    match durable::recover(
        tmp.path(),
        Similarity::Jaccard,
        other_seed,
        CacheCapacity::unbounded(),
    ) {
        Err(DurableError::ConfigMismatch { detail }) => {
            assert!(
                detail.contains("seed"),
                "detail should name the knob: {detail}"
            );
        }
        Err(other) => panic!("wrong refusal: {other}"),
        Ok(_) => panic!("a different seed is a different lineage"),
    }
}
