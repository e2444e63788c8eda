//! Durable corpus state: versioned snapshots plus an ingest WAL, so a
//! serving process restarts *warm* instead of re-sketching every corpus.
//!
//! # Layout
//!
//! One directory per corpus lineage holds:
//!
//! * `snapshot-<epoch>.bin` — a full image of the segmented sketch store
//!   at one epoch: sketch words, seed, epoch, segment geometry, dataset
//!   fingerprint, and the raw records. Length-prefixed binary, one
//!   checksum per section, written to a temp file and atomically renamed.
//! * `wal.bin` — an append-only log of ingest batches since the last
//!   snapshot. Each entry is length-prefixed and checksummed; the serving
//!   layer appends (and syncs) *before* acking an ingest, so an acked
//!   batch is never lost to a crash.
//!
//! # Recovery
//!
//! [`recover`] loads the newest parseable snapshot, refuses a WAL whose
//! header fingerprint disagrees ([`DurableError::FingerprintMismatch`]),
//! and replays the log. Entries at epochs the snapshot already covers are
//! the crash-between-snapshot-and-truncate overlap: they are re-sketched
//! onto the snapshot's own prefix and the result must satisfy
//! [`SketchSet::is_prefix_of`] against the snapshot — the PR 5 lineage
//! check doing exactly the job it was built for; divergence is refused
//! loudly ([`DurableError::DivergedSnapshot`]), never served. Entries past
//! the snapshot's epoch replay through the normal
//! [`StreamingSession::ingest`] path (`extend_batch` + cache `grow`), so
//! the recovered process reaches the same sketch bytes, epoch, and bucket
//! state a live process would have — which is why a warm restart cannot
//! change any probe or watch output. A torn final entry (crash mid-append)
//! is discarded silently: it was never acked.
//!
//! Checksums are FNV-1a 64 — not cryptographic, exactly like the
//! registry's Fx fingerprint: this guards against torn writes and bit
//! rot, not adversarial tampering.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::{LshFamily, SketchSet, Sketcher};

use crate::apss::ApssConfig;
use crate::cache::{CacheCapacity, SharedKnowledgeCache};
use crate::streaming::StreamingSession;

const SNAPSHOT_MAGIC: &[u8; 8] = b"PLSMSNAP";
const WAL_MAGIC: &[u8; 8] = b"PLSMWAL\0";
const FORMAT_VERSION: u32 = 1;

/// Bytes of the fixed WAL header (magic + version + fingerprint): a WAL
/// at exactly this size holds no entries. Serving-layer snapshot
/// schedulers compare [`CorpusStore::wal_bytes`] against this to decide
/// whether anything has accumulated since the last snapshot.
pub const WAL_HEADER_BYTES: u64 = 28;

/// Section tags inside a snapshot file.
const SECTION_META: u32 = 1;
const SECTION_WORDS: u32 = 2;
const SECTION_RECORDS: u32 = 3;

/// Why durable state could not be written or recovered. Every variant is
/// a *loud, structured* refusal — recovery never silently serves state it
/// cannot prove is the acked lineage.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem trouble talking to the data directory.
    Io(std::io::Error),
    /// The corpus directory holds no parseable snapshot at all.
    MissingSnapshot {
        /// The directory that was scanned.
        dir: PathBuf,
    },
    /// A snapshot file failed framing or checksum verification.
    CorruptSnapshot {
        /// The offending file.
        path: PathBuf,
        /// What failed (section, checksum, length).
        detail: String,
    },
    /// The WAL header's dataset fingerprint disagrees with the
    /// snapshot's — the two files are not from the same lineage.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot META section.
        snapshot: u128,
        /// Fingerprint recorded in the WAL header.
        wal: u128,
    },
    /// Replaying the WAL's overlap does not reproduce the snapshot's
    /// sketch words: `SketchSet::is_prefix_of` rejected the snapshot as
    /// diverged from the logged lineage.
    DivergedSnapshot {
        /// The snapshot epoch that failed verification.
        epoch: u64,
        /// What diverged.
        detail: String,
    },
    /// A checksum-valid WAL is not a contiguous epoch/record lineage
    /// (gap, overlap misalignment, or an entry at an impossible epoch).
    CorruptWal {
        /// The log file.
        path: PathBuf,
        /// What broke contiguity.
        detail: String,
    },
    /// The on-disk state was written under a different sketch
    /// configuration than the one supplied for recovery.
    ConfigMismatch {
        /// Which knob disagrees, with both values.
        detail: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "durable i/o error: {e}"),
            Self::MissingSnapshot { dir } => {
                write!(f, "no parseable snapshot in {}", dir.display())
            }
            Self::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            Self::FingerprintMismatch { snapshot, wal } => write!(
                f,
                "snapshot/WAL fingerprint mismatch: snapshot {snapshot:032x}, wal {wal:032x}"
            ),
            Self::DivergedSnapshot { epoch, detail } => write!(
                f,
                "snapshot at epoch {epoch} diverged from the WAL lineage: {detail}"
            ),
            Self::CorruptWal { path, detail } => {
                write!(f, "corrupt WAL {}: {detail}", path.display())
            }
            Self::ConfigMismatch { detail } => {
                write!(f, "recovery config mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// FNV-1a 64 over a byte slice — the per-section / per-entry checksum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian cursor over untrusted bytes; every read is bounds-checked
/// and `None` means "truncated here".
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|b| u128::from_le_bytes(b.try_into().expect("16 bytes")))
    }
}

/// Serializes records as `count · (nnz, dims, weight bits)` — the shared
/// payload shape of the snapshot RECORDS section and every WAL entry.
fn encode_records(buf: &mut Vec<u8>, records: &[SparseVector]) {
    push_u64(buf, records.len() as u64);
    for r in records {
        push_u32(buf, r.nnz() as u32);
        for &d in r.dims() {
            push_u32(buf, d);
        }
        for &w in r.weights() {
            push_u64(buf, w.to_bits());
        }
    }
}

/// Inverse of [`encode_records`]; `None` on any truncation. Round-trips
/// exactly: dims are stored sorted-unique, so `from_pairs` rebuilds a
/// bit-identical vector (same dims, same weight bits) and therefore the
/// same registry fingerprint.
fn decode_records(r: &mut Reader<'_>) -> Option<Vec<SparseVector>> {
    let count = r.u64()? as usize;
    // Cheap sanity bound: each record needs at least its nnz word.
    if count > r.remaining() {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let nnz = r.u32()? as usize;
        if nnz.checked_mul(12)? > r.remaining() {
            return None;
        }
        let mut dims = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            dims.push(r.u32()?);
        }
        let mut pairs = Vec::with_capacity(nnz);
        for &d in &dims {
            pairs.push((d, f64::from_bits(r.u64()?)));
        }
        out.push(SparseVector::from_pairs(pairs));
    }
    Some(out)
}

fn family_tag(family: LshFamily) -> u8 {
    match family {
        LshFamily::MinHash => 0,
        LshFamily::SimHash => 1,
    }
}

fn family_from_tag(tag: u8) -> Option<LshFamily> {
    match tag {
        0 => Some(LshFamily::MinHash),
        1 => Some(LshFamily::SimHash),
        _ => None,
    }
}

/// A fully decoded snapshot: everything needed to restore the segmented
/// sketch store and its records bit-identically.
struct SnapshotState {
    fingerprint: u128,
    family: LshFamily,
    n_hashes: usize,
    seed: u64,
    segment_records: usize,
    epoch: u64,
    records: Vec<SparseVector>,
    words: Vec<u64>,
}

/// Serializes one snapshot: header, then META / WORDS / RECORDS sections,
/// each framed `tag · len · payload · checksum(payload)`.
fn encode_snapshot(fingerprint: u128, records: &[SparseVector], sketches: &SketchSet) -> Vec<u8> {
    assert_eq!(
        records.len(),
        sketches.len(),
        "snapshot records and sketches must cover the same corpus"
    );
    let stride = SketchSet::words_per_record(sketches.family(), sketches.n_hashes());
    let mut meta = Vec::with_capacity(64);
    push_u128(&mut meta, fingerprint);
    meta.push(family_tag(sketches.family()));
    push_u64(&mut meta, sketches.n_hashes() as u64);
    push_u64(&mut meta, sketches.seed());
    push_u64(&mut meta, sketches.segment_records() as u64);
    push_u64(&mut meta, sketches.epoch());
    push_u64(&mut meta, sketches.len() as u64);
    push_u64(&mut meta, (sketches.len() * stride) as u64);

    let mut words = Vec::with_capacity(sketches.len() * stride * 8);
    for run in sketches.word_segments() {
        for &w in run {
            push_u64(&mut words, w);
        }
    }

    let mut recs = Vec::new();
    encode_records(&mut recs, records);

    let mut out = Vec::with_capacity(words.len() + recs.len() + 128);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    for (tag, payload) in [
        (SECTION_META, &meta),
        (SECTION_WORDS, &words),
        (SECTION_RECORDS, &recs),
    ] {
        push_u32(&mut out, tag);
        push_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        push_u64(&mut out, checksum(payload));
    }
    out
}

/// Parses and verifies one snapshot file's bytes.
fn parse_snapshot(path: &Path, bytes: &[u8]) -> Result<SnapshotState, DurableError> {
    let corrupt = |detail: String| DurableError::CorruptSnapshot {
        path: path.to_path_buf(),
        detail,
    };
    let mut r = Reader::new(bytes);
    match r.take(8) {
        Some(magic) if magic == SNAPSHOT_MAGIC => {}
        _ => return Err(corrupt("bad magic".into())),
    }
    match r.u32() {
        Some(FORMAT_VERSION) => {}
        Some(v) => return Err(corrupt(format!("unsupported version {v}"))),
        None => return Err(corrupt("truncated header".into())),
    }
    let mut section = |want: u32| -> Result<&[u8], DurableError> {
        let tag = r
            .u32()
            .ok_or_else(|| corrupt("truncated section tag".into()))?;
        if tag != want {
            return Err(corrupt(format!("expected section {want}, found {tag}")));
        }
        let len = r
            .u64()
            .ok_or_else(|| corrupt("truncated section length".into()))? as usize;
        let payload = r
            .take(len)
            .ok_or_else(|| corrupt(format!("section {want} truncated at {len} bytes")))?;
        let want_sum = r
            .u64()
            .ok_or_else(|| corrupt(format!("section {want} missing checksum")))?;
        if checksum(payload) != want_sum {
            return Err(corrupt(format!("section {want} checksum mismatch")));
        }
        Ok(payload)
    };

    let meta = section(SECTION_META)?;
    let words_raw = section(SECTION_WORDS)?;
    let recs_raw = section(SECTION_RECORDS)?;

    let mut m = Reader::new(meta);
    let parse =
        |field: &str, v: Option<u64>| v.ok_or_else(|| corrupt(format!("META missing {field}")));
    let fingerprint = m
        .u128()
        .ok_or_else(|| corrupt("META missing fingerprint".into()))?;
    let family_tag = m
        .take(1)
        .ok_or_else(|| corrupt("META missing family".into()))?[0];
    let family = family_from_tag(family_tag)
        .ok_or_else(|| corrupt(format!("unknown hash family tag {family_tag}")))?;
    let n_hashes = parse("n_hashes", m.u64())? as usize;
    let seed = parse("seed", m.u64())?;
    let segment_records = parse("segment_records", m.u64())? as usize;
    let epoch = parse("epoch", m.u64())?;
    let record_count = parse("records", m.u64())? as usize;
    let word_count = parse("word count", m.u64())? as usize;

    let stride = SketchSet::words_per_record(family, n_hashes);
    if word_count != record_count * stride {
        return Err(corrupt(format!(
            "META claims {word_count} words for {record_count} records of stride {stride}"
        )));
    }
    if words_raw.len() != word_count * 8 {
        return Err(corrupt(format!(
            "WORDS section holds {} bytes, META claims {word_count} words",
            words_raw.len()
        )));
    }
    let words: Vec<u64> = words_raw
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();

    let mut rr = Reader::new(recs_raw);
    let records =
        decode_records(&mut rr).ok_or_else(|| corrupt("RECORDS section truncated".into()))?;
    if rr.remaining() != 0 {
        return Err(corrupt("RECORDS section has trailing bytes".into()));
    }
    if records.len() != record_count {
        return Err(corrupt(format!(
            "RECORDS holds {} records, META claims {record_count}",
            records.len()
        )));
    }
    Ok(SnapshotState {
        fingerprint,
        family,
        n_hashes,
        seed,
        segment_records,
        epoch,
        records,
        words,
    })
}

/// One decoded WAL entry: the batch one acked ingest appended.
pub struct WalEntry {
    /// The corpus epoch *after* this batch was adopted (epoch 0 is the
    /// published corpus, so entries start at 1).
    pub epoch: u64,
    /// Record index the batch starts at — `len()` before the ingest.
    pub start_record: u64,
    /// The batch's records, bit-exact.
    pub batch: Vec<SparseVector>,
}

/// A decoded WAL: header fingerprint, parseable entries, and whether a
/// torn tail was discarded.
pub struct WalContents {
    /// Lineage fingerprint from the header.
    pub fingerprint: u128,
    /// Every checksum-valid entry, in append order.
    pub entries: Vec<WalEntry>,
    /// True when trailing bytes failed framing/checksum and were dropped —
    /// a crash mid-append; the torn entry was never acked, so discarding
    /// it is the correct recovery.
    pub tail_discarded: bool,
}

fn wal_header(fingerprint: u128) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_BYTES as usize);
    out.extend_from_slice(WAL_MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u128(&mut out, fingerprint);
    out
}

/// Decodes a WAL file's bytes. Framing or checksum failure part-way
/// through is a *torn tail*: everything before it is returned, everything
/// from it on is discarded. A bad header is [`DurableError::CorruptWal`].
fn parse_wal(path: &Path, bytes: &[u8]) -> Result<WalContents, DurableError> {
    let corrupt = |detail: String| DurableError::CorruptWal {
        path: path.to_path_buf(),
        detail,
    };
    let mut r = Reader::new(bytes);
    match r.take(8) {
        Some(magic) if magic == WAL_MAGIC => {}
        _ => return Err(corrupt("bad magic".into())),
    }
    match r.u32() {
        Some(FORMAT_VERSION) => {}
        Some(v) => return Err(corrupt(format!("unsupported version {v}"))),
        None => return Err(corrupt("truncated header".into())),
    }
    let fingerprint = r
        .u128()
        .ok_or_else(|| corrupt("truncated header fingerprint".into()))?;
    let mut entries = Vec::new();
    let mut tail_discarded = false;
    while r.remaining() > 0 {
        let entry = (|| {
            let len = r.u64()? as usize;
            let want_sum = r.u64()?;
            let payload = r.take(len)?;
            if checksum(payload) != want_sum {
                return None;
            }
            let mut p = Reader::new(payload);
            let epoch = p.u64()?;
            let start_record = p.u64()?;
            let batch = decode_records(&mut p)?;
            if p.remaining() != 0 {
                return None;
            }
            Some(WalEntry {
                epoch,
                start_record,
                batch,
            })
        })();
        match entry {
            Some(e) => entries.push(e),
            None => {
                tail_discarded = true;
                break;
            }
        }
    }
    Ok(WalContents {
        fingerprint,
        entries,
        tail_discarded,
    })
}

/// Reads and decodes a corpus directory's WAL, or `None` when no log
/// exists yet.
pub fn read_wal(dir: &Path) -> Result<Option<WalContents>, DurableError> {
    let path = dir.join("wal.bin");
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    parse_wal(&path, &bytes).map(Some)
}

/// The durable half of one served corpus: its directory, lineage
/// fingerprint, and open WAL handle. All methods are individually
/// thread-safe; callers that need ingest/snapshot *atomicity with the
/// in-memory engine* (the serving layer) must additionally serialize
/// those two operations against each other — see
/// `ProbeService::snapshot_corpora`.
pub struct CorpusStore {
    dir: PathBuf,
    fingerprint: u128,
    wal: Mutex<WalHandle>,
    /// Duplicate handle to `wal.bin` (same file description) used for
    /// `sync_data` *outside* the append lock, so a leader's fsync never
    /// blocks concurrent appenders from writing into the page cache.
    sync_file: File,
    sync: Mutex<SyncProgress>,
    synced_cv: Condvar,
    acked_appends: AtomicU64,
    append_syncs: AtomicU64,
}

struct WalHandle {
    file: File,
    bytes: u64,
}

/// Group-commit bookkeeping: monotone byte marks independent of WAL
/// truncation, so a snapshot restarting the log cannot confuse a waiter.
struct SyncProgress {
    /// Total WAL entry bytes ever appended (never reset).
    appended: u64,
    /// Prefix of `appended` known durable — covered by an fsync or by a
    /// snapshot that subsumed the log.
    synced: u64,
    /// A leader's fsync is in flight; late arrivals wait instead of
    /// issuing their own.
    leader: bool,
}

/// Group-commit counters: how many ingest batches were acked durable and
/// how many `sync_data` calls paid for them. Coalescing shows up as
/// `syncs < acked_appends` under concurrent writers; a strictly serial
/// writer sees them equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalSyncStats {
    /// Ingest batches acked after a covering sync.
    pub acked_appends: u64,
    /// `sync_data` calls issued on behalf of those acks.
    pub syncs: u64,
}

impl CorpusStore {
    /// Opens (creating if needed) a corpus directory and its WAL. A
    /// pre-existing WAL must carry the same fingerprint —
    /// [`DurableError::FingerprintMismatch`] otherwise.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u128) -> Result<Self, DurableError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let path = dir.join("wal.bin");
        let fresh = !path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut bytes = file.metadata()?.len();
        if fresh || bytes == 0 {
            let header = wal_header(fingerprint);
            file.write_all(&header)?;
            file.sync_data()?;
            bytes = header.len() as u64;
        } else {
            // Validate only the header here (entries are parsed at
            // recovery); a short or alien header is a loud error.
            let mut head = vec![0u8; (WAL_HEADER_BYTES as usize).min(bytes as usize)];
            let mut reader = File::open(&path)?;
            reader.read_exact(&mut head)?;
            let contents = parse_wal(&path, &head)?;
            if contents.fingerprint != fingerprint {
                return Err(DurableError::FingerprintMismatch {
                    snapshot: fingerprint,
                    wal: contents.fingerprint,
                });
            }
        }
        let sync_file = file.try_clone()?;
        Ok(Self {
            dir,
            fingerprint,
            wal: Mutex::new(WalHandle { file, bytes }),
            sync_file,
            sync: Mutex::new(SyncProgress {
                appended: 0,
                synced: 0,
                leader: false,
            }),
            synced_cv: Condvar::new(),
            acked_appends: AtomicU64::new(0),
            append_syncs: AtomicU64::new(0),
        })
    }

    /// The lineage fingerprint this store was opened under.
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current WAL size in bytes (header included) — the background
    /// snapshotter's truncation trigger.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.lock().expect("wal lock").bytes
    }

    /// Appends one adopted ingest batch to the WAL and waits until a sync
    /// covers it. The serving layer calls this *before* acking the
    /// ingest, so every acked batch survives a crash.
    ///
    /// Concurrent appenders **group-commit**: the first waiter becomes
    /// the sync leader and issues one `sync_data` covering every byte
    /// appended so far; the rest wait on the synced offset instead of
    /// paying their own fsync. [`Self::sync_stats`] exposes the
    /// coalescing ratio.
    pub fn append_ingest(
        &self,
        epoch: u64,
        start_record: usize,
        batch: &[SparseVector],
    ) -> Result<(), DurableError> {
        let mark = self.log_ingest(epoch, start_record, batch)?;
        self.wait_durable(mark)
    }

    /// Writes one ingest entry into the WAL *without* syncing, returning
    /// a mark to hand to [`Self::wait_durable`]. Split out so a caller
    /// holding a broader exclusion (the serving layer's per-corpus
    /// persist lock) can log under the lock but wait for the covering
    /// sync outside it — which is what lets concurrent ingests coalesce
    /// into one fsync at all.
    pub fn log_ingest(
        &self,
        epoch: u64,
        start_record: usize,
        batch: &[SparseVector],
    ) -> Result<u64, DurableError> {
        let mut payload = Vec::new();
        push_u64(&mut payload, epoch);
        push_u64(&mut payload, start_record as u64);
        encode_records(&mut payload, batch);
        let mut entry = Vec::with_capacity(payload.len() + 16);
        push_u64(&mut entry, payload.len() as u64);
        push_u64(&mut entry, checksum(&payload));
        entry.extend_from_slice(&payload);
        let mut wal = self.wal.lock().expect("wal lock");
        wal.file.write_all(&entry)?;
        wal.bytes += entry.len() as u64;
        // Count the bytes into the monotone append mark while still
        // holding the append lock, so `appended` only ever covers bytes
        // already written into the page cache.
        let mut sync = self.sync.lock().expect("wal sync state");
        sync.appended += entry.len() as u64;
        Ok(sync.appended)
    }

    /// Blocks until every byte up to `mark` (from [`Self::log_ingest`])
    /// is durable: covered by an fsync — ours or a concurrent leader's —
    /// or subsumed by a snapshot that truncated the log.
    pub fn wait_durable(&self, mark: u64) -> Result<(), DurableError> {
        let mut sync = self.sync.lock().expect("wal sync state");
        loop {
            if sync.synced >= mark {
                self.acked_appends.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if !sync.leader {
                sync.leader = true;
                let target = sync.appended;
                drop(sync);
                let res = self.sync_file.sync_data();
                self.append_syncs.fetch_add(1, Ordering::Relaxed);
                sync = self.sync.lock().expect("wal sync state");
                sync.leader = false;
                if res.is_ok() {
                    sync.synced = sync.synced.max(target);
                }
                self.synced_cv.notify_all();
                res?;
            } else {
                sync = self.synced_cv.wait(sync).expect("wal sync state poisoned");
            }
        }
    }

    /// Group-commit counters accumulated over this store's lifetime.
    pub fn sync_stats(&self) -> WalSyncStats {
        WalSyncStats {
            acked_appends: self.acked_appends.load(Ordering::Relaxed),
            syncs: self.append_syncs.load(Ordering::Relaxed),
        }
    }

    /// Writes a snapshot of `(records, sketches)` — temp file, sync,
    /// atomic rename — then truncates the WAL (those epochs are now in
    /// the snapshot) and prunes all but the two newest snapshot files.
    /// Returns the snapshot's size in bytes.
    ///
    /// The WAL lock is held across the whole operation so no concurrent
    /// append can land in the about-to-be-truncated log and be lost;
    /// callers must pass a `(records, sketches)` view taken under the
    /// same exclusion (the serving layer's per-corpus persist lock).
    pub fn write_snapshot(
        &self,
        records: &[SparseVector],
        sketches: &SketchSet,
    ) -> Result<u64, DurableError> {
        let mut wal = self.wal.lock().expect("wal lock");
        let bytes = encode_snapshot(self.fingerprint, records, sketches);
        let len = bytes.len() as u64;
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        let name = format!("snapshot-{:020}.bin", sketches.epoch());
        fs::rename(&tmp, self.dir.join(&name))?;
        // The snapshot now covers every logged epoch: restart the WAL.
        wal.file.set_len(0)?;
        let header = wal_header(self.fingerprint);
        wal.file.write_all(&header)?;
        wal.file.sync_data()?;
        wal.bytes = header.len() as u64;
        // Every byte logged so far is now durable via the snapshot; wake
        // any appender still waiting on a covering sync. (Under the
        // documented caller contract the view passed in was taken under
        // the same exclusion, so no unacked entry can be truncated away.)
        {
            let mut sync = self.sync.lock().expect("wal sync state");
            sync.synced = sync.appended;
            self.synced_cv.notify_all();
        }
        drop(wal);
        // Keep the newest two snapshots: the one just written plus one
        // fallback for a corrupt-newest recovery.
        let mut names = snapshot_names(&self.dir)?;
        names.sort();
        for stale in names.iter().rev().skip(2) {
            let _ = fs::remove_file(self.dir.join(stale));
        }
        Ok(len)
    }
}

/// Snapshot filenames in `dir` (unsorted). Zero-padded epochs make the
/// lexical sort numeric.
fn snapshot_names(dir: &Path) -> Result<Vec<String>, DurableError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.starts_with("snapshot-") && name.ends_with(".bin") {
            out.push(name);
        }
    }
    Ok(out)
}

/// A corpus brought back warm: the restored session/cache pair plus
/// recovery provenance for logs and benchmarks.
pub struct RecoveredCorpus {
    /// A streaming session over the recovered corpus, its cache seeded
    /// from the snapshot words — no corpus re-sketch happened.
    pub session: StreamingSession,
    /// The shared cache, ready to [`install`](crate::cache::CacheRegistry::install)
    /// under [`fingerprint`](Self::fingerprint).
    pub cache: Arc<SharedKnowledgeCache>,
    /// The lineage's publish-time fingerprint, from the snapshot META.
    pub fingerprint: u128,
    /// Epoch of the snapshot that seeded recovery.
    pub snapshot_epoch: u64,
    /// Records the snapshot held.
    pub snapshot_records: usize,
    /// Epoch after WAL replay — what the corpus now serves.
    pub epoch: u64,
    /// WAL entries replayed past the snapshot.
    pub replayed_entries: usize,
    /// Records those entries added.
    pub replayed_records: usize,
    /// True when a torn (never-acked) WAL tail was discarded.
    pub wal_tail_discarded: bool,
}

/// Recovers one corpus directory: newest parseable snapshot, fingerprint
/// cross-check, overlap verification via [`SketchSet::is_prefix_of`],
/// then tail replay through the normal ingest path. See the module docs
/// for the full state machine; every failure is a structured
/// [`DurableError`].
///
/// `_capacity` is unused: it stays only because `benchmark/trace` links
/// this signature, until the twin replay goes (ROADMAP item 13's third
/// slice).
pub fn recover(
    dir: &Path,
    measure: Similarity,
    cfg: ApssConfig,
    _capacity: CacheCapacity,
) -> Result<RecoveredCorpus, DurableError> {
    // Newest parseable snapshot wins; a corrupt newest falls back to the
    // previous one; nothing parseable is a loud refusal.
    let mut names = snapshot_names(dir)?;
    names.sort();
    let mut snap: Option<SnapshotState> = None;
    let mut last_err: Option<DurableError> = None;
    for name in names.iter().rev() {
        let path = dir.join(name);
        let bytes = fs::read(&path)?;
        match parse_snapshot(&path, &bytes) {
            Ok(state) => {
                snap = Some(state);
                break;
            }
            Err(e) => last_err = Some(e),
        }
    }
    let snap = match (snap, last_err) {
        (Some(s), _) => s,
        (None, Some(e)) => return Err(e),
        (None, None) => {
            return Err(DurableError::MissingSnapshot {
                dir: dir.to_path_buf(),
            })
        }
    };

    // The supplied serving config must be the one the state was written
    // under — a silent mismatch would re-sketch ingests differently.
    let family = LshFamily::for_measure(measure);
    if snap.family != family {
        return Err(DurableError::ConfigMismatch {
            detail: format!(
                "snapshot family {:?} vs measure {measure:?} (family {family:?})",
                snap.family
            ),
        });
    }
    if snap.n_hashes != cfg.n_hashes {
        return Err(DurableError::ConfigMismatch {
            detail: format!(
                "snapshot n_hashes {} vs config {}",
                snap.n_hashes, cfg.n_hashes
            ),
        });
    }
    if snap.seed != cfg.seed {
        return Err(DurableError::ConfigMismatch {
            detail: format!("snapshot seed {} vs config {}", snap.seed, cfg.seed),
        });
    }

    let wal_path = dir.join("wal.bin");
    let wal = read_wal(dir)?;
    let (entries, tail_discarded) = match wal {
        Some(contents) => {
            if contents.fingerprint != snap.fingerprint {
                return Err(DurableError::FingerprintMismatch {
                    snapshot: snap.fingerprint,
                    wal: contents.fingerprint,
                });
            }
            (contents.entries, contents.tail_discarded)
        }
        None => (Vec::new(), false),
    };
    let corrupt_wal = |detail: String| DurableError::CorruptWal {
        path: wal_path.clone(),
        detail,
    };
    for pair in entries.windows(2) {
        if pair[1].epoch != pair[0].epoch + 1 {
            return Err(corrupt_wal(format!(
                "epoch gap: entry at epoch {} follows {}",
                pair[1].epoch, pair[0].epoch
            )));
        }
        if pair[1].start_record != pair[0].start_record + pair[0].batch.len() as u64 {
            return Err(corrupt_wal(format!(
                "record gap at epoch {}: starts at {}, previous entry ends at {}",
                pair[1].epoch,
                pair[1].start_record,
                pair[0].start_record + pair[0].batch.len() as u64
            )));
        }
    }
    if entries.iter().any(|e| e.epoch == 0) {
        return Err(corrupt_wal(
            "entry at epoch 0 (the published corpus)".into(),
        ));
    }
    let split = entries.partition_point(|e| e.epoch <= snap.epoch);
    let (overlap, tail) = entries.split_at(split);

    // Overlap entries exist only after a crash between snapshot-write and
    // WAL-truncate. Re-sketch exactly those batches onto the snapshot's
    // own prefix and demand the lineage check passes — this is the
    // designed `is_prefix_of` integrity gate.
    let stride = SketchSet::words_per_record(snap.family, snap.n_hashes);
    if let Some(first) = overlap.first() {
        let k = first.start_record as usize;
        if k > snap.records.len() {
            return Err(corrupt_wal(format!(
                "overlap starts at record {k}, snapshot has {}",
                snap.records.len()
            )));
        }
        let last = overlap.last().expect("nonempty overlap");
        if last.epoch != snap.epoch {
            return Err(corrupt_wal(format!(
                "overlap ends at epoch {}, snapshot is at {}",
                last.epoch, snap.epoch
            )));
        }
        let mut replay = SketchSet::from_words(
            snap.family,
            snap.n_hashes,
            snap.seed,
            snap.segment_records,
            first.epoch - 1,
            k,
            &snap.words[..k * stride],
        );
        let sketcher =
            Sketcher::new(snap.family, snap.n_hashes, snap.seed).with_parallelism(cfg.parallelism);
        for entry in overlap {
            if entry.start_record as usize != replay.len() {
                return Err(corrupt_wal(format!(
                    "overlap entry at epoch {} starts at record {}, replay is at {}",
                    entry.epoch,
                    entry.start_record,
                    replay.len()
                )));
            }
            sketcher.extend_batch(&entry.batch, &mut replay);
        }
        if replay.len() != snap.records.len() {
            return Err(DurableError::DivergedSnapshot {
                epoch: snap.epoch,
                detail: format!(
                    "overlap replay covers {} records, snapshot holds {}",
                    replay.len(),
                    snap.records.len()
                ),
            });
        }
        if !replay.is_prefix_of(&SketchSet::from_words(
            snap.family,
            snap.n_hashes,
            snap.seed,
            snap.segment_records,
            snap.epoch,
            snap.records.len(),
            &snap.words,
        )) {
            return Err(DurableError::DivergedSnapshot {
                epoch: snap.epoch,
                detail: "replayed WAL batches produce different sketch words".into(),
            });
        }
    }
    if overlap.is_empty() {
        if let Some(first) = tail.first() {
            if first.epoch != snap.epoch + 1 {
                return Err(corrupt_wal(format!(
                    "first tail entry at epoch {}, snapshot at {} — missing entries",
                    first.epoch, snap.epoch
                )));
            }
        }
    }

    // Restore the store bit-identically (words, epoch, geometry), seed
    // the shared cache from it — no corpus re-sketch — and replay the
    // tail through the normal ingest path so memos/buckets grow exactly
    // as a live process's would have.
    let restored = SketchSet::from_words(
        snap.family,
        snap.n_hashes,
        snap.seed,
        snap.segment_records,
        snap.epoch,
        snap.records.len(),
        &snap.words,
    );
    let snapshot_records = snap.records.len();
    let cache = Arc::new(SharedKnowledgeCache::new(restored));
    let mut session =
        StreamingSession::from_records(snap.records, measure, cfg).with_shared_cache(cache.clone());
    let mut replayed_records = 0usize;
    for entry in tail {
        if entry.start_record as usize != session.len() {
            return Err(corrupt_wal(format!(
                "tail entry at epoch {} starts at record {}, corpus is at {}",
                entry.epoch,
                entry.start_record,
                session.len()
            )));
        }
        let report = session.ingest(&entry.batch);
        if report.epoch != entry.epoch {
            return Err(corrupt_wal(format!(
                "tail replay reached epoch {}, entry claims {}",
                report.epoch, entry.epoch
            )));
        }
        replayed_records += entry.batch.len();
    }
    Ok(RecoveredCorpus {
        epoch: session.epoch(),
        session,
        cache,
        fingerprint: snap.fingerprint,
        snapshot_epoch: snap.epoch,
        snapshot_records,
        replayed_entries: tail.len(),
        replayed_records,
        wal_tail_discarded: tail_discarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_fnv1a_64() {
        // Known FNV-1a vectors: empty input is the offset basis.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn records_round_trip_bit_exact() {
        let records = vec![
            SparseVector::from_pairs(vec![(3, 1.5), (9, -2.25), (40, 0.125)]),
            SparseVector::from_pairs(vec![]),
            SparseVector::from_pairs(vec![(0, f64::MIN_POSITIVE)]),
        ];
        let mut buf = Vec::new();
        encode_records(&mut buf, &records);
        let mut r = Reader::new(&buf);
        let back = decode_records(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.len(), records.len());
        for (a, b) in back.iter().zip(&records) {
            assert_eq!(a.dims(), b.dims());
            let bits =
                |v: &SparseVector| v.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn truncated_record_payload_is_rejected_not_panicked() {
        let records = vec![SparseVector::from_pairs(vec![(1, 1.0), (2, 2.0)])];
        let mut buf = Vec::new();
        encode_records(&mut buf, &records);
        for cut in [1, buf.len() / 2, buf.len() - 1] {
            let mut r = Reader::new(&buf[..cut]);
            assert!(decode_records(&mut r).is_none(), "cut at {cut}");
        }
    }
}
