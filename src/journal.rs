//! Durability: the checksummed write-ahead delta journal and
//! checkpointed snapshots behind [`crate::Service`] crash recovery.
//!
//! Every version the service publishes lives only in process memory;
//! the whole point of the warm path (incremental grounding, per-SCC
//! memoization) is that *deltas* are cheap while cold solves are not.
//! This module makes that asymmetry survive a crash: before a write
//! cycle's results are published, each applied submission is appended
//! to an on-disk **write-ahead log** as one length-prefixed,
//! CRC32-checksummed record — the already-validated delta text and
//! kind, stamped with the version it produced. Recovery loads the
//! newest valid **checkpoint** (the retained source program, rendered
//! re-parseably) and replays the journal tail through the normal warm
//! update path, so coming back from a crash costs O(checkpoint
//! interval) deltas, never a from-scratch re-solve of history.
//!
//! ## On-disk layout
//!
//! A journal directory holds exactly two kinds of file:
//!
//! * `checkpoint-<version>.ckpt` — magic `AFPCKP1\n`, then one framed
//!   record whose payload is the big-endian version followed by the
//!   program text. The CRC doubles as the atomicity guard: a torn
//!   checkpoint (crash mid-write) fails validation and recovery falls
//!   back to the previous one, whose journal tail is still intact.
//! * `wal-<anchor>.log` — magic `AFPWAL1\n`, then zero or more framed
//!   records; `anchor` is the checkpoint version the file follows, so
//!   every record in it carries a version `> anchor`.
//!
//! Each framed record is `[u32 len][u32 crc32(payload)][payload]`, both
//! integers big-endian — the same framing discipline as the network
//! codec — and is appended with a **single `write`**, so a crash leaves
//! at most one torn record, at the tail. A WAL record's payload is
//! `[u64 version][u8 kind][delta text]`.
//!
//! ## The torn-tail rule
//!
//! On recovery, an invalid record (short frame, bad CRC, malformed
//! payload) is classified by what follows it: if the log ends there —
//! no later byte offset parses as a valid frame — it is a **torn
//! tail** from a crash mid-append, and the file is truncated back to
//! the last valid boundary (the lost record was never acked durable).
//! If a *valid* record follows anywhere past the damage, the damage is
//! mid-history — bit rot, not a crash — and recovery refuses loudly
//! with [`Error::JournalCorrupt`], because silently dropping an
//! interior delta would change every later version. The continuation
//! search is a sliding-window scan over every byte offset (a corrupted
//! length field, or several adjacent damaged records, must not hide a
//! valid suffix), so only genuine tails are ever truncated.
//!
//! Checkpoints **compact**: writing `checkpoint-<v>` is followed by
//! starting `wal-<v>` and deleting the files it subsumes, in that
//! order, so every intermediate crash state recovers. See
//! [`crate::Service::with_journal`] / [`crate::Service::recover`] for
//! the service-level wiring and [`FsyncPolicy`] for the durability/
//! latency trade-off.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::{DeltaKind, Error};

/// Magic prefix of every WAL file.
const WAL_MAGIC: &[u8; 8] = b"AFPWAL1\n";
/// Magic prefix of every checkpoint file.
const CKPT_MAGIC: &[u8; 8] = b"AFPCKP1\n";
/// Defensive cap on one record's payload (64 MiB). A length field above
/// this is treated as unparseable, not as an instruction to allocate.
const MAX_RECORD_LEN: u32 = 1 << 26;
/// Minimum WAL record payload: version (8) + kind (1).
const MIN_WAL_PAYLOAD: u32 = 9;

/// When the journal calls `fsync` on the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync before every publish: no acknowledged write is ever lost,
    /// at the cost of one `fsync` per write cycle (coalescing still
    /// amortizes it across the cycle's whole batch).
    Always,
    /// Sync once every `n` appended records (and at checkpoints). A
    /// crash can lose up to `n-1` acknowledged-but-unsynced records —
    /// recovery truncates them as a torn tail, keeping a consistent
    /// prefix.
    EveryN(u32),
    /// Never sync explicitly; the OS flushes when it pleases. A process
    /// crash loses nothing (the records are in the page cache); a host
    /// crash can lose any unsynced suffix.
    Never,
}

/// Tuning knobs for a journal-backed service.
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// When to `fsync` the WAL; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Write a checkpoint (and compact the subsumed journal prefix)
    /// every this many published versions; `0` disables automatic
    /// checkpoints (the `checkpoint` command still works). Bounds
    /// recovery replay to at most this many deltas.
    pub checkpoint_every: u64,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 0,
        }
    }
}

/// Where the fault-injection seam kills the writer; see
/// [`crate::Service::inject_crash_for_testing`]. Modeled on the
/// grounder poison seam (PR 3) and the service's `hold_writer`:
/// hidden, not `cfg(test)`, so the crash-recovery differential suite
/// can reach it from integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Panic after the cycle's solve, before any record is appended:
    /// the crash loses the whole in-flight batch (never acked, never
    /// published, never journaled).
    PreAppend,
    /// Panic after the records are appended and synced, before the
    /// version is published: the deltas are durable but no submitter
    /// was acked — recovery replays them into a version the pre-crash
    /// service never served.
    PostAppend,
    /// Panic halfway through writing a checkpoint file: recovery must
    /// reject the torn checkpoint and fall back to the previous one.
    MidCheckpoint,
}

/// Cumulative journal counters; snapshot them with
/// [`crate::Service::journal_stats`]. The service mirrors them into its
/// [`crate::MetricsRegistry`], the `journal` section of `stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// WAL records appended.
    pub records_appended: u64,
    /// WAL bytes appended (frames included).
    pub bytes_appended: u64,
    /// Explicit `fsync` calls on the WAL.
    pub syncs: u64,
    /// Checkpoint files written (the initial one included).
    pub checkpoints: u64,
    /// WAL records dropped by checkpoint compaction (subsumed by a
    /// checkpoint and deleted with their file).
    pub compacted_records: u64,
    /// Records replayed through the warm path by recovery.
    pub records_replayed: u64,
    /// Torn tails truncated by recovery (each one crash's unsynced
    /// suffix).
    pub torn_truncations: u64,
    /// Journal operations that failed with an I/O error (the service
    /// keeps serving; the failed cycle's submitters were told).
    pub failed_ops: u64,
    /// Cumulative wall clock spent appending WAL records, nanoseconds.
    pub append_ns: u64,
    /// Cumulative wall clock spent in pre-publish syncs, nanoseconds —
    /// the cost the [`FsyncPolicy`] trades against durability.
    pub sync_ns: u64,
}

/// One replayed WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The version whose snapshot first included this delta.
    pub version: u64,
    /// Which delta path it took.
    pub kind: DeltaKind,
    /// The submitted program text.
    pub text: String,
}

/// An open journal: the active WAL plus checkpoint bookkeeping. Owned
/// by the service's writer (under the writer lock), so appends are
/// naturally serialized with the cycles they record.
pub struct Journal {
    dir: PathBuf,
    wal: File,
    /// Checkpoint version the active WAL follows.
    wal_anchor: u64,
    /// Records in the active WAL (compaction counts them as subsumed).
    wal_records: u64,
    /// Logical WAL length in bytes: the boundary after the last fully
    /// written frame. A failed append rolls the file back here so a
    /// torn frame never sits mid-file under later acked records.
    wal_len: u64,
    /// Records appended since the last sync.
    unsynced: u32,
    /// Set when a rollback itself failed: the WAL may hold a torn frame
    /// mid-file, so further appends would land acked records behind
    /// garbage recovery cannot read past. Every mutating operation
    /// refuses until the process restarts and recovers.
    poisoned: Option<String>,
    options: JournalOptions,
    stats: JournalStats,
}

/// A WAL boundary taken with [`Journal::mark`] before a write cycle's
/// appends, so a cycle whose append or sync fails can be rolled back
/// wholesale with [`Journal::rollback`] — the retry cycle then appends
/// fresh records instead of duplicates behind a possibly-torn suffix.
#[derive(Debug, Clone, Copy)]
pub struct WalMark {
    len: u64,
    records: u64,
}

/// Everything recovery found in a journal directory: the reopened
/// journal (compacted back to one checkpoint + one WAL, torn tail
/// truncated), the checkpoint to load, and the tail to replay.
pub struct Recovered {
    /// The journal, reopened for appending.
    pub journal: Journal,
    /// Version of the newest valid checkpoint.
    pub checkpoint_version: u64,
    /// The checkpointed program text (re-parseable source).
    pub checkpoint_text: String,
    /// WAL records with version > the checkpoint version, oldest first.
    /// Failed cycles roll their records back before retrying, so two
    /// identical adjacent records are two genuine submissions, kept.
    pub records: Vec<JournalRecord>,
    /// Human-readable description of the torn tail recovery truncated,
    /// if any.
    pub truncated: Option<String>,
}

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Journal(format!("{context}: {e}"))
}

fn kind_byte(kind: DeltaKind) -> u8 {
    match kind {
        DeltaKind::AssertFacts => 0,
        DeltaKind::RetractFacts => 1,
        DeltaKind::AssertRules => 2,
        DeltaKind::RetractRules => 3,
    }
}

fn byte_kind(b: u8) -> Option<DeltaKind> {
    Some(match b {
        0 => DeltaKind::AssertFacts,
        1 => DeltaKind::RetractFacts,
        2 => DeltaKind::AssertRules,
        3 => DeltaKind::RetractRules,
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// CRC32 (IEEE reflected, the zlib polynomial)
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 of `bytes` (IEEE polynomial, as zlib computes it).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// One framed record: `[u32 len][u32 crc][payload]`, big-endian.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&crc32(payload).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

fn wal_payload(version: u64, kind: DeltaKind, text: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9 + text.len());
    payload.extend_from_slice(&version.to_be_bytes());
    payload.push(kind_byte(kind));
    payload.extend_from_slice(text.as_bytes());
    payload
}

fn checkpoint_name(version: u64) -> String {
    format!("checkpoint-{version:020}.ckpt")
}

fn wal_name(anchor: u64) -> String {
    format!("wal-{anchor:020}.log")
}

/// Parse `prefix-<u64>.<ext>` back to its number.
fn parse_numbered(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(ext)?
        .parse::<u64>()
        .ok()
}

/// `(checkpoint versions, wal anchors)` present in `dir`, unsorted.
fn list_dir(dir: &Path) -> Result<(Vec<u64>, Vec<u64>), Error> {
    let mut checkpoints = Vec::new();
    let mut wals = Vec::new();
    let entries = fs::read_dir(dir)
        .map_err(|e| io_err(&format!("reading journal dir {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("reading journal dir entry", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(v) = parse_numbered(name, "checkpoint-", ".ckpt") {
            checkpoints.push(v);
        } else if let Some(a) = parse_numbered(name, "wal-", ".log") {
            wals.push(a);
        }
    }
    Ok((checkpoints, wals))
}

fn sync_dir(dir: &Path) {
    // Directory fsync makes the creates/deletes themselves durable on
    // Linux; failure is not fatal (the files were synced individually).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Journal {
    /// Whether `dir` already holds journal state (any checkpoint or WAL
    /// file) — the CLI's create-vs-recover branch.
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        matches!(list_dir(dir.as_ref()), Ok((c, w)) if !c.is_empty() || !w.is_empty())
    }

    /// Create a fresh journal in `dir` (created if missing), writing
    /// `checkpoint-0` from `base_text` and starting `wal-0`. Refuses a
    /// directory that already holds journal state — recover from it
    /// instead ([`recover`], [`crate::Service::recover`]).
    pub fn create(
        dir: impl AsRef<Path>,
        options: JournalOptions,
        base_text: &str,
    ) -> Result<Journal, Error> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)
            .map_err(|e| io_err(&format!("creating journal dir {}", dir.display()), e))?;
        if Journal::exists(&dir) {
            return Err(Error::Journal(format!(
                "journal dir {} already holds a journal; recover from it instead of \
                 overwriting history",
                dir.display()
            )));
        }
        write_checkpoint_file(&dir, 0, base_text, false)?;
        let wal = create_wal_file(&dir, 0)?;
        sync_dir(&dir);
        Ok(Journal {
            dir,
            wal,
            wal_anchor: 0,
            wal_records: 0,
            wal_len: WAL_MAGIC.len() as u64,
            unsynced: 0,
            poisoned: None,
            options,
            stats: JournalStats {
                checkpoints: 1,
                ..JournalStats::default()
            },
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured knobs.
    pub fn options(&self) -> &JournalOptions {
        &self.options
    }

    /// Cumulative counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Append one record — a single `write`, so a crash can tear at
    /// most the final record (the torn-tail rule relies on this). A
    /// write *error* (ENOSPC mid-`write_all`) can also leave a torn
    /// frame; it is rolled back here, before the error returns, so the
    /// file never carries garbage under records appended later.
    pub fn append(&mut self, version: u64, kind: DeltaKind, text: &str) -> Result<(), Error> {
        self.check_poisoned()?;
        let started = Instant::now();
        let buf = frame(&wal_payload(version, kind, text));
        if let Err(e) = self.wal.write_all(&buf) {
            self.stats.failed_ops += 1;
            let (len, records) = (self.wal_len, self.wal_records);
            self.truncate_to(len, records);
            return Err(io_err("appending journal record", e));
        }
        self.wal_len += buf.len() as u64;
        self.wal_records += 1;
        self.unsynced += 1;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += buf.len() as u64;
        self.stats.append_ns += started.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// The current WAL boundary; take one before a cycle's appends so
    /// the whole cycle can be undone with [`Journal::rollback`].
    pub fn mark(&self) -> WalMark {
        WalMark {
            len: self.wal_len,
            records: self.wal_records,
        }
    }

    /// Roll the WAL back to `mark`: the undo of a cycle whose append or
    /// sync failed mid-way. Without it the cycle's records (complete or
    /// torn) would stay in the file while the service keeps serving,
    /// and the retry cycle would append acked duplicates behind them —
    /// which recovery would then truncate or refuse. Never fails
    /// upward: if the truncation itself fails the journal is poisoned
    /// and every later operation refuses with a typed error.
    pub fn rollback(&mut self, mark: WalMark) {
        if self.poisoned.is_none() && self.wal_len > mark.len {
            self.truncate_to(mark.len, mark.records);
        }
    }

    /// Truncate the WAL to `len` bytes and sync, restoring the record
    /// count; on failure, poison the journal (see [`Journal::rollback`]).
    fn truncate_to(&mut self, len: u64, records: u64) {
        let result = self
            .wal
            .set_len(len)
            .and_then(|()| self.wal.seek(SeekFrom::Start(len)).map(|_| ()))
            .and_then(|()| self.wal.sync_data());
        match result {
            Ok(()) => {
                self.wal_len = len;
                self.wal_records = records;
                self.unsynced = 0;
                self.stats.syncs += 1;
            }
            Err(e) => {
                self.stats.failed_ops += 1;
                self.poisoned = Some(format!("rolling wal back to byte {len} failed: {e}"));
            }
        }
    }

    fn check_poisoned(&self) -> Result<(), Error> {
        match &self.poisoned {
            Some(why) => Err(Error::Journal(format!(
                "journal disabled after a failed rollback ({why}); the wal may hold a \
                 torn frame mid-file — restart and recover"
            ))),
            None => Ok(()),
        }
    }

    /// Sync the WAL if the policy demands it before this cycle publishes
    /// and acks.
    pub fn sync_for_publish(&mut self) -> Result<(), Error> {
        self.check_poisoned()?;
        let due = match self.options.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            let started = Instant::now();
            if let Err(e) = self.wal.sync_data() {
                self.stats.failed_ops += 1;
                return Err(io_err("syncing journal", e));
            }
            self.stats.syncs += 1;
            self.unsynced = 0;
            self.stats.sync_ns += started.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// Whether the automatic checkpoint interval fires at `version`.
    pub fn checkpoint_due(&self, version: u64) -> bool {
        self.options.checkpoint_every > 0
            && version > self.wal_anchor
            && version.is_multiple_of(self.options.checkpoint_every)
    }

    /// Write `checkpoint-<version>` from `text`, start `wal-<version>`,
    /// and delete the files they subsume (compaction) — in that order,
    /// so every intermediate crash state recovers: a torn checkpoint is
    /// rejected by its CRC and the previous checkpoint + WAL still
    /// replay; a missing new WAL is recreated on recovery. A checkpoint
    /// at the current anchor version is a no-op (nothing to compact).
    ///
    /// `crash_mid` is the [`CrashPoint::MidCheckpoint`] fault-injection
    /// seam: write half the checkpoint, sync, and panic.
    pub fn checkpoint(&mut self, version: u64, text: &str, crash_mid: bool) -> Result<(), Error> {
        self.check_poisoned()?;
        if version == self.wal_anchor && !crash_mid {
            return Ok(());
        }
        // Unsynced records must be durable before the checkpoint that
        // might outlive their WAL file.
        if self.unsynced > 0 {
            if let Err(e) = self.wal.sync_data() {
                self.stats.failed_ops += 1;
                return Err(io_err("syncing journal before checkpoint", e));
            }
            self.stats.syncs += 1;
            self.unsynced = 0;
        }
        if let Err(e) = write_checkpoint_file(&self.dir, version, text, crash_mid) {
            self.stats.failed_ops += 1;
            return Err(e);
        }
        let wal = match create_wal_file(&self.dir, version) {
            Ok(wal) => wal,
            Err(e) => {
                self.stats.failed_ops += 1;
                return Err(e);
            }
        };
        sync_dir(&self.dir);
        let (checkpoints, wals) = list_dir(&self.dir)?;
        for v in checkpoints.into_iter().filter(|&v| v < version) {
            let _ = fs::remove_file(self.dir.join(checkpoint_name(v)));
        }
        for a in wals.into_iter().filter(|&a| a < version) {
            let _ = fs::remove_file(self.dir.join(wal_name(a)));
        }
        sync_dir(&self.dir);
        self.wal = wal;
        self.wal_anchor = version;
        self.wal_len = WAL_MAGIC.len() as u64;
        self.stats.checkpoints += 1;
        self.stats.compacted_records += self.wal_records;
        self.wal_records = 0;
        Ok(())
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("wal_anchor", &self.wal_anchor)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Write one checkpoint file. `crash_mid` injects the mid-checkpoint
/// fault: half the frame is written and synced, then the writer dies.
fn write_checkpoint_file(
    dir: &Path,
    version: u64,
    text: &str,
    crash_mid: bool,
) -> Result<(), Error> {
    let path = dir.join(checkpoint_name(version));
    let mut payload = Vec::with_capacity(8 + text.len());
    payload.extend_from_slice(&version.to_be_bytes());
    payload.extend_from_slice(text.as_bytes());
    let mut buf = Vec::with_capacity(8 + 8 + payload.len());
    buf.extend_from_slice(CKPT_MAGIC);
    buf.extend_from_slice(&frame(&payload));
    let mut file = File::create(&path)
        .map_err(|e| io_err(&format!("creating checkpoint {}", path.display()), e))?;
    if crash_mid {
        let half = buf.len() / 2;
        let _ = file.write_all(&buf[..half]);
        let _ = file.sync_data();
        panic!("afp crash seam: mid-checkpoint (version {version})");
    }
    file.write_all(&buf)
        .map_err(|e| io_err("writing checkpoint", e))?;
    file.sync_data()
        .map_err(|e| io_err("syncing checkpoint", e))?;
    Ok(())
}

fn create_wal_file(dir: &Path, anchor: u64) -> Result<File, Error> {
    let path = dir.join(wal_name(anchor));
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| io_err(&format!("creating wal {}", path.display()), e))?;
    file.write_all(WAL_MAGIC)
        .map_err(|e| io_err("writing wal magic", e))?;
    file.sync_data().map_err(|e| io_err("syncing wal", e))?;
    Ok(file)
}

/// Read and validate `checkpoint-<version>`; `None` if torn/corrupt.
fn read_checkpoint(dir: &Path, version: u64) -> Option<String> {
    let bytes = fs::read(dir.join(checkpoint_name(version))).ok()?;
    if bytes.len() < 16 || &bytes[..8] != CKPT_MAGIC {
        return None;
    }
    let len = u32::from_be_bytes(bytes[8..12].try_into().unwrap());
    let crc = u32::from_be_bytes(bytes[12..16].try_into().unwrap());
    if len > MAX_RECORD_LEN || bytes.len() != 16 + len as usize || len < 8 {
        return None;
    }
    let payload = &bytes[16..];
    if crc32(payload) != crc {
        return None;
    }
    let stamped = u64::from_be_bytes(payload[..8].try_into().unwrap());
    if stamped != version {
        return None;
    }
    String::from_utf8(payload[8..].to_vec()).ok()
}

/// One validated record parse at `off`; see [`scan_wal`] for how
/// failures are classified.
fn parse_record_at(
    bytes: &[u8],
    off: usize,
    min_version: u64,
) -> Result<(JournalRecord, usize), String> {
    if off + 8 > bytes.len() {
        return Err("eof inside record header".into());
    }
    let len = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap());
    let crc = u32::from_be_bytes(bytes[off + 4..off + 8].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return Err(format!("implausible record length {len}"));
    }
    let end = off + 8 + len as usize;
    if end > bytes.len() {
        return Err("eof inside record payload".into());
    }
    let payload = &bytes[off + 8..end];
    if crc32(payload) != crc {
        return Err("crc mismatch".into());
    }
    if len < MIN_WAL_PAYLOAD {
        return Err(format!("short record payload ({len} bytes)"));
    }
    let version = u64::from_be_bytes(payload[..8].try_into().unwrap());
    let Some(kind) = byte_kind(payload[8]) else {
        return Err(format!("unknown delta kind byte {}", payload[8]));
    };
    if version < min_version {
        return Err(format!(
            "non-monotonic version {version} (expected >= {min_version})"
        ));
    }
    let text = String::from_utf8(payload[9..].to_vec()).map_err(|_| "non-utf8 delta text")?;
    Ok((
        JournalRecord {
            version,
            kind,
            text,
        },
        end,
    ))
}

/// What scanning one WAL file produced.
struct WalScan {
    records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (file should be truncated here
    /// if shorter than the file).
    valid_len: u64,
    /// Torn-tail description if the file ends in an invalid record.
    torn: Option<String>,
}

/// Scan one WAL file. `strict` (non-newest files) turns every invalid
/// record into [`Error::JournalCorrupt`]; otherwise the torn-tail rule
/// applies: an invalid record with a valid continuation is corruption,
/// an invalid record at the end of the log is a torn tail.
fn scan_wal(path: &Path, anchor: u64, strict: bool) -> Result<WalScan, Error> {
    let bytes =
        fs::read(path).map_err(|e| io_err(&format!("reading wal {}", path.display()), e))?;
    if bytes.len() < 8 {
        // A crash inside the 8-byte magic write; nothing was logged.
        if WAL_MAGIC.starts_with(&bytes[..]) {
            return Ok(WalScan {
                records: Vec::new(),
                valid_len: 0,
                torn: Some("torn wal magic".into()),
            });
        }
        return Err(Error::JournalCorrupt {
            record: 0,
            detail: format!("{}: bad wal magic", path.display()),
        });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(Error::JournalCorrupt {
            record: 0,
            detail: format!("{}: bad wal magic", path.display()),
        });
    }
    let mut records = Vec::new();
    let mut off = 8usize;
    let mut min_version = anchor + 1;
    while off < bytes.len() {
        match parse_record_at(&bytes, off, min_version) {
            Ok((record, end)) => {
                min_version = record.version;
                records.push(record);
                off = end;
            }
            Err(detail) => {
                let corrupt = |detail: String| Error::JournalCorrupt {
                    record: records.len() as u64,
                    detail: format!("{}: {detail}", path.display()),
                };
                if strict {
                    return Err(corrupt(detail));
                }
                // Torn tail or mid-journal corruption? A torn tail can
                // only be the very end of the log, so any later offset
                // that parses as a valid frame (CRC validates, payload
                // well-formed, version monotone) proves the log
                // continues past the damage: refuse rather than drop an
                // interior delta. The scan slides over every byte —
                // a corrupted length field, or several adjacent damaged
                // records, must not hide a valid suffix.
                for probe in off + 1..bytes.len() {
                    if parse_record_at(&bytes, probe, min_version).is_ok() {
                        return Err(corrupt(detail));
                    }
                }
                return Ok(WalScan {
                    records,
                    valid_len: off as u64,
                    torn: Some(format!("{}: {detail} at byte {off}", path.display())),
                });
            }
        }
    }
    Ok(WalScan {
        records,
        valid_len: bytes.len() as u64,
        torn: None,
    })
}

/// Recover a journal directory: pick the newest valid checkpoint,
/// gather the WAL tail past it (applying the torn-tail rule to the
/// newest WAL and strict validation to older ones), truncate any torn
/// suffix, clean up files subsumed or invalidated by crashes, and
/// reopen the journal for appending. The caller replays
/// [`Recovered::records`] through the warm update path.
pub fn recover(dir: impl AsRef<Path>, options: JournalOptions) -> Result<Recovered, Error> {
    let dir = dir.as_ref().to_path_buf();
    let (mut checkpoints, mut wals) = list_dir(&dir)?;
    checkpoints.sort_unstable();
    wals.sort_unstable();
    if checkpoints.is_empty() && wals.is_empty() {
        return Err(Error::Journal(format!(
            "{} holds no journal (no checkpoint or wal files)",
            dir.display()
        )));
    }

    // Newest checkpoint that validates wins; torn ones (a crash mid-
    // checkpoint) are deleted so they cannot shadow a rewrite later.
    let mut chosen: Option<(u64, String)> = None;
    for &v in checkpoints.iter().rev() {
        match read_checkpoint(&dir, v) {
            Some(text) if chosen.is_none() => chosen = Some((v, text)),
            Some(_) => {}
            None => {
                let _ = fs::remove_file(dir.join(checkpoint_name(v)));
            }
        }
    }
    let Some((checkpoint_version, checkpoint_text)) = chosen else {
        return Err(Error::Journal(format!(
            "{} holds no valid checkpoint (every candidate is torn or corrupt)",
            dir.display()
        )));
    };

    // A WAL anchored past the chosen checkpoint means a newer
    // checkpoint compacted history and was then lost: the deltas
    // between the two are unrecoverable.
    if let Some(&a) = wals.iter().find(|&&a| a > checkpoint_version) {
        return Err(Error::JournalCorrupt {
            record: 0,
            detail: format!(
                "wal-{a} is anchored past the newest valid checkpoint \
                 ({checkpoint_version}); the compacted prefix is lost"
            ),
        });
    }

    // Gather the tail. Only the newest WAL may legitimately end torn;
    // older files were complete before a newer one was started.
    let mut records: Vec<JournalRecord> = Vec::new();
    let mut truncated = None;
    let mut torn_truncations = 0u64;
    for (i, &anchor) in wals.iter().enumerate() {
        let newest = i + 1 == wals.len();
        let path = dir.join(wal_name(anchor));
        let scan = scan_wal(&path, anchor, !newest)?;
        if let Some(detail) = scan.torn {
            let mut file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err("truncating torn wal tail", e))?;
            if scan.valid_len < WAL_MAGIC.len() as u64 {
                // A crash inside the header write itself: rewrite the
                // full magic rather than zero-pad to 8 bytes with
                // `set_len`, which would leave an invalid header that
                // the *next* recovery rejects as corrupt — poisoning a
                // journal that then acked writes behind it.
                file.set_len(0)
                    .map_err(|e| io_err("truncating torn wal magic", e))?;
                file.write_all(WAL_MAGIC)
                    .map_err(|e| io_err("rewriting torn wal magic", e))?;
            } else {
                file.set_len(scan.valid_len)
                    .map_err(|e| io_err("truncating torn wal tail", e))?;
            }
            file.sync_data()
                .map_err(|e| io_err("syncing truncated wal", e))?;
            truncated = Some(detail);
            torn_truncations += 1;
        }
        records.extend(
            scan.records
                .into_iter()
                .filter(|r| r.version > checkpoint_version),
        );
    }
    // No dedup: a cycle whose append or sync failed rolls its records
    // back ([`Journal::rollback`]) before the retry re-appends, so a
    // duplicate record in the WAL is two genuinely distinct identical
    // submissions — the recovered changelog must keep both to stay a
    // prefix-consistent image of the pre-crash one.

    // Reopen, restoring the exactly-one-checkpoint + one-WAL steady
    // state a crash may have interrupted: ensure wal-<checkpoint>
    // exists, then drop everything it subsumes.
    let active = dir.join(wal_name(checkpoint_version));
    let wal_records = if wals.contains(&checkpoint_version) {
        records.len() as u64
    } else {
        create_wal_file(&dir, checkpoint_version)?;
        0
    };
    for &a in wals.iter().filter(|&&a| a < checkpoint_version) {
        let _ = fs::remove_file(dir.join(wal_name(a)));
    }
    sync_dir(&dir);
    let wal = OpenOptions::new()
        .append(true)
        .open(&active)
        .map_err(|e| io_err(&format!("reopening wal {}", active.display()), e))?;
    let wal_len = wal
        .metadata()
        .map_err(|e| io_err("reading reopened wal length", e))?
        .len();
    let journal = Journal {
        dir,
        wal,
        wal_anchor: checkpoint_version,
        wal_records,
        wal_len,
        unsynced: 0,
        poisoned: None,
        options,
        stats: JournalStats {
            records_replayed: records.len() as u64,
            torn_truncations,
            ..JournalStats::default()
        },
    };
    Ok(Recovered {
        journal,
        checkpoint_version,
        checkpoint_text,
        records,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("afp-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn create_append_recover_round_trips() {
        let dir = temp_dir("roundtrip");
        let opts = JournalOptions::default();
        let mut journal = Journal::create(&dir, opts, "base(x).\n").unwrap();
        journal.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal.append(2, DeltaKind::RetractFacts, "p(a).").unwrap();
        journal
            .append(3, DeltaKind::AssertRules, "q(X) :- p(X).")
            .unwrap();
        journal.sync_for_publish().unwrap();
        drop(journal);

        let recovered = recover(&dir, opts).unwrap();
        assert_eq!(recovered.checkpoint_version, 0);
        assert_eq!(recovered.checkpoint_text, "base(x).\n");
        assert!(recovered.truncated.is_none());
        assert_eq!(
            recovered.records,
            vec![
                JournalRecord {
                    version: 1,
                    kind: DeltaKind::AssertFacts,
                    text: "p(a).".into()
                },
                JournalRecord {
                    version: 2,
                    kind: DeltaKind::RetractFacts,
                    text: "p(a).".into()
                },
                JournalRecord {
                    version: 3,
                    kind: DeltaKind::AssertRules,
                    text: "q(X) :- p(X).".into()
                },
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_an_existing_journal() {
        let dir = temp_dir("norewrite");
        let opts = JournalOptions::default();
        let _ = Journal::create(&dir, opts, "base.\n").unwrap();
        assert!(Journal::exists(&dir));
        let err = Journal::create(&dir, opts, "other.\n").unwrap_err();
        assert!(matches!(err, Error::Journal(_)), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_to_one_checkpoint_and_one_wal() {
        let dir = temp_dir("compact");
        let opts = JournalOptions::default();
        let mut journal = Journal::create(&dir, opts, "base.\n").unwrap();
        journal.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal.append(2, DeltaKind::AssertFacts, "p(b).").unwrap();
        journal
            .checkpoint(2, "base.\np(a).\np(b).\n", false)
            .unwrap();
        journal.append(3, DeltaKind::AssertFacts, "p(c).").unwrap();
        journal.sync_for_publish().unwrap();
        assert_eq!(journal.stats().compacted_records, 2);
        drop(journal);

        let (checkpoints, wals) = list_dir(&dir).unwrap();
        assert_eq!(checkpoints, vec![2]);
        assert_eq!(wals, vec![2]);

        let recovered = recover(&dir, opts).unwrap();
        assert_eq!(recovered.checkpoint_version, 2);
        assert_eq!(recovered.records.len(), 1, "replay bounded by checkpoint");
        assert_eq!(recovered.records[0].version, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_but_mid_journal_corruption_refuses() {
        let dir = temp_dir("torn");
        let opts = JournalOptions::default();
        let mut journal = Journal::create(&dir, opts, "base.\n").unwrap();
        journal.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal.append(2, DeltaKind::AssertFacts, "p(b).").unwrap();
        journal.sync_for_publish().unwrap();
        drop(journal);
        let wal_path = dir.join(wal_name(0));
        let pristine = fs::read(&wal_path).unwrap();

        // Chop bytes off the tail: the last record is dropped, the
        // prefix survives, and recovery truncates the file.
        fs::write(&wal_path, &pristine[..pristine.len() - 3]).unwrap();
        let recovered = recover(&dir, opts).unwrap();
        assert!(recovered.truncated.is_some());
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(recovered.records[0].text, "p(a).");
        drop(recovered);

        // Flip a byte inside the FIRST record's payload: a valid record
        // follows, so this is mid-journal corruption, a loud error.
        let mut flipped = pristine.clone();
        flipped[8 + 8 + 4] ^= 0x40; // inside record 0's payload
        fs::write(&wal_path, &flipped).unwrap();
        let err = match recover(&dir, opts) {
            Err(e) => e,
            Ok(_) => panic!("mid-journal corruption must be a loud error"),
        };
        assert!(
            matches!(err, Error::JournalCorrupt { record: 0, .. }),
            "{err:?}"
        );

        // Flip a byte inside the LAST record instead: no valid
        // continuation, so the torn-tail rule truncates it.
        let mut tail_flipped = pristine.clone();
        let last = tail_flipped.len() - 2;
        tail_flipped[last] ^= 0x40;
        fs::write(&wal_path, &tail_flipped).unwrap();
        let recovered = recover(&dir, opts).unwrap();
        assert!(recovered.truncated.is_some());
        assert_eq!(recovered.records.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_magic_is_repaired_not_zero_padded() {
        let dir = temp_dir("tornmagic");
        let opts = JournalOptions::default();
        drop(Journal::create(&dir, opts, "base.\n").unwrap());
        // A crash between WAL creation and the magic write leaves a
        // file shorter than the 8-byte header.
        let wal_path = dir.join(wal_name(0));
        fs::write(&wal_path, &WAL_MAGIC[..3]).unwrap();

        let mut recovered = recover(&dir, opts).unwrap();
        assert!(recovered.truncated.is_some());
        assert!(recovered.records.is_empty());
        assert_eq!(fs::read(&wal_path).unwrap(), WAL_MAGIC, "header rewritten");

        // The repaired journal must accept appends that the NEXT
        // recovery can read — zero-padding the header used to make
        // this second recovery fail with JournalCorrupt.
        recovered
            .journal
            .append(1, DeltaKind::AssertFacts, "p(a).")
            .unwrap();
        recovered.journal.sync_for_publish().unwrap();
        drop(recovered);
        let again = recover(&dir, opts).unwrap();
        assert!(again.truncated.is_none());
        assert_eq!(again.records.len(), 1);
        assert_eq!(again.records[0].text, "p(a).");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_unwinds_a_failed_cycle_cleanly() {
        let dir = temp_dir("rollback");
        let opts = JournalOptions::default();
        let mut journal = Journal::create(&dir, opts, "base.\n").unwrap();
        journal.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal.sync_for_publish().unwrap();

        // A cycle appends two records, then fails before publish: the
        // service rolls the whole cycle back off the WAL.
        let mark = journal.mark();
        journal.append(2, DeltaKind::AssertFacts, "p(b).").unwrap();
        journal
            .append(2, DeltaKind::AssertRules, "q(X) :- p(X).")
            .unwrap();
        journal.rollback(mark);

        // The retry cycle appends fresh records at the same boundary.
        journal.append(2, DeltaKind::AssertFacts, "p(c).").unwrap();
        journal.sync_for_publish().unwrap();
        drop(journal);

        let recovered = recover(&dir, opts).unwrap();
        assert!(recovered.truncated.is_none(), "{:?}", recovered.truncated);
        assert_eq!(
            recovered
                .records
                .iter()
                .map(|r| r.text.as_str())
                .collect::<Vec<_>>(),
            vec!["p(a).", "p(c)."],
            "rolled-back records must not replay"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_adjacent_submissions_both_survive_recovery() {
        let dir = temp_dir("twins");
        let opts = JournalOptions::default();
        let mut journal = Journal::create(&dir, opts, "base.\n").unwrap();
        // Two genuinely distinct identical submissions batched into one
        // cycle: same version, kind, and text. Recovery used to dedup
        // them, shrinking the recovered changelog.
        journal.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal.sync_for_publish().unwrap();
        drop(journal);

        let recovered = recover(&dir, opts).unwrap();
        assert_eq!(recovered.records.len(), 2, "both submissions kept");
        assert_eq!(recovered.records[0], recovered.records[1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adjacent_damaged_records_with_valid_history_after_refuse() {
        let dir = temp_dir("adjacent");
        let opts = JournalOptions::default();
        let mut journal = Journal::create(&dir, opts, "base.\n").unwrap();
        journal.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal.append(2, DeltaKind::AssertFacts, "p(b).").unwrap();
        journal.append(3, DeltaKind::AssertFacts, "p(c).").unwrap();
        journal.sync_for_publish().unwrap();
        drop(journal);

        // Bit rot in records 0 AND 1 (payload bytes, length fields
        // intact), valid record 2 after them: a one-record-ahead probe
        // sees the damaged record 1 and would misclassify this as a
        // torn tail, silently truncating the acked record 2. The
        // sliding-window scan finds record 2 and refuses.
        let wal_path = dir.join(wal_name(0));
        let mut bytes = fs::read(&wal_path).unwrap();
        let rec_len = 8 + 8 + 1 + "p(a).".len(); // frame + payload
        bytes[8 + 8 + 8] ^= 0x40; // record 0 payload
        bytes[8 + rec_len + 8 + 8] ^= 0x40; // record 1 payload
        fs::write(&wal_path, &bytes).unwrap();

        let err = match recover(&dir, opts) {
            Err(e) => e,
            Ok(_) => panic!("mid-journal damage spanning two records must refuse"),
        };
        assert!(matches!(err, Error::JournalCorrupt { .. }), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_falls_back_to_the_previous_one() {
        let dir = temp_dir("tornckpt");
        let opts = JournalOptions::default();
        let mut journal = Journal::create(&dir, opts, "base.\n").unwrap();
        journal.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal.sync_for_publish().unwrap();
        drop(journal);
        // A half-written checkpoint-1, as a mid-checkpoint crash leaves.
        fs::write(dir.join(checkpoint_name(1)), &CKPT_MAGIC[..6]).unwrap();

        let recovered = recover(&dir, opts).unwrap();
        assert_eq!(recovered.checkpoint_version, 0);
        assert_eq!(recovered.records.len(), 1);
        assert!(
            !dir.join(checkpoint_name(1)).exists(),
            "torn checkpoint cleaned up"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_and_never_policies_defer_syncs() {
        let dir = temp_dir("fsync");
        let opts = JournalOptions {
            fsync: FsyncPolicy::EveryN(3),
            ..JournalOptions::default()
        };
        let mut journal = Journal::create(&dir, opts, "base.\n").unwrap();
        for v in 1..=2 {
            journal
                .append(v, DeltaKind::AssertFacts, &format!("p(a{v})."))
                .unwrap();
            journal.sync_for_publish().unwrap();
        }
        assert_eq!(journal.stats().syncs, 0, "below the EveryN threshold");
        journal.append(3, DeltaKind::AssertFacts, "p(a3).").unwrap();
        journal.sync_for_publish().unwrap();
        assert_eq!(journal.stats().syncs, 1);

        let dir2 = temp_dir("fsync-never");
        let opts2 = JournalOptions {
            fsync: FsyncPolicy::Never,
            ..JournalOptions::default()
        };
        let mut journal2 = Journal::create(&dir2, opts2, "base.\n").unwrap();
        journal2.append(1, DeltaKind::AssertFacts, "p(a).").unwrap();
        journal2.sync_for_publish().unwrap();
        assert_eq!(journal2.stats().syncs, 0, "never leaves syncing to the OS");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }
}
