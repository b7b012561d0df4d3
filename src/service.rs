//! Concurrent model serving: one writer, any number of lock-free readers.
//!
//! The economics of the well-founded semantics invert the usual
//! read/write balance: computing the model is the expensive step
//! (quadratic in general — Lonc & Truszczyński), while *reading* it is a
//! bitset probe. A serving deployment therefore wants the
//! compile-once/query-many regime: pay the alternating fixpoint once per
//! **program version**, then answer arbitrarily many queries from
//! immutable, cheaply shared snapshots of that version.
//!
//! [`Service`] packages that regime around the engine's existing seams:
//!
//! * the single **writer** is the owned [`Session`] — all of PR 2/3's
//!   warm machinery (batched envelope deltas, per-SCC memoized re-solves)
//!   applies to every published version;
//! * each published version is a [`ModelSnapshot`]: an epoch-stamped
//!   `Arc<Model>` over the session's copy-on-write `GroundProgram`
//!   snapshot. **Reads take no lock**: pinning the current version is one
//!   `RwLock` read acquisition to bump an `Arc`, and every query against
//!   a pinned snapshot thereafter is plain shared-memory access to
//!   immutable data — truth probes, iteration, even whole
//!   relevance-restricted subqueries ([`ModelSnapshot::subquery`]) run on
//!   reader threads without touching the writer;
//! * concurrent delta submissions **coalesce**: while one write cycle is
//!   in flight, every delta submitted behind it queues up and is applied
//!   as a single batched warm update in the next cycle (adjacent
//!   same-kind deltas merge into one batch call, i.e. one envelope-delta
//!   round, riding `assert_batch`/`assert_rules`). Under write
//!   contention the solve cost is paid per *cycle*, not per submission —
//!   [`ServiceStats::write_cycles`] vs [`ServiceStats::submissions`]
//!   shows the ratio;
//! * a small version-keyed cache ([`Service::at_version`]) serves repeat
//!   requests for recent versions as pointer copies, and a bounded
//!   changelog ([`Service::changelog`]) records which deltas produced
//!   which version — the audit trail the differential tests replay.
//!
//! ## Consistency model
//!
//! Writes are serialized (single writer session) and versions are
//! published atomically in submission order: a snapshot of version `v`
//! is exactly the cold model of the base program plus every successful
//! delta with version `≤ v` — bit-identical, which is what
//! `tests/service.rs` checks under thread interleavings. Readers are
//! wait-free with respect to the writer once pinned; they never observe
//! a half-applied batch, because a version is published only after its
//! whole cycle solved. A delta that fails to **apply** (parse error,
//! unsafe rule, grounding budget) is reported to its own submitter and
//! leaves the published chain untouched — a failed merged run is retried
//! delta by delta, so one bad submission never takes down its
//! cycle-mates, and the session's own fallback/recovery machinery keeps
//! the writer state consistent. A delta that applies but whose cycle's
//! **solve** fails (e.g. [`crate::Semantics::Perfect`] on a program the
//! delta made non-stratified) is reported as failed too, but it *is* in
//! the writer: the next version that does solve includes it, and the
//! changelog attributes it to that version, keeping reconstruction
//! exact.
//!
//! ```
//! use afp::{Engine, Truth};
//!
//! let service = Engine::default()
//!     .serve("wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).")
//!     .unwrap();
//! let pinned = service.snapshot(); // version 0, immutable
//! assert_eq!(pinned.truth("wins", &["b"]), Truth::True);
//!
//! // Writer publishes version 1; the pinned snapshot is unaffected.
//! let v = service.assert_facts("move(c, d).").unwrap();
//! assert_eq!(v, 1);
//! assert_eq!(service.snapshot().truth("wins", &["c"]), Truth::True);
//! assert_eq!(pinned.truth("wins", &["c"]), Truth::False); // still version 0
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

use crate::engine::restricted_wfs_model;
use crate::journal::{self, CrashPoint, Journal, JournalOptions, JournalStats};
use crate::telemetry::{stat_set, PhaseBreakdown, Telemetry};
use crate::{Engine, Error, Model, Session, SessionStats, Truth};

/// Lock a mutex, recovering the data on poison: the service's shared
/// state is kept consistent by construction (publishing happens after a
/// cycle completes), so a reader or writer that panicked mid-cycle must
/// not wedge every other thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What kind of program delta a submission carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Ground facts to add ([`Session::assert_facts`]).
    AssertFacts,
    /// Ground facts to remove ([`Session::retract_facts`]).
    RetractFacts,
    /// Rules (facts allowed) to add ([`Session::assert_rules`]).
    AssertRules,
    /// Rules to remove ([`Session::retract_rules`]).
    RetractRules,
}

impl DeltaKind {
    /// Kebab-case name, as the CLI serve protocol spells it.
    pub fn name(&self) -> &'static str {
        match self {
            DeltaKind::AssertFacts => "assert-facts",
            DeltaKind::RetractFacts => "retract-facts",
            DeltaKind::AssertRules => "assert-rules",
            DeltaKind::RetractRules => "retract-rules",
        }
    }
}

/// A delta that made it into a published version — one entry of
/// [`Service::changelog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedDelta {
    /// The version whose snapshot first includes this delta.
    pub version: u64,
    /// What was applied.
    pub kind: DeltaKind,
    /// The submitted program text.
    pub text: String,
}

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceOptions {
    /// How many recent versions [`Service::at_version`] retains. Older
    /// versions fall out of the cache (their pinned snapshots stay valid
    /// — eviction only drops the service's own reference).
    pub cache_capacity: usize,
    /// How many [`AppliedDelta`]s the changelog retains.
    pub changelog_capacity: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache_capacity: 8,
            changelog_capacity: 1024,
        }
    }
}

/// Cumulative counters for a [`Service`]; snapshot them with
/// [`Service::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Latest published version.
    pub version: u64,
    /// Deltas submitted (successful or not).
    pub submissions: u64,
    /// Write cycles run — batched warm update + solve + publish. Under
    /// write contention this stays below `submissions`: queued deltas
    /// share a cycle.
    pub write_cycles: u64,
    /// Submissions that shared their write cycle with at least one other
    /// submission (the coalescing win; `0` under purely sequential
    /// writers).
    pub coalesced: u64,
    /// Submissions whose delta failed (parse/safety/grounding error); the
    /// published chain skips them.
    pub rejected: u64,
    /// Snapshots pinned through [`Service::snapshot`].
    pub pins: u64,
    /// [`Service::at_version`] hits served from the version cache.
    pub cache_hits: u64,
    /// [`Service::at_version`] requests for versions outside the cache.
    pub cache_misses: u64,
    /// Changelog entries dropped by bounded retention
    /// ([`ServiceOptions::changelog_capacity`]). Non-zero means full
    /// history reconstruction is no longer possible and
    /// [`Service::changelog`] returns [`Error::VersionEvicted`].
    pub changelog_evicted: u64,
    /// Submissions in the most recent write cycle (the coalesce width:
    /// `1` for a lone writer, larger under contention).
    pub last_cycle_width: u64,
    /// Largest write-cycle batch so far.
    pub max_cycle_width: u64,
}

stat_set!(ServiceStats {
    version,
    submissions,
    write_cycles,
    coalesced,
    rejected,
    pins,
    cache_hits,
    cache_misses,
    changelog_evicted,
    last_cycle_width,
    max_cycle_width,
});

/// A pinned, immutable view of one published program version. Cloning is
/// two pointer copies; all queries are lock-free reads of shared
/// immutable data, safe from any number of threads.
#[derive(Clone)]
pub struct ModelSnapshot {
    version: u64,
    model: Arc<Model>,
}

impl ModelSnapshot {
    /// The version this snapshot pins (0 = the initially loaded program;
    /// each published write cycle increments it).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The full three-valued model of this version.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Three-valued truth of `pred(args…)` in this version — the hot
    /// read path; a hash probe plus a bitset test.
    pub fn truth(&self, pred: &str, args: &[&str]) -> Truth {
        self.model.truth(pred, args)
    }

    /// Solve a **relevance-restricted subquery** against this pinned
    /// version: the well-founded model of the dependency cone of
    /// `queries` (ground atoms as text, e.g. `"wins(a)"`), computed
    /// entirely on the calling thread over the snapshot's immutable
    /// ground program — no writer involvement, no lock. Atoms outside
    /// the cone report `False`; only query truth values within the cone
    /// are meaningful. Useful when a reader wants fresh bounded-effort
    /// reasoning (e.g. explanation extraction over a cone) without
    /// waiting for, or disturbing, the writer.
    pub fn subquery<I, S>(&self, queries: I) -> Result<Model, Error>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let queries: Vec<String> = queries.into_iter().map(Into::into).collect();
        restricted_wfs_model(self.model.ground(), &queries)
    }
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("version", &self.version)
            .field("model", &self.model)
            .finish()
    }
}

/// One queued submission: the delta plus the slot its submitter blocks
/// on until the cycle that applies it publishes (or fails). The net
/// tier's dedicated writer thread ([`crate::net::AsyncService`]) builds
/// these too and feeds them through [`Service::run_cycle`].
pub(crate) struct Pending {
    pub(crate) kind: DeltaKind,
    pub(crate) text: String,
    pub(crate) slot: Arc<Slot>,
}

impl Pending {
    pub(crate) fn new(kind: DeltaKind, text: String, slot: Arc<Slot>) -> Pending {
        Pending { kind, text, slot }
    }
}

impl Drop for Pending {
    /// Panic safety: a `Pending` dropped before its slot was filled means
    /// the leader unwound mid-cycle (a bug in a delta path, surfaced as a
    /// panic). Fail the submission instead of leaving its submitter
    /// blocked on the condvar forever.
    fn drop(&mut self) {
        let mut guard = lock(&self.slot.result);
        if guard.is_none() {
            *guard = Some(Err(Error::WriterAborted));
            self.slot.ready.notify_all();
        }
    }
}

/// Completion slot for one submission.
#[derive(Default)]
pub(crate) struct Slot {
    result: Mutex<Option<Result<u64, Error>>>,
    ready: Condvar,
}

impl Slot {
    pub(crate) fn fill(&self, outcome: Result<u64, Error>) {
        *lock(&self.result) = Some(outcome);
        self.ready.notify_all();
    }

    pub(crate) fn wait(&self) -> Result<u64, Error> {
        let mut guard = lock(&self.result);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll: `None` while the cycle is still pending.
    pub(crate) fn try_get(&self) -> Option<Result<u64, Error>> {
        lock(&self.result).clone()
    }

    /// Wait at most `timeout` for the terminal result. `None` on
    /// timeout — the submission stays queued and may still complete.
    pub(crate) fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Result<u64, Error>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = lock(&self.result);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return Some(outcome.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }
}

/// The submission queue and the leader flag: the first submitter to find
/// `writer_active == false` becomes the cycle leader and drains the
/// queue (its own delta included) until empty; everyone else just
/// enqueues and waits on their slot.
#[derive(Default)]
struct WriteQueue {
    pending: Vec<Pending>,
    writer_active: bool,
}

/// The writer session plus the deltas applied to it that no published
/// version carries yet. Normally `unpublished` drains into the changelog
/// at the very next publish; it stays non-empty only across cycles whose
/// *solve* failed (e.g. `Semantics::Perfect` on a program a delta made
/// non-stratified) — those deltas are in the session, so the next version
/// that does solve must attribute them.
struct Writer {
    session: Session,
    unpublished: Vec<(DeltaKind, String)>,
    /// Durability, when enabled ([`Service::with_journal`] /
    /// [`Service::recover`]): the write-ahead log every cycle appends to
    /// before publishing. Living under the writer lock serializes
    /// appends with the cycles they record for free.
    journal: Option<Journal>,
}

struct Shared {
    queue: Mutex<WriteQueue>,
    /// The single writer. Held only by the cycle leader, and never while
    /// `queue` is locked (submitters must be able to enqueue during a
    /// running cycle — that is what coalescing is).
    writer: Mutex<Writer>,
    /// The published head. Readers take the read side for one `Arc`
    /// bump; only a publishing cycle takes the write side, briefly.
    head: RwLock<ModelSnapshot>,
    /// Mirror of `head.version` readable without any lock.
    version: AtomicU64,
    cache: Mutex<VecDeque<ModelSnapshot>>,
    changelog: Mutex<VecDeque<AppliedDelta>>,
    /// The highest version any *evicted* changelog entry carried (0 =
    /// nothing evicted yet). Deltas with version ≤ this horizon are no
    /// longer fully recorded, so reconstruction from the base program is
    /// only exact for reads anchored at a version ≥ the horizon.
    log_horizon: AtomicU64,
    /// Fault-injection seam: the next matching crash point panics the
    /// write cycle that reaches it (see
    /// [`Service::inject_crash_for_testing`]). Always `None` outside the
    /// crash-recovery test suite.
    crash_seam: Mutex<Option<CrashPoint>>,
    options: ServiceOptions,
    submissions: AtomicU64,
    write_cycles: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    pins: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    changelog_evicted: AtomicU64,
    last_cycle_width: AtomicU64,
    max_cycle_width: AtomicU64,
    /// Phase-timing sink for write cycles. Enabled (but unconfigured —
    /// no trace file, no slow-cycle threshold) by default so `metrics`
    /// works out of the box; [`Service::set_telemetry`] swaps in a
    /// configured or disabled handle. The mutex guards only the handle
    /// swap — cycles clone the handle out and record through atomics.
    telemetry: Mutex<Telemetry>,
    /// Construction instant, for `ping`'s `uptime_ms`.
    started: Instant,
}

/// A concurrent serving layer over one writer [`Session`]. Cheap to
/// clone (shared handle); clones refer to the same service. See the
/// module docs for the full model.
#[derive(Clone)]
pub struct Service {
    shared: Arc<Shared>,
}

impl Service {
    /// Wrap a loaded session, solve it once, and publish version 0.
    pub fn new(session: Session) -> Result<Service, Error> {
        Service::with_options(session, ServiceOptions::default())
    }

    /// [`Service::new`] with explicit cache/changelog bounds.
    pub fn with_options(session: Session, options: ServiceOptions) -> Result<Service, Error> {
        Service::build(session, options, None, 0, Vec::new(), 0)
    }

    /// [`Service::with_options`] plus durability: create a fresh journal
    /// in `dir` (checkpoint-0 from the session's retained source, an
    /// empty write-ahead log) and append every subsequent write cycle's
    /// deltas to it **before** they publish. Refuses a directory that
    /// already holds journal state — [`Service::recover`] from it
    /// instead — and a session without retained source text
    /// ([`Engine::load_ground`]), whose checkpoints could not be
    /// serialized. See [`crate::journal`] for the format and crash
    /// semantics, [`JournalOptions`] for the fsync/checkpoint knobs.
    pub fn with_journal(
        session: Session,
        options: ServiceOptions,
        dir: impl AsRef<std::path::Path>,
        journal_options: JournalOptions,
    ) -> Result<Service, Error> {
        let base = session.source_text().ok_or_else(|| {
            Error::Journal(
                "session keeps no source text (loaded from a pre-ground program), \
                 so checkpoints cannot be serialized; journaling needs a text- or \
                 AST-loaded session"
                    .into(),
            )
        })?;
        let journal = Journal::create(dir, journal_options, &base)?;
        Service::build(session, options, Some(journal), 0, Vec::new(), 0)
    }

    /// Bring a journaled service back after a crash: load the newest
    /// valid checkpoint, replay the journal tail **through the normal
    /// warm-update path** (the same [`Session`] delta entry points live
    /// writes use), and publish the recovered head — whose version
    /// continues exactly where the durable history ends. A torn tail
    /// (crash mid-append) is truncated; mid-journal corruption is a loud
    /// [`Error::JournalCorrupt`]. The changelog is seeded from the
    /// replayed records and its horizon from the checkpoint version, so
    /// reads anchored below the checkpoint get [`Error::VersionEvicted`]
    /// rather than a silently gapped replay; intermediate versions'
    /// snapshots are not recomputed ([`Service::at_version`] serves only
    /// the recovered head until new writes refill the cache).
    pub fn recover(
        engine: &Engine,
        dir: impl AsRef<std::path::Path>,
        options: ServiceOptions,
        journal_options: JournalOptions,
    ) -> Result<Service, Error> {
        let recovered = journal::recover(dir, journal_options)?;
        let mut session = engine.load(&recovered.checkpoint_text)?;
        let mut entries = Vec::with_capacity(recovered.records.len());
        for record in &recovered.records {
            apply_delta(&mut session, record.kind, &record.text).map_err(|e| {
                Error::Journal(format!(
                    "replaying journal record for version {}: {e}",
                    record.version
                ))
            })?;
            entries.push(AppliedDelta {
                version: record.version,
                kind: record.kind,
                text: record.text.clone(),
            });
        }
        let head_version = recovered
            .records
            .last()
            .map_or(recovered.checkpoint_version, |r| r.version);
        Service::build(
            session,
            options,
            Some(recovered.journal),
            head_version,
            entries,
            recovered.checkpoint_version,
        )
    }

    /// Shared tail of every constructor: solve the (possibly replayed)
    /// session once, publish `head_version`, and seed the changelog with
    /// the already-durable `entries` (recovery) under the usual bounded
    /// retention.
    fn build(
        mut session: Session,
        options: ServiceOptions,
        journal: Option<Journal>,
        head_version: u64,
        entries: Vec<AppliedDelta>,
        horizon: u64,
    ) -> Result<Service, Error> {
        let model = session.solve()?;
        let head = ModelSnapshot {
            version: head_version,
            model: Arc::new(model),
        };
        let mut cache = VecDeque::with_capacity(options.cache_capacity.min(64));
        if options.cache_capacity > 0 {
            cache.push_back(head.clone());
        }
        let mut changelog: VecDeque<AppliedDelta> = entries.into();
        let mut horizon = horizon;
        let mut evicted = 0u64;
        while changelog.len() > options.changelog_capacity {
            if let Some(entry) = changelog.pop_front() {
                horizon = horizon.max(entry.version);
                evicted += 1;
            }
        }
        Ok(Service {
            shared: Arc::new(Shared {
                queue: Mutex::new(WriteQueue::default()),
                writer: Mutex::new(Writer {
                    session,
                    unpublished: Vec::new(),
                    journal,
                }),
                head: RwLock::new(head),
                version: AtomicU64::new(head_version),
                cache: Mutex::new(cache),
                changelog: Mutex::new(changelog),
                log_horizon: AtomicU64::new(horizon),
                crash_seam: Mutex::new(None),
                options,
                submissions: AtomicU64::new(0),
                write_cycles: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                pins: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                changelog_evicted: AtomicU64::new(evicted),
                last_cycle_width: AtomicU64::new(0),
                max_cycle_width: AtomicU64::new(0),
                telemetry: Mutex::new(Telemetry::new()),
                started: Instant::now(),
            }),
        })
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Pin the current version. One `RwLock` read acquisition; every
    /// query against the returned snapshot is lock-free.
    pub fn snapshot(&self) -> ModelSnapshot {
        self.shared.pins.fetch_add(1, Ordering::Relaxed);
        self.shared
            .head
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The latest published version, without pinning anything.
    pub fn version(&self) -> u64 {
        self.shared.version.load(Ordering::Acquire)
    }

    /// Pin a specific recent version from the version cache — pointer
    /// copies for anything still cached ("repeat versions for free"),
    /// [`Error::VersionEvicted`] once bounded retention has dropped it
    /// (or for a version that was never published). Retention is
    /// bounded by [`ServiceOptions::cache_capacity`] so sustained
    /// writes cannot grow memory without limit.
    pub fn at_version(&self, version: u64) -> Result<ModelSnapshot, Error> {
        let cache = lock(&self.shared.cache);
        match cache.iter().find(|s| s.version == version) {
            Some(snapshot) => {
                self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                Ok(snapshot.clone())
            }
            None => {
                self.shared.cache_misses.fetch_add(1, Ordering::Relaxed);
                Err(Error::VersionEvicted {
                    requested: version,
                    retained_from: cache.front().map_or(0, |s| s.version),
                    retained_to: cache.back().map_or(0, |s| s.version),
                })
            }
        }
    }

    /// The deltas behind each published version, oldest first. Version
    /// `v`'s snapshot is the base program plus every entry with
    /// `version <= v`. Returns [`Error::VersionEvicted`] once bounded
    /// retention ([`ServiceOptions::changelog_capacity`]) has dropped
    /// any entry — full-history reconstruction would silently be wrong;
    /// use [`Service::changelog_since`] with a recent anchor instead.
    pub fn changelog(&self) -> Result<Vec<AppliedDelta>, Error> {
        self.changelog_since(0)
    }

    /// The deltas that take snapshot `since` to the current head: every
    /// applied delta with `version > since`, oldest first. Returns
    /// [`Error::VersionEvicted`] if any such entry has been dropped by
    /// bounded retention (i.e. `since` predates the horizon), so a
    /// caller can never silently reconstruct from a gapped log.
    pub fn changelog_since(&self, since: u64) -> Result<Vec<AppliedDelta>, Error> {
        let log = lock(&self.shared.changelog);
        let horizon = self.shared.log_horizon.load(Ordering::Acquire);
        if since < horizon {
            return Err(Error::VersionEvicted {
                requested: since,
                retained_from: horizon,
                retained_to: self.shared.version.load(Ordering::Acquire),
            });
        }
        Ok(log.iter().filter(|e| e.version > since).cloned().collect())
    }

    /// Cumulative service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared;
        ServiceStats {
            version: s.version.load(Ordering::Acquire),
            submissions: s.submissions.load(Ordering::Relaxed),
            write_cycles: s.write_cycles.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            pins: s.pins.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            changelog_evicted: s.changelog_evicted.load(Ordering::Relaxed),
            last_cycle_width: s.last_cycle_width.load(Ordering::Relaxed),
            max_cycle_width: s.max_cycle_width.load(Ordering::Relaxed),
        }
    }

    /// The writer session's own reuse counters (briefly locks the
    /// writer; don't call on a hot read path).
    pub fn session_stats(&self) -> SessionStats {
        *lock(&self.shared.writer).session.stats()
    }

    /// Install a telemetry handle — a configured one (trace stream,
    /// Prometheus format, slow-cycle threshold) or
    /// [`Telemetry::disabled`] to make every recording call a no-op.
    /// Cycles already in flight finish recording into the handle they
    /// cloned at cycle start.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *lock(&self.shared.telemetry) = telemetry;
    }

    /// A clone of the current telemetry handle (shares the same
    /// registry, ring and trace sink).
    pub fn telemetry(&self) -> Telemetry {
        lock(&self.shared.telemetry).clone()
    }

    /// Milliseconds since this service was constructed.
    pub fn uptime_ms(&self) -> u64 {
        self.shared.started.elapsed().as_millis() as u64
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Assert ground facts; blocks until the write cycle that includes
    /// them publishes, and returns that version.
    pub fn assert_facts(&self, facts: &str) -> Result<u64, Error> {
        self.submit(DeltaKind::AssertFacts, facts)
    }

    /// Retract ground facts; see [`Service::assert_facts`].
    pub fn retract_facts(&self, facts: &str) -> Result<u64, Error> {
        self.submit(DeltaKind::RetractFacts, facts)
    }

    /// Assert rules (facts allowed); see [`Service::assert_facts`].
    pub fn assert_rules(&self, rules: &str) -> Result<u64, Error> {
        self.submit(DeltaKind::AssertRules, rules)
    }

    /// Retract rules; see [`Service::assert_facts`].
    pub fn retract_rules(&self, rules: &str) -> Result<u64, Error> {
        self.submit(DeltaKind::RetractRules, rules)
    }

    /// Queue one delta and drive (or wait for) the write cycle that
    /// applies it. The first submitter to find no cycle in flight
    /// becomes the leader and drains the queue until empty — including
    /// deltas that arrive *while* it is applying earlier ones, which is
    /// exactly the coalescing: those share one batched warm update and
    /// one solve.
    fn submit(&self, kind: DeltaKind, text: &str) -> Result<u64, Error> {
        self.shared.submissions.fetch_add(1, Ordering::Relaxed);
        // Reject malformed text before it can poison a shared batch:
        // parse errors (and non-fact rules on the fact paths) are the
        // submitter's own, never its cycle-mates'.
        if let Err(e) = validate(kind, text) {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let slot = Arc::new(Slot::default());
        let leader = {
            let mut queue = lock(&self.shared.queue);
            queue.pending.push(Pending {
                kind,
                text: text.to_string(),
                slot: Arc::clone(&slot),
            });
            if queue.writer_active {
                false
            } else {
                queue.writer_active = true;
                true
            }
        };
        if leader {
            self.drain_cycles();
        }
        let outcome = slot.wait();
        if outcome.is_err() {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Leader loop: take everything queued, run one write cycle, repeat
    /// until the queue drains, then hand the leader role back.
    ///
    /// Panic safety: if a cycle unwinds, the guard hands the leader role
    /// back and fails everything still queued (each dropped [`Pending`]
    /// completes its slot with [`Error::WriterAborted`]), so no submitter
    /// is left blocked behind a dead leader. Published versions are
    /// unaffected — publishing is the last step of a successful cycle.
    fn drain_cycles(&self) {
        struct LeaderGuard<'a> {
            shared: &'a Shared,
            clean_exit: bool,
        }
        impl Drop for LeaderGuard<'_> {
            fn drop(&mut self) {
                if !self.clean_exit {
                    let abandoned = {
                        let mut queue = lock(&self.shared.queue);
                        queue.writer_active = false;
                        std::mem::take(&mut queue.pending)
                    };
                    drop(abandoned); // fails each slot via Pending::drop
                }
            }
        }
        let mut guard = LeaderGuard {
            shared: &self.shared,
            clean_exit: false,
        };
        loop {
            let batch = {
                let mut queue = lock(&self.shared.queue);
                if queue.pending.is_empty() {
                    // Atomic with the emptiness check: a submitter that
                    // enqueues after this sees `writer_active == false`
                    // and becomes the next leader itself.
                    queue.writer_active = false;
                    break;
                }
                std::mem::take(&mut queue.pending)
            };
            self.run_cycle(batch);
        }
        guard.clean_exit = true;
    }

    /// One write cycle: apply the whole batch to the writer session
    /// (adjacent same-kind deltas merged into one batched call), solve
    /// once, publish the new version, and complete every submitter's
    /// slot. `pub(crate)` so the net tier's dedicated writer thread
    /// ([`crate::net::AsyncService`]) can drive cycles off its own
    /// bounded queue; concurrent cycles serialize on the writer lock.
    pub(crate) fn run_cycle(&self, batch: Vec<Pending>) {
        let telemetry = self.telemetry();
        let cycle_started = Instant::now();
        self.shared.write_cycles.fetch_add(1, Ordering::Relaxed);
        self.shared
            .last_cycle_width
            .store(batch.len() as u64, Ordering::Relaxed);
        self.shared
            .max_cycle_width
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        if batch.len() > 1 {
            self.shared
                .coalesced
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        let mut writer = lock(&self.shared.writer);
        // Phase accounting starts fresh each cycle: anything the session
        // accumulated outside a cycle (direct use, recovery replay) must
        // not be attributed to this one.
        let _ = writer.session.take_phases();

        // Apply, in submission order, merging adjacent same-kind runs
        // into a single batched call (one envelope-delta round per run).
        // A failed *merged* call is retried delta by delta, so each
        // submitter gets its own verdict — one semantically invalid
        // delta (unsafe rule, budget trip) must not take down its
        // cycle-mates. Session updates are commit-on-success, so the
        // failed merged call left no partial state behind.
        // `outcomes[i]` is `Ok(())` iff delta `i` is in the session now.
        let mut outcomes: Vec<Result<(), Error>> = Vec::with_capacity(batch.len());
        let mut start = 0;
        while start < batch.len() {
            let kind = batch[start].kind;
            let mut end = start + 1;
            while end < batch.len() && batch[end].kind == kind {
                end += 1;
            }
            let run = &batch[start..end];
            let merged: String = run
                .iter()
                .map(|p| p.text.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            match apply_delta(&mut writer.session, kind, &merged) {
                Ok(()) => outcomes.extend(run.iter().map(|_| Ok(()))),
                Err(e) if run.len() == 1 => outcomes.push(Err(e)),
                Err(_) => {
                    for pending in run {
                        outcomes.push(apply_delta(&mut writer.session, kind, &pending.text));
                    }
                }
            }
            start = end;
        }

        // Every delta in the session but not yet in a published version
        // is owed a changelog entry by the next version that solves.
        for (pending, outcome) in batch.iter().zip(&outcomes) {
            if outcome.is_ok() {
                writer
                    .unpublished
                    .push((pending.kind, pending.text.clone()));
            }
        }

        if writer.unpublished.is_empty() {
            // Nothing changed; no new version. Report each failure.
            drop(writer);
            for (pending, outcome) in batch.iter().zip(outcomes) {
                let err = outcome.expect_err("cycle with no applied delta");
                pending.slot.fill(Err(err));
            }
            return;
        }

        match writer.session.solve() {
            Ok(model) => {
                let phases = writer.session.take_phases();
                let version = self.shared.version.load(Ordering::Acquire) + 1;
                let snapshot = ModelSnapshot {
                    version,
                    model: Arc::new(model),
                };
                // Write-ahead: every delta of this cycle becomes a
                // journal record stamped `version`, appended and (policy
                // permitting) synced BEFORE the version is published or
                // any submitter acked — so an acked write is never ahead
                // of the log. A journal I/O failure fails the cycle like
                // a solve failure: no publish, the cycle's records are
                // rolled back off the WAL, the applied deltas stay in
                // `unpublished` (they are in the session), and the next
                // cycle that succeeds re-appends and attributes them.
                let (journal_append_ns, fsync_ns) = if writer.journal.is_some() {
                    match self.journal_cycle(&mut writer, version) {
                        Ok(timing) => timing,
                        Err(e) => {
                            drop(writer);
                            for (pending, outcome) in batch.iter().zip(outcomes) {
                                pending.slot.fill(match outcome {
                                    Ok(()) => Err(e.clone()),
                                    Err(apply_err) => Err(apply_err),
                                });
                            }
                            return;
                        }
                    }
                } else {
                    (0, 0)
                };
                let applied = std::mem::take(&mut writer.unpublished);
                let width = applied.len() as u64;
                let publish_started = Instant::now();
                self.publish(&snapshot, applied);
                let publish_ns = publish_started.elapsed().as_nanos() as u64;
                self.maybe_checkpoint(&mut writer, version);
                drop(writer);
                telemetry.record_cycle(&PhaseBreakdown {
                    version,
                    width,
                    total_ns: cycle_started.elapsed().as_nanos() as u64,
                    ground_ns: phases.ground_ns,
                    repair_ns: phases.repair_ns,
                    condense_ns: phases.condense_ns,
                    solve_ns: phases.solve_ns,
                    journal_append_ns,
                    fsync_ns,
                    publish_ns,
                });
                // Slots fill only after the sync above: with
                // `JournalOptions::ack_durable` this is ack-after-
                // durable — a submitter (or net-tier `SubmitHandle`)
                // resolves only once its record is on disk.
                for (pending, outcome) in batch.iter().zip(outcomes) {
                    pending.slot.fill(outcome.map(|_| version));
                }
            }
            Err(e) => {
                // The solve failed (no perfect model, a grounding error
                // surfacing through recovery): no publish. The applied
                // deltas stay recorded in `unpublished` and will be
                // attributed to the next version that does solve; their
                // submitters get the solve error so they know their
                // version never became visible.
                drop(writer);
                for (pending, outcome) in batch.iter().zip(outcomes) {
                    pending.slot.fill(match outcome {
                        Ok(()) => Err(e.clone()),
                        Err(apply_err) => Err(apply_err),
                    });
                }
            }
        }
    }

    /// Swing the head to `snapshot` and record it in the cache and
    /// changelog. Called with the writer lock held — publishing is the
    /// last step of a cycle, so readers can never pin a version whose
    /// solve has not finished.
    fn publish(&self, snapshot: &ModelSnapshot, applied: Vec<(DeltaKind, String)>) {
        {
            let mut head = self
                .shared
                .head
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            *head = snapshot.clone();
        }
        self.shared
            .version
            .store(snapshot.version, Ordering::Release);
        if self.shared.options.cache_capacity > 0 {
            let mut cache = lock(&self.shared.cache);
            cache.push_back(snapshot.clone());
            while cache.len() > self.shared.options.cache_capacity {
                cache.pop_front();
            }
        }
        let mut log = lock(&self.shared.changelog);
        for (kind, text) in applied {
            log.push_back(AppliedDelta {
                version: snapshot.version,
                kind,
                text,
            });
        }
        while log.len() > self.shared.options.changelog_capacity {
            if let Some(evicted) = log.pop_front() {
                // Monotone: entries leave oldest-first, so the horizon
                // only advances. Reads anchored below it get
                // `Error::VersionEvicted` instead of a gapped replay.
                self.shared
                    .log_horizon
                    .fetch_max(evicted.version, Ordering::AcqRel);
                self.shared
                    .changelog_evicted
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Append this cycle's applied deltas to the write-ahead log and
    /// sync per policy, with the pre/post-append crash seams around it.
    /// Called with the writer lock held, before publish. Returns this
    /// cycle's `(append_ns, fsync_ns)` wall time for the telemetry
    /// phase breakdown.
    fn journal_cycle(&self, writer: &mut Writer, version: u64) -> Result<(u64, u64), Error> {
        self.maybe_crash(CrashPoint::PreAppend);
        let Writer {
            journal,
            unpublished,
            ..
        } = writer;
        let journal = journal
            .as_mut()
            .expect("journal_cycle on an unjournaled service");
        // On any failure, roll the WAL back to the pre-cycle boundary:
        // the retry cycle re-appends everything fresh, so the log never
        // carries duplicate records or a torn frame mid-file.
        let mark = journal.mark();
        let append_started = Instant::now();
        for (kind, text) in unpublished.iter() {
            if let Err(e) = journal.append(version, *kind, text) {
                journal.rollback(mark);
                return Err(e);
            }
        }
        let append_ns = append_started.elapsed().as_nanos() as u64;
        let sync_started = Instant::now();
        if let Err(e) = journal.sync_for_publish() {
            journal.rollback(mark);
            return Err(e);
        }
        let fsync_ns = sync_started.elapsed().as_nanos() as u64;
        self.maybe_crash(CrashPoint::PostAppend);
        Ok((append_ns, fsync_ns))
    }

    /// Run the automatic checkpoint interval
    /// ([`JournalOptions::checkpoint_every`]) after a publish. Failure
    /// here is not a write failure — the version already published and
    /// the WAL still covers it — so it only surfaces through
    /// [`JournalStats::failed_ops`].
    fn maybe_checkpoint(&self, writer: &mut Writer, version: u64) {
        if writer
            .journal
            .as_ref()
            .is_some_and(|j| j.checkpoint_due(version))
        {
            let _ = self.checkpoint_writer(writer, version);
        }
    }

    fn checkpoint_writer(&self, writer: &mut Writer, version: u64) -> Result<(), Error> {
        let crash = self.take_crash(CrashPoint::MidCheckpoint);
        let Writer {
            session, journal, ..
        } = writer;
        let journal = journal.as_mut().ok_or_else(|| {
            Error::Journal(
                "service has no journal (start it with with_journal/recover, or the \
                 CLI --journal flag)"
                    .into(),
            )
        })?;
        let text = session.source_text().ok_or_else(|| {
            Error::Journal("session keeps no source text; cannot checkpoint".into())
        })?;
        journal.checkpoint(version, &text, crash)
    }

    /// Write a checkpoint of the current version now (the protocol's
    /// `checkpoint` command) and compact the journal prefix it subsumes.
    /// Returns the checkpointed version. A no-op (still `Ok`) when the
    /// current version is already checkpointed;
    /// [`Error::Journal`] on an unjournaled service.
    pub fn checkpoint(&self) -> Result<u64, Error> {
        let mut writer = lock(&self.shared.writer);
        let version = self.shared.version.load(Ordering::Acquire);
        self.checkpoint_writer(&mut writer, version)?;
        Ok(version)
    }

    /// Journal counters, `None` on an unjournaled service. Briefly locks
    /// the writer.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        lock(&self.shared.writer)
            .journal
            .as_ref()
            .map(|j| j.stats())
    }

    /// Arm (or with `None`, disarm) the fault-injection seam: the next
    /// write cycle to reach `point` panics there, exactly as an OOM kill
    /// or power cut at that instruction would end the process. One-shot:
    /// the seam disarms as it fires. Like the grounder's poison seam and
    /// the net tier's `hold_writer`, this is test-only plumbing kept out
    /// of the docs rather than behind `cfg(test)` so the crash-recovery
    /// suite in `tests/` can reach it.
    #[doc(hidden)]
    pub fn inject_crash_for_testing(&self, point: Option<CrashPoint>) {
        *lock(&self.shared.crash_seam) = point;
    }

    /// Consume the seam if it is armed at `point`.
    fn take_crash(&self, point: CrashPoint) -> bool {
        let mut seam = lock(&self.shared.crash_seam);
        if *seam == Some(point) {
            *seam = None;
            true
        } else {
            false
        }
    }

    fn maybe_crash(&self, point: CrashPoint) {
        if self.take_crash(point) {
            panic!("afp crash seam: {point:?}");
        }
    }

    /// Count a submission that entered through an upstream queue (the
    /// net tier's admission control) so `ServiceStats::submissions`
    /// covers every tier.
    pub(crate) fn note_submission(&self) {
        self.shared.submissions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a submission that terminally failed upstream or inside a
    /// net-tier cycle (`Overloaded`, deadline expiry, apply error), so
    /// `ServiceStats::rejected` counts every failed submission
    /// regardless of which layer refused it.
    pub(crate) fn note_rejection(&self) {
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("version", &self.version())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Route one delta to the matching [`Session`] update entry point.
fn apply_delta(session: &mut Session, kind: DeltaKind, text: &str) -> Result<(), Error> {
    match kind {
        DeltaKind::AssertFacts => session.assert_facts(text),
        DeltaKind::RetractFacts => session.retract_facts(text),
        DeltaKind::AssertRules => session.assert_rules(text),
        DeltaKind::RetractRules => session.retract_rules(text),
    }
}

/// Pre-validate a submission so that a *textually* malformed delta fails
/// fast on the submitting thread, before it can reach a merged batch:
/// the fact paths run the same batch validation the session applies
/// ([`crate::engine::parse_fact_batch`]), the rule paths the same parse.
/// Semantic failures that need the live session (safety, budgets) are
/// caught in the cycle, where a failed merged run is retried delta by
/// delta for exact attribution.
pub(crate) fn validate(kind: DeltaKind, text: &str) -> Result<(), Error> {
    if matches!(kind, DeltaKind::AssertFacts | DeltaKind::RetractFacts) {
        crate::engine::parse_fact_batch(text)?;
    } else {
        afp_datalog::parse_program(text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    const WIN_MOVE: &str =
        "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";

    #[test]
    fn abandoned_pending_fails_its_slot_instead_of_blocking() {
        // The panic-safety protocol: a `Pending` dropped unfilled (leader
        // unwound mid-cycle) completes its submitter with `WriterAborted`
        // rather than leaving it on the condvar forever.
        let slot = Arc::new(Slot::default());
        let pending = Pending {
            kind: DeltaKind::AssertFacts,
            text: "a.".into(),
            slot: Arc::clone(&slot),
        };
        drop(pending);
        assert!(matches!(slot.wait(), Err(Error::WriterAborted)));
    }

    #[test]
    fn versions_advance_and_pins_stay_immutable() {
        let service = Engine::default().serve(WIN_MOVE).unwrap();
        let v0 = service.snapshot();
        assert_eq!(v0.version(), 0);
        assert_eq!(v0.truth("wins", &["b"]), Truth::True);

        let v = service.assert_facts("move(c, d).").unwrap();
        assert_eq!(v, 1);
        assert_eq!(service.version(), 1);
        let v1 = service.snapshot();
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.truth("wins", &["c"]), Truth::True);
        assert_eq!(v0.truth("wins", &["c"]), Truth::False, "pin unaffected");

        let v = service.retract_facts("move(c, d).").unwrap();
        assert_eq!(v, 2);
        assert_eq!(service.snapshot().truth("wins", &["c"]), Truth::False);
    }

    #[test]
    fn version_cache_serves_recent_versions() {
        let service = Engine::default().serve(WIN_MOVE).unwrap();
        service.assert_facts("move(c, d).").unwrap();
        service.assert_facts("move(d, e).").unwrap();
        let v1 = service.at_version(1).expect("cached");
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.truth("wins", &["c"]), Truth::True);
        assert_eq!(v1.truth("wins", &["d"]), Truth::False, "v1 predates d→e");
        assert!(matches!(
            service.at_version(99),
            Err(Error::VersionEvicted {
                requested: 99,
                retained_from: 0,
                retained_to: 2,
            })
        ));
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn bounded_retention_reports_eviction_not_gapped_history() {
        let options = ServiceOptions {
            cache_capacity: 2,
            changelog_capacity: 3,
        };
        let service =
            Service::with_options(Engine::default().load(WIN_MOVE).unwrap(), options).unwrap();
        for i in 0..5 {
            service.assert_facts(&format!("extra(e{i}).")).unwrap();
        }
        // Version cache keeps the newest two versions only.
        assert!(service.at_version(5).is_ok());
        assert!(service.at_version(4).is_ok());
        let err = service.at_version(1).unwrap_err();
        assert!(
            matches!(
                err,
                Error::VersionEvicted {
                    requested: 1,
                    retained_from: 4,
                    retained_to: 5,
                }
            ),
            "{err:?}"
        );
        // Changelog kept 3 of 5 entries: versions 1 and 2 fell off, so
        // the horizon is 2 and full-history reads refuse.
        let err = service.changelog().unwrap_err();
        assert!(
            matches!(
                err,
                Error::VersionEvicted {
                    requested: 0,
                    retained_from: 2,
                    retained_to: 5,
                }
            ),
            "{err:?}"
        );
        assert!(service.changelog_since(1).is_err(), "1 < horizon");
        let tail = service.changelog_since(2).unwrap();
        assert_eq!(
            tail.iter().map(|e| e.version).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "anchored at the horizon, the retained tail replays exactly"
        );
        assert_eq!(service.stats().changelog_evicted, 2);
        // Memory stays bounded: a long write burst cannot grow the log.
        for i in 0..20 {
            service.assert_facts(&format!("more(m{i}).")).unwrap();
        }
        assert_eq!(service.changelog_since(service.version()).unwrap().len(), 0);
        assert_eq!(service.stats().changelog_evicted, 22);
    }

    #[test]
    fn failed_deltas_do_not_publish() {
        let service = Engine::default().serve(WIN_MOVE).unwrap();
        let err = service.assert_facts("p :- ").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        let err = service.assert_facts("p :- q.").unwrap_err();
        assert!(matches!(err, Error::NotAFact(_)), "rules on the fact path");
        let err = service.assert_rules("r(X) :- not s(X).").unwrap_err();
        assert!(matches!(err, Error::Ground(_)), "unsafe rule");
        assert_eq!(service.version(), 0, "nothing published");
        assert_eq!(service.stats().rejected, 3);
        assert_eq!(service.snapshot().truth("wins", &["b"]), Truth::True);
    }

    #[test]
    fn rule_deltas_publish_like_fact_deltas() {
        let service = Engine::default().serve(WIN_MOVE).unwrap();
        let v = service.assert_rules("wins(X) :- bonus(X).").unwrap();
        assert_eq!(v, 1);
        let v = service.assert_facts("bonus(c).").unwrap();
        assert_eq!(v, 2);
        assert_eq!(service.snapshot().truth("wins", &["c"]), Truth::True);
        assert_eq!(
            service.snapshot().truth("wins", &["b"]),
            Truth::Undefined,
            "with the escape to c blocked, the a⇄b cycle is undecided"
        );
        let v = service.retract_rules("wins(X) :- bonus(X).").unwrap();
        assert_eq!(v, 3);
        assert_eq!(service.snapshot().truth("wins", &["b"]), Truth::True);
        let log = service.changelog().unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].kind, DeltaKind::AssertRules);
        assert_eq!(log[2].version, 3);
    }

    #[test]
    fn subquery_runs_read_side() {
        let service = Engine::default().serve(WIN_MOVE).unwrap();
        let pinned = service.snapshot();
        let sub = pinned.subquery(["wins(a)"]).unwrap();
        assert_eq!(sub.truth("wins", &["a"]), Truth::False);
        assert_eq!(sub.truth("wins", &["b"]), Truth::True, "b is in a's cone");
        // The writer may move on; the pinned subquery substrate does not.
        service.assert_facts("move(c, d).").unwrap();
        let sub = pinned.subquery(["wins(c)"]).unwrap();
        assert_eq!(sub.truth("wins", &["c"]), Truth::False, "version 0 cone");
    }

    #[test]
    fn changelog_reconstructs_each_version() {
        let service = Engine::default().serve(WIN_MOVE).unwrap();
        service.assert_facts("move(c, d).").unwrap();
        service.assert_rules("wins(X) :- bonus(X).").unwrap();
        service.assert_facts("bonus(e).").unwrap();
        for version in 0..=3u64 {
            let mut src = String::from(WIN_MOVE);
            for entry in service.changelog().unwrap() {
                if entry.version <= version {
                    assert!(matches!(
                        entry.kind,
                        DeltaKind::AssertFacts | DeltaKind::AssertRules
                    ));
                    src.push('\n');
                    src.push_str(&entry.text);
                }
            }
            let cold = Engine::default().solve(&src).unwrap();
            let snap = service.at_version(version).expect("cached");
            for (pred, args) in [("wins", ["c"]), ("wins", ["d"]), ("wins", ["e"])] {
                let refs: Vec<&str> = args.to_vec();
                assert_eq!(
                    snap.truth(pred, &refs),
                    cold.truth(pred, &refs),
                    "{pred}({args:?}) at version {version}"
                );
            }
        }
    }
}
