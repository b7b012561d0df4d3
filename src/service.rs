//! Concurrent model serving: one writer thread, any number of lock-free
//! readers.
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
//! * the single **writer** is the owned [`Session`], driven by one
//!   dedicated writer thread that the service spawns when it is built.
//!   All of the session's warm machinery (batched envelope deltas,
//!   per-SCC memoized re-solves) applies to every published version;
//! * each published version is a [`ModelSnapshot`]: an epoch-stamped
//!   `Arc<Model>` over the session's copy-on-write `GroundProgram`
//!   snapshot. **Reads take no lock**: pinning the current version is one
//!   `RwLock` read acquisition to bump an `Arc`, and every query against
//!   a pinned snapshot thereafter is plain shared-memory access to
//!   immutable data — truth probes, iteration, even whole
//!   relevance-restricted subqueries ([`ModelSnapshot::subquery`]) run on
//!   reader threads without touching the writer;
//! * writes are **submissions** to a bounded queue
//!   ([`ServiceOptions::queue_depth`]). [`Service::submit`] parses the
//!   delta on the submitting thread, the only parse a write gets, so a
//!   malformed one is refused before it can reach a shared batch. It
//!   returns a [`SubmitHandle`] at once — a futures-free promise that can
//!   be waited, polled or waited with a timeout — and the blocking
//!   [`Service::assert_facts`] family is `submit(…)?.wait()`. A full
//!   queue refuses with [`Error::Overloaded`] immediately; a queued
//!   submission whose deadline ([`ServiceOptions::submit_deadline`])
//!   passes before the writer picks it up fails with
//!   [`Error::SubmitTimeout`] without being applied;
//! * concurrent submissions **coalesce**: the writer thread takes the
//!   whole queue per cycle and applies it as one batched warm update.
//!   Each run of adjacent same-kind deltas merges into one parsed
//!   program (the statements are imported into one symbol store; no text
//!   is joined or re-parsed) and takes one session call, i.e. one
//!   envelope-delta round. The journal and the changelog still record
//!   each submission's own text. Under write contention the solve cost is
//!   paid per *cycle*, not per submission — the `write_cycles` and
//!   `submissions` counters of [`Service::metrics`] show the ratio;
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
//! ## Shutdown and panics
//!
//! Every accepted submission gets a terminal result, so no handle can
//! hang. [`Service::shutdown`] with [`Shutdown::Drain`] runs every
//! queued cycle to completion; [`Shutdown::Abort`] fails everything
//! still queued with [`Error::ServiceStopped`]. Dropping the last
//! `Service` handle drains and joins the writer thread. A write cycle
//! that panics stops the writer: its own submissions and everything
//! queued behind it fail with [`Error::WriterAborted`], later
//! submissions with [`Error::ServiceStopped`], and reads keep answering
//! from the last published version. A writer that unwound mid-delta
//! never applies another one.
//!
//! ```
//! use afp::{DeltaKind, Engine, Truth};
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
//!
//! // Or submit without blocking, and wait on the handle later.
//! let handle = service.submit(DeltaKind::AssertFacts, "move(d, e).").unwrap();
//! assert_eq!(handle.wait().unwrap(), 2);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{solve_restricted_cold, Delta};
use crate::journal::{self, CrashPoint, Journal, JournalOptions, JournalStats};
use crate::telemetry::{MetricsRegistry, PhaseBreakdown, Telemetry};
use crate::{Engine, EngineBuilder, Error, Model, Program, Session, SessionStats, Truth};
use afp_datalog::ast::import_rule;

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
    /// Bounded write-queue depth. A submission arriving at a full queue
    /// is rejected with [`Error::Overloaded`] immediately — admission
    /// control never blocks the submitter.
    pub queue_depth: usize,
    /// Default per-submission deadline, measured from enqueue. A queued
    /// submission whose deadline passes before the writer picks it up
    /// fails with [`Error::SubmitTimeout`] without being applied.
    /// `None` = no deadline. Override per call with
    /// [`Service::submit_with_deadline`].
    pub submit_deadline: Option<Duration>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache_capacity: 8,
            changelog_capacity: 1024,
            queue_depth: 64,
            submit_deadline: None,
        }
    }
}

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
        solve_restricted_cold(self.model.ground(), &queries, &EngineBuilder::default())
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

/// How [`Service::shutdown`] disposes of queued submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Run every queued cycle to completion before stopping; queued
    /// submitters get their real results.
    Drain,
    /// Stop after the in-flight cycle (if any); everything still queued
    /// fails with [`Error::ServiceStopped`].
    Abort,
}

/// Completion slot for one submission.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<Result<u64, Error>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, outcome: Result<u64, Error>) {
        *lock(&self.result) = Some(outcome);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<u64, Error> {
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
    fn try_get(&self) -> Option<Result<u64, Error>> {
        lock(&self.result).clone()
    }

    /// Wait at most `timeout` for the terminal result. `None` on
    /// timeout — the submission stays queued and may still complete.
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<u64, Error>> {
        let deadline = Instant::now() + timeout;
        let mut guard = lock(&self.result);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return Some(outcome.clone());
            }
            let now = Instant::now();
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

/// A pending submission's completion future. Futures-free blocking
/// bridge: [`wait`](SubmitHandle::wait) blocks,
/// [`try_result`](SubmitHandle::try_result) polls, and
/// [`wait_timeout`](SubmitHandle::wait_timeout) bounds the block. All
/// of them return the version that first includes the delta, or the
/// terminal error. Dropping the handle abandons the *wait*, never the
/// submission: the delta stays queued and is applied (or expired)
/// normally.
pub struct SubmitHandle {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for SubmitHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitHandle")
            .field("result", &self.slot.try_get())
            .finish()
    }
}

impl SubmitHandle {
    /// Block until the write cycle that includes this delta publishes
    /// (or terminally fails). Every queued submission is guaranteed a
    /// terminal result — by its cycle, its deadline, shutdown, or the
    /// panic-safe abort path — so this cannot hang.
    pub fn wait(&self) -> Result<u64, Error> {
        self.slot.wait()
    }

    /// Non-blocking poll: `None` while the submission is still queued
    /// or its cycle is still running.
    pub fn try_result(&self) -> Option<Result<u64, Error>> {
        self.slot.try_get()
    }

    /// [`wait`](SubmitHandle::wait), but give up after `timeout`.
    /// `None` means the submission is *still pending* (not failed):
    /// the caller may keep polling or abandon the handle.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<u64, Error>> {
        self.slot.wait_timeout(timeout)
    }
}

/// One queued submission: the delta, its deadline, and the slot its
/// submitter waits on until the cycle that applies it publishes (or
/// fails).
struct Queued {
    delta: Delta,
    slot: Arc<Slot>,
    deadline: Option<Instant>,
    enqueued: Instant,
}

impl Drop for Queued {
    /// Backstop for the terminal-result guarantee: a submission dropped
    /// before its slot was filled fails with [`Error::WriterAborted`]
    /// instead of leaving its submitter blocked on the condvar forever.
    fn drop(&mut self) {
        let mut guard = lock(&self.slot.result);
        if guard.is_none() {
            *guard = Some(Err(Error::WriterAborted));
            self.slot.ready.notify_all();
        }
    }
}

enum QueueState {
    Running,
    Draining,
    Aborting,
    Stopped,
}

struct SubmitQueue {
    items: VecDeque<Queued>,
    state: QueueState,
    /// Test seam: while `true` the writer thread leaves the queue
    /// untouched, so admission control can be exercised
    /// deterministically (fill the queue → observe `Overloaded`).
    held: bool,
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

/// State shared by every [`Service`] handle and the writer thread.
struct Shared {
    queue: Mutex<SubmitQueue>,
    /// Signaled when the queue becomes non-empty or the state/hold
    /// changes; the writer thread waits on it.
    work: Condvar,
    /// The single writer. Write cycles run on the writer thread; the
    /// lock is also taken briefly by `checkpoint` and the
    /// `session_stats`/`journal_stats` accessors, never by `stats` or
    /// `metrics`.
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
    /// Every counter of the service and its listeners, for the service's
    /// whole life.
    metrics: MetricsRegistry,
    /// Phase-timing sink for write cycles. Enabled (but unconfigured —
    /// no trace file, no slow-cycle threshold) by default so `metrics`
    /// works out of the box; [`Service::set_telemetry`] swaps in a
    /// configured or disabled handle. The mutex guards only the handle
    /// swap — cycles clone the handle out and record into `metrics`.
    telemetry: Mutex<Telemetry>,
    /// Construction instant, for `ping`'s `uptime_ms`.
    started: Instant,
}

/// The writer thread's join handle. Every [`Service`] clone holds it and
/// the writer thread does not, so dropping the last handle drops this,
/// which drains the queue and joins the thread.
struct WriterThread {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl WriterThread {
    fn stop(&self, mode: Shutdown) {
        {
            let mut q = lock(&self.shared.queue);
            if !matches!(q.state, QueueState::Stopped) {
                q.state = match mode {
                    Shutdown::Drain => QueueState::Draining,
                    Shutdown::Abort => QueueState::Aborting,
                };
            }
            q.held = false;
        }
        self.shared.work.notify_all();
        if let Some(handle) = lock(&self.handle).take() {
            // The writer loop catches every cycle panic, so the thread
            // itself ends normally.
            let _ = handle.join();
        }
    }
}

impl Drop for WriterThread {
    fn drop(&mut self) {
        self.stop(Shutdown::Drain);
    }
}

/// A concurrent serving layer over one writer [`Session`] and the
/// dedicated thread that drives it. Cheap to clone (shared handle);
/// clones refer to the same service, and dropping the last one drains
/// the write queue and joins the writer thread. See the module docs for
/// the full model.
#[derive(Clone)]
pub struct Service {
    shared: Arc<Shared>,
    thread: Arc<WriterThread>,
}

impl Service {
    /// Wrap a loaded session, solve it once, publish version 0, and
    /// start the writer thread.
    pub fn new(session: Session) -> Result<Service, Error> {
        Service::with_options(session, ServiceOptions::default())
    }

    /// [`Service::new`] with explicit cache/changelog/queue bounds.
    pub fn with_options(session: Session, options: ServiceOptions) -> Result<Service, Error> {
        Service::build(session, options, None, 0, Vec::new(), 0)
    }

    /// [`Service::with_options`] plus durability: create a fresh journal
    /// in `dir` (checkpoint-0 from the session's source text, an
    /// empty write-ahead log) and append every subsequent write cycle's
    /// deltas to it **before** they publish. Refuses a directory that
    /// already holds journal state — [`Service::recover`] from it
    /// instead — and a session without source text
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
    /// warm-update path** (the same parse and [`Session`] entry point
    /// live writes use), and publish the recovered head — whose version
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
            Delta::parse(record.kind, &record.text)
                .and_then(|delta| session.apply(&delta))
                .map_err(|e| {
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
    /// session once, publish `head_version`, seed the changelog with
    /// the already-durable `entries` (recovery) under the usual bounded
    /// retention, and spawn the writer thread.
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
        let metrics = MetricsRegistry::new(journal.is_some());
        metrics.version.set(head_version as i64);
        metrics.mirror(session.stats());
        if let Some(journal) = &journal {
            metrics.mirror(&journal.stats());
        }
        let mut changelog: VecDeque<AppliedDelta> = entries.into();
        let mut horizon = horizon;
        while changelog.len() > options.changelog_capacity {
            if let Some(entry) = changelog.pop_front() {
                horizon = horizon.max(entry.version);
                metrics.changelog_evicted.add(1);
            }
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(SubmitQueue {
                items: VecDeque::new(),
                state: QueueState::Running,
                held: false,
            }),
            work: Condvar::new(),
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
            metrics,
            telemetry: Mutex::new(Telemetry::new()),
            started: Instant::now(),
        });
        let handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("afp-writer".into())
                .spawn(move || writer_loop(&shared))
                .expect("spawn writer thread")
        };
        Ok(Service {
            thread: Arc::new(WriterThread {
                shared: Arc::clone(&shared),
                handle: Mutex::new(Some(handle)),
            }),
            shared,
        })
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Pin the current version. One `RwLock` read acquisition; every
    /// query against the returned snapshot is lock-free.
    pub fn snapshot(&self) -> ModelSnapshot {
        self.shared.metrics.pins.add(1);
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
                self.shared.metrics.cache_hits.add(1);
                Ok(snapshot.clone())
            }
            None => {
                self.shared.metrics.cache_misses.add(1);
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

    /// Every counter of the service and of the listeners fronting it —
    /// the registry behind `stats` and `metrics`. It lives as long as the
    /// service; reading it takes no lock.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The writer session's own reuse counters (briefly locks the
    /// writer; don't call on a hot read path).
    pub fn session_stats(&self) -> SessionStats {
        *lock(&self.shared.writer).session.stats()
    }

    /// Install a telemetry handle — a configured one (trace stream,
    /// Prometheus format, slow-cycle threshold) or
    /// [`Telemetry::disabled`] to make every recording call a no-op.
    /// Cycles already in flight finish recording through the handle they
    /// cloned at cycle start. The counters live in [`Service::metrics`],
    /// so a new handle resets none of them.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *lock(&self.shared.telemetry) = telemetry;
    }

    /// A clone of the current telemetry handle (shares the same ring and
    /// trace sink).
    pub fn telemetry(&self) -> Telemetry {
        self.shared.telemetry()
    }

    /// Milliseconds since this service was constructed.
    pub fn uptime_ms(&self) -> u64 {
        self.shared.started.elapsed().as_millis() as u64
    }

    /// Whether the writer thread is alive and accepting work — the
    /// liveness half of the protocol's `ping` readiness probe. `false`
    /// once the service is draining, aborting, or stopped (shutdown or
    /// a writer panic): queries still answer from published snapshots,
    /// but new submissions are refused.
    pub fn writer_live(&self) -> bool {
        matches!(lock(&self.shared.queue).state, QueueState::Running)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Assert ground facts; blocks until the write cycle that includes
    /// them publishes, and returns that version.
    pub fn assert_facts(&self, facts: &str) -> Result<u64, Error> {
        self.submit(DeltaKind::AssertFacts, facts)?.wait()
    }

    /// Retract ground facts; see [`Service::assert_facts`].
    pub fn retract_facts(&self, facts: &str) -> Result<u64, Error> {
        self.submit(DeltaKind::RetractFacts, facts)?.wait()
    }

    /// Assert rules (facts allowed); see [`Service::assert_facts`].
    pub fn assert_rules(&self, rules: &str) -> Result<u64, Error> {
        self.submit(DeltaKind::AssertRules, rules)?.wait()
    }

    /// Retract rules; see [`Service::assert_facts`].
    pub fn retract_rules(&self, rules: &str) -> Result<u64, Error> {
        self.submit(DeltaKind::RetractRules, rules)?.wait()
    }

    /// Enqueue one delta for the writer thread, with the default
    /// deadline from [`ServiceOptions::submit_deadline`]. Returns
    /// immediately: `Ok(handle)` once admitted, or the admission
    /// verdict — [`Error::Overloaded`] on a full queue (never blocks),
    /// [`Error::ServiceStopped`] after shutdown, or the parse error of a
    /// malformed delta ([`Error::NotAFact`] for a non-fact on a fact
    /// kind). The delta is parsed here, on the submitting thread, once:
    /// the writer applies the parsed form.
    pub fn submit(&self, kind: DeltaKind, text: &str) -> Result<SubmitHandle, Error> {
        self.submit_with_deadline(kind, text, self.shared.options.submit_deadline)
    }

    /// [`submit`](Service::submit) with an explicit per-submission
    /// deadline (measured from enqueue; `None` = wait indefinitely).
    pub fn submit_with_deadline(
        &self,
        kind: DeltaKind,
        text: &str,
        deadline: Option<Duration>,
    ) -> Result<SubmitHandle, Error> {
        let s = &self.shared;
        let m = &s.metrics;
        m.submissions.add(1);
        let admitted = Delta::parse(kind, text).and_then(|delta| {
            let mut q = lock(&s.queue);
            if !matches!(q.state, QueueState::Running) {
                return Err(Error::ServiceStopped);
            }
            if q.items.len() >= s.options.queue_depth {
                m.overloaded.add(1);
                return Err(Error::Overloaded);
            }
            let slot = Arc::new(Slot::default());
            let now = Instant::now();
            q.items.push_back(Queued {
                delta,
                slot: Arc::clone(&slot),
                deadline: deadline.map(|d| now + d),
                enqueued: now,
            });
            m.submitted.add(1);
            m.queue_depth.set(q.items.len() as i64);
            m.queue_depth_hwm.max(q.items.len() as i64);
            Ok(slot)
        });
        match admitted {
            Ok(slot) => {
                s.work.notify_all();
                Ok(SubmitHandle { slot })
            }
            Err(e) => {
                m.rejected.add(1);
                Err(e)
            }
        }
    }

    /// Stop the writer thread deterministically and join it. Idempotent.
    /// [`Shutdown::Drain`] completes every queued cycle first;
    /// [`Shutdown::Abort`] fails everything still queued with
    /// [`Error::ServiceStopped`]. Either way every outstanding
    /// [`SubmitHandle`] resolves. Subsequent submissions return
    /// [`Error::ServiceStopped`]; reads keep working.
    pub fn shutdown(&self, mode: Shutdown) {
        self.thread.stop(mode);
    }

    /// Test seam: freeze (`true`) / thaw (`false`) the writer thread so
    /// admission control, deadlines and shutdown can be exercised with
    /// a deterministically full queue. Hidden, not `cfg(test)`, so
    /// integration tests and benches can reach it.
    #[doc(hidden)]
    pub fn hold_writer(&self, held: bool) {
        lock(&self.shared.queue).held = held;
        self.shared.work.notify_all();
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Write a checkpoint of the current version now (the protocol's
    /// `checkpoint` command) and compact the journal prefix it subsumes.
    /// Returns the checkpointed version. A no-op (still `Ok`) when the
    /// current version is already checkpointed;
    /// [`Error::Journal`] on an unjournaled service.
    pub fn checkpoint(&self) -> Result<u64, Error> {
        let mut writer = lock(&self.shared.writer);
        let version = self.shared.version.load(Ordering::Acquire);
        let checkpointed = self.shared.checkpoint_writer(&mut writer, version);
        self.shared.mirror(&writer);
        checkpointed.map(|()| version)
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
    /// [`Service::hold_writer`], this is test-only plumbing kept out of
    /// the docs rather than behind `cfg(test)` so the crash-recovery
    /// suite in `tests/` can reach it.
    #[doc(hidden)]
    pub fn inject_crash_for_testing(&self, point: Option<CrashPoint>) {
        *lock(&self.shared.crash_seam) = point;
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("version", &self.version())
            .finish()
    }
}

/// The writer thread: wait for work, take the whole queue as one batch
/// (maximal coalescing), expire dead submissions, run the cycle, and
/// resolve every submitter. Counters move before a slot is filled, so a
/// waiter released by the fill already sees its outcome in the stats.
fn writer_loop(shared: &Shared) {
    let m = &shared.metrics;
    while let Some(batch) = next_batch(shared) {
        // Expire submissions whose deadline passed while queued: they
        // cost nothing beyond the queue slot they held.
        let now = Instant::now();
        let (expired, live): (Vec<Queued>, Vec<Queued>) = batch
            .into_iter()
            .partition(|item| item.deadline.is_some_and(|d| d <= now));
        for item in expired {
            m.timed_out.add(1);
            m.rejected.add(1);
            item.slot.fill(Err(Error::SubmitTimeout));
        }
        if live.is_empty() {
            continue;
        }

        // Queue-wait latency: enqueue → writer pickup, per submission
        // (distinct from the submit→completion latency, which includes
        // the cycle itself).
        let telemetry = shared.telemetry();
        for item in &live {
            telemetry.record_queue_wait(m, now.duration_since(item.enqueued).as_nanos() as u64);
        }

        let cycle = catch_unwind(AssertUnwindSafe(|| shared.run_cycle(&live, &telemetry)));
        let panicked = cycle.is_err();
        let outcomes = cycle.unwrap_or_else(|_| vec![Err(Error::WriterAborted); live.len()]);
        if panicked {
            // A writer that has unwound mid-delta must not keep
            // applying: stop before the batch's waiters are released,
            // so their next submission is refused, and fail whatever
            // queued behind the dead cycle.
            stop_queue(shared, &mut lock(&shared.queue), Error::WriterAborted);
        }

        let finished = Instant::now();
        m.completed.add(live.len() as u64);
        for (item, outcome) in live.iter().zip(outcomes) {
            m.write
                .record(finished.duration_since(item.enqueued).as_micros() as u64);
            if outcome.is_err() {
                m.rejected.add(1);
            }
            item.slot.fill(outcome);
        }
        if panicked {
            return;
        }
    }
}

/// Block until there is work, then take the whole queue. `None` once
/// the writer should exit: a drain found the queue empty, an abort
/// failed what was left, or the queue was already stopped.
fn next_batch(shared: &Shared) -> Option<Vec<Queued>> {
    let mut q = lock(&shared.queue);
    loop {
        match q.state {
            QueueState::Running => {
                if !q.held && !q.items.is_empty() {
                    break;
                }
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            QueueState::Draining => {
                if q.items.is_empty() {
                    q.state = QueueState::Stopped;
                    return None;
                }
                break;
            }
            QueueState::Aborting => {
                stop_queue(shared, &mut q, Error::ServiceStopped);
                return None;
            }
            QueueState::Stopped => return None,
        }
    }
    shared.metrics.queue_depth.set(0);
    Some(q.items.drain(..).collect())
}

/// Stop the queue and fail everything still in it with `err`.
fn stop_queue(shared: &Shared, q: &mut SubmitQueue, err: Error) {
    let m = &shared.metrics;
    for item in q.items.drain(..) {
        m.aborted.add(1);
        m.rejected.add(1);
        item.slot.fill(Err(err.clone()));
    }
    m.queue_depth.set(0);
    q.state = QueueState::Stopped;
}

impl Shared {
    fn telemetry(&self) -> Telemetry {
        lock(&self.telemetry).clone()
    }

    /// Copy the writer's session and journal counters into the registry.
    /// Called with the writer lock held, so `stats` reads them without it.
    fn mirror(&self, writer: &Writer) {
        self.metrics.mirror(writer.session.stats());
        if let Some(journal) = &writer.journal {
            self.metrics.mirror(&journal.stats());
        }
    }

    /// One write cycle: apply the whole batch to the writer session
    /// (each run of adjacent same-kind deltas merged into one), solve
    /// once, and publish the new version. Returns each submission's
    /// outcome, in batch order; the caller fills the slots.
    fn run_cycle(&self, batch: &[Queued], telemetry: &Telemetry) -> Vec<Result<u64, Error>> {
        let cycle_started = Instant::now();
        let (m, width) = (&self.metrics, batch.len() as u64);
        m.write_cycles.add(1);
        m.last_cycle_width.set(width as i64);
        m.max_cycle_width.max(width as i64);
        if width > 1 {
            m.coalesced.add(width);
        }
        let mut writer = lock(&self.writer);
        // Phase accounting starts fresh each cycle: anything the session
        // accumulated outside a cycle (recovery replay) must not be
        // attributed to this one.
        let _ = writer.session.take_phases();

        // Apply, in submission order, merging each run of adjacent
        // same-kind deltas into one (one envelope-delta round per run).
        // A failed *merged* run is retried delta by delta, so each
        // submitter gets its own verdict — one semantically invalid
        // delta (unsafe rule, budget trip) must not take down its
        // cycle-mates. Session updates are commit-on-success, so the
        // failed merged run left no partial state behind.
        // `outcomes[i]` is `Ok(())` iff delta `i` is in the session now.
        let mut outcomes: Vec<Result<(), Error>> = Vec::with_capacity(batch.len());
        for run in batch.chunk_by(|a, b| a.delta.kind == b.delta.kind) {
            let merged;
            let delta = match run {
                [one] => &one.delta,
                _ => {
                    merged = merge(run);
                    &merged
                }
            };
            match writer.session.apply(delta) {
                Ok(()) => outcomes.extend(run.iter().map(|_| Ok(()))),
                Err(e) if run.len() == 1 => outcomes.push(Err(e)),
                Err(_) => {
                    for pending in run {
                        outcomes.push(writer.session.apply(&pending.delta));
                    }
                }
            }
        }

        // Every delta in the session but not yet in a published version
        // is owed a changelog entry by the next version that solves.
        for (pending, outcome) in batch.iter().zip(&outcomes) {
            if outcome.is_ok() {
                writer
                    .unpublished
                    .push((pending.delta.kind, pending.delta.text.clone()));
            }
        }

        // A solve or journal failure fails every applied delta of the
        // cycle with that error; apply failures keep their own. With no
        // delta applied nothing publishes, and the verdict reaches no one.
        let verdict = if writer.unpublished.is_empty() {
            Ok(self.version.load(Ordering::Acquire))
        } else {
            self.commit(&mut writer, telemetry, cycle_started)
        };
        self.mirror(&writer);
        outcomes
            .into_iter()
            .map(|o| o.and_then(|()| verdict.clone()))
            .collect()
    }

    /// Solve the writer session, journal the unpublished deltas, and
    /// publish the next version. On a solve failure (no perfect model, a
    /// grounding error surfacing through recovery) nothing publishes:
    /// the applied deltas stay in `unpublished` and are attributed to
    /// the next version that does solve.
    fn commit(
        &self,
        writer: &mut Writer,
        telemetry: &Telemetry,
        cycle_started: Instant,
    ) -> Result<u64, Error> {
        let model = writer.session.solve()?;
        let phases = writer.session.take_phases();
        let version = self.version.load(Ordering::Acquire) + 1;
        let snapshot = ModelSnapshot {
            version,
            model: Arc::new(model),
        };
        // Write-ahead: every delta of this cycle becomes a journal
        // record stamped `version`, appended and (policy permitting)
        // synced BEFORE the version is published or any submitter acked
        // — so an acked write is never ahead of the log. A journal I/O
        // failure fails the cycle like a solve failure: no publish, the
        // cycle's records are rolled back off the WAL, the applied
        // deltas stay in `unpublished` (they are in the session), and
        // the next cycle that succeeds re-appends and attributes them.
        let (journal_append_ns, fsync_ns) = if writer.journal.is_some() {
            self.journal_cycle(writer, version)?
        } else {
            (0, 0)
        };
        let applied = std::mem::take(&mut writer.unpublished);
        let width = applied.len() as u64;
        let publish_started = Instant::now();
        self.publish(&snapshot, applied);
        let publish_ns = publish_started.elapsed().as_nanos() as u64;
        self.maybe_checkpoint(writer, version);
        telemetry.record_cycle(
            &self.metrics,
            &PhaseBreakdown {
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
            },
        );
        Ok(version)
    }

    /// Swing the head to `snapshot` and record it in the cache and
    /// changelog. Called with the writer lock held — publishing is the
    /// last step of a cycle, so readers can never pin a version whose
    /// solve has not finished.
    fn publish(&self, snapshot: &ModelSnapshot, applied: Vec<(DeltaKind, String)>) {
        {
            let mut head = self.head.write().unwrap_or_else(PoisonError::into_inner);
            *head = snapshot.clone();
        }
        self.version.store(snapshot.version, Ordering::Release);
        self.metrics.version.set(snapshot.version as i64);
        if self.options.cache_capacity > 0 {
            let mut cache = lock(&self.cache);
            cache.push_back(snapshot.clone());
            while cache.len() > self.options.cache_capacity {
                cache.pop_front();
            }
        }
        let mut log = lock(&self.changelog);
        for (kind, text) in applied {
            log.push_back(AppliedDelta {
                version: snapshot.version,
                kind,
                text,
            });
        }
        while log.len() > self.options.changelog_capacity {
            if let Some(evicted) = log.pop_front() {
                // Monotone: entries leave oldest-first, so the horizon
                // only advances. Reads anchored below it get
                // `Error::VersionEvicted` instead of a gapped replay.
                self.log_horizon
                    .fetch_max(evicted.version, Ordering::AcqRel);
                self.metrics.changelog_evicted.add(1);
            }
        }
    }

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
            session,
            journal,
            unpublished,
        } = writer;
        let journal = journal.as_mut().ok_or_else(|| {
            Error::Journal(
                "service has no journal (start it with with_journal/recover, or the \
                 CLI --journal flag)"
                    .into(),
            )
        })?;
        // The session text is only the published history while no delta
        // waits for a version (after a failed solve, or a cycle that
        // panicked after its append). A checkpoint taken then would
        // label those deltas with an older version, and recovery would
        // replay their journal records on top of them.
        if !unpublished.is_empty() {
            return Err(Error::Journal(
                "the writer holds deltas no published version carries yet; \
                 checkpoint after the next successful write"
                    .into(),
            ));
        }
        let text = session.source_text().ok_or_else(|| {
            Error::Journal("session keeps no source text; cannot checkpoint".into())
        })?;
        journal.checkpoint(version, &text, crash)
    }

    /// Consume the seam if it is armed at `point`.
    fn take_crash(&self, point: CrashPoint) -> bool {
        let mut seam = lock(&self.crash_seam);
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
}

/// One delta carrying every statement of a same-kind `run`, each
/// imported into one symbol store. It carries no text: the journal and
/// the changelog record each member's own.
fn merge(run: &[Queued]) -> Delta {
    let mut program = Program::new();
    for pending in run {
        let from = &pending.delta.program;
        for rule in &from.rules {
            let rule = import_rule(&mut program.symbols, rule, &from.symbols);
            program.rules.push(rule);
        }
    }
    Delta {
        kind: run[0].delta.kind,
        text: String::new(),
        program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    const WIN_MOVE: &str =
        "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";

    fn service_with_queue(queue_depth: usize) -> Service {
        Service::with_options(
            Engine::default().load(WIN_MOVE).unwrap(),
            ServiceOptions {
                queue_depth,
                ..ServiceOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn abandoned_pending_fails_its_slot_instead_of_blocking() {
        // The terminal-result backstop: a queued submission dropped
        // unfilled completes its submitter with `WriterAborted` rather
        // than leaving it on the condvar forever.
        let slot = Arc::new(Slot::default());
        let pending = Queued {
            delta: Delta::parse(DeltaKind::AssertFacts, "a.").unwrap(),
            slot: Arc::clone(&slot),
            deadline: None,
            enqueued: Instant::now(),
        };
        drop(pending);
        assert!(matches!(slot.wait(), Err(Error::WriterAborted)));
    }

    #[test]
    fn submit_wait_and_poll() {
        let service = service_with_queue(8);
        let handle = service
            .submit(DeltaKind::AssertFacts, "move(c, d).")
            .unwrap();
        assert_eq!(handle.wait().unwrap(), 1);
        // A resolved handle polls instantly, repeatedly.
        assert_eq!(handle.try_result(), Some(Ok(1)));
        assert_eq!(handle.wait_timeout(Duration::from_millis(1)), Some(Ok(1)));
        assert_eq!(service.snapshot().truth("wins", &["c"]), Truth::True);
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn full_queue_rejects_immediately_never_hangs() {
        let service = service_with_queue(2);
        service.hold_writer(true);
        let h1 = service.submit(DeltaKind::AssertFacts, "p(a).").unwrap();
        let h2 = service.submit(DeltaKind::AssertFacts, "p(b).").unwrap();
        let before = Instant::now();
        let err = service.submit(DeltaKind::AssertFacts, "p(c).").unwrap_err();
        assert!(matches!(err, Error::Overloaded), "{err:?}");
        assert!(
            before.elapsed() < Duration::from_secs(1),
            "admission control must answer immediately"
        );
        assert_eq!(service.metrics().overloaded.get(), 1);
        assert_eq!(service.metrics().queue_depth_hwm.get(), 2);
        // Still pending while held...
        assert!(h1.try_result().is_none());
        service.hold_writer(false);
        // ...then both complete (one coalesced cycle).
        assert!(h1.wait().is_ok());
        assert!(h2.wait().is_ok());
        assert_eq!(service.metrics().last_cycle_width.get(), 2);
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn queued_deadline_expires_without_applying() {
        let service = service_with_queue(8);
        service.hold_writer(true);
        let h = service
            .submit_with_deadline(
                DeltaKind::AssertFacts,
                "p(a).",
                Some(Duration::from_millis(20)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(60));
        service.hold_writer(false);
        assert!(matches!(h.wait(), Err(Error::SubmitTimeout)));
        assert_eq!(service.metrics().timed_out.get(), 1);
        assert_eq!(service.version(), 0, "expired delta never applied");
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn drain_shutdown_completes_queued_work() {
        let service = service_with_queue(8);
        service.hold_writer(true);
        let handles: Vec<SubmitHandle> = (0..3)
            .map(|i| {
                service
                    .submit(DeltaKind::AssertFacts, &format!("p(x{i})."))
                    .unwrap()
            })
            .collect();
        // Drain releases the hold, runs everything, then stops.
        service.shutdown(Shutdown::Drain);
        for h in &handles {
            assert!(h.wait().is_ok(), "drained submissions publish");
        }
        assert!(service.version() >= 1);
        let err = service.submit(DeltaKind::AssertFacts, "p(y).").unwrap_err();
        assert!(matches!(err, Error::ServiceStopped));
    }

    #[test]
    fn abort_shutdown_fails_queued_work_terminally() {
        let service = service_with_queue(8);
        service.hold_writer(true);
        let h1 = service.submit(DeltaKind::AssertFacts, "p(a).").unwrap();
        let h2 = service.submit(DeltaKind::AssertFacts, "p(b).").unwrap();
        service.shutdown(Shutdown::Abort);
        assert!(matches!(h1.wait(), Err(Error::ServiceStopped)));
        assert!(matches!(h2.wait(), Err(Error::ServiceStopped)));
        assert_eq!(service.version(), 0, "aborted deltas never applied");
        assert_eq!(service.metrics().aborted.get(), 2);
        // Shutdown is idempotent.
        service.shutdown(Shutdown::Abort);
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn checkpoint_refuses_while_deltas_are_unpublished() {
        let dir = std::env::temp_dir().join(format!("afp-ckpt-unpub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::builder()
            .semantics(crate::Semantics::Perfect)
            .build();
        let service = Service::with_journal(
            engine.load("x.").unwrap(),
            ServiceOptions::default(),
            &dir,
            JournalOptions::default(),
        )
        .unwrap();
        // The odd loop applies but has no perfect model: nothing
        // publishes, and the delta waits in the writer.
        assert!(service.assert_rules("a :- not b. b :- not a.").is_err());
        assert!(matches!(service.checkpoint(), Err(Error::Journal(_))));
        assert_eq!(service.retract_rules("b :- not a."), Ok(1));
        assert_eq!(service.checkpoint(), Ok(1));
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
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
        let m = service.metrics();
        assert_eq!(m.cache_hits.get(), 1);
        assert_eq!(m.cache_misses.get(), 1);
    }

    #[test]
    fn bounded_retention_reports_eviction_not_gapped_history() {
        let options = ServiceOptions {
            cache_capacity: 2,
            changelog_capacity: 3,
            ..ServiceOptions::default()
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
        assert_eq!(service.metrics().changelog_evicted.get(), 2);
        // Memory stays bounded: a long write burst cannot grow the log.
        for i in 0..20 {
            service.assert_facts(&format!("more(m{i}).")).unwrap();
        }
        assert_eq!(service.changelog_since(service.version()).unwrap().len(), 0);
        assert_eq!(service.metrics().changelog_evicted.get(), 22);
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
        assert_eq!(service.metrics().rejected.get(), 3);
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
