//! The dedicated writer thread: async submission, bounded admission,
//! deadlines, and deterministic shutdown for a [`Service`].
//!
//! The in-process [`Service`] write path is caller-driven: the first
//! submitter to find no cycle in flight is elected leader and solves on
//! its own thread on behalf of everyone queued behind it. That is the
//! right shape for an embedded library (no extra threads unless
//! contended) and the wrong shape for a server: a network connection
//! thread must not be conscripted into running arbitrary-length solve
//! cycles, and nothing bounds how much work can pile up behind a slow
//! cycle. [`AsyncService`] inverts the ownership — **one dedicated
//! writer thread** drains a **bounded** submission queue in batches —
//! without introducing an async runtime: the submission future is a
//! [`SubmitHandle`] over the same mutex/condvar slot the sync path
//! blocks on, so it can be waited, polled, or waited-with-timeout from
//! any thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::NetStats;
use crate::service::{validate, Pending, Slot};
use crate::{DeltaKind, Error, Service};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for an [`AsyncService`].
#[derive(Debug, Clone, Copy)]
pub struct AsyncOptions {
    /// Bounded write-queue depth. A submission arriving at a full queue
    /// is rejected with [`Error::Overloaded`] immediately — admission
    /// control never blocks the submitter.
    pub queue_depth: usize,
    /// Default per-submission deadline, measured from enqueue. A queued
    /// submission whose deadline passes before the writer picks it up
    /// fails with [`Error::SubmitTimeout`] without being applied.
    /// `None` = no deadline. Override per call with
    /// [`AsyncService::submit_with_deadline`].
    pub submit_deadline: Option<Duration>,
}

impl Default for AsyncOptions {
    fn default() -> Self {
        AsyncOptions {
            queue_depth: 64,
            submit_deadline: None,
        }
    }
}

/// How [`AsyncService::shutdown`] disposes of queued submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Run every queued cycle to completion before stopping; queued
    /// submitters get their real results.
    Drain,
    /// Stop after the in-flight cycle (if any); everything still queued
    /// fails with [`Error::ServiceStopped`].
    Abort,
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

enum QueueState {
    Running,
    Draining,
    Aborting,
    Stopped,
}

struct Queued {
    pending: Pending,
    deadline: Option<Instant>,
    enqueued: Instant,
}

struct SubmitQueue {
    items: VecDeque<Queued>,
    state: QueueState,
    /// Test seam: while `true` the writer thread leaves the queue
    /// untouched, so admission control can be exercised
    /// deterministically (fill the queue → observe `Overloaded`).
    held: bool,
}

/// Sliding window of recent submit→completion latencies (microseconds).
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

const LATENCY_WINDOW: usize = 4096;

impl LatencyRing {
    fn new() -> Self {
        LatencyRing {
            samples: Vec::with_capacity(LATENCY_WINDOW),
            next: 0,
        }
    }

    fn record(&mut self, us: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(us);
        } else {
            self.samples[self.next] = us;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }

    /// (p50, p99) over the window; (0, 0) before the first completion.
    fn percentiles(&self) -> (u64, u64) {
        if self.samples.is_empty() {
            return (0, 0);
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let at = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
        (at(0.50), at(0.99))
    }
}

struct AsyncShared {
    queue: Mutex<SubmitQueue>,
    /// Signaled when the queue becomes non-empty or the state/hold
    /// changes; the writer thread waits on it.
    work: Condvar,
    options: AsyncOptions,
    latencies: Mutex<LatencyRing>,
    submitted: AtomicU64,
    completed: AtomicU64,
    overloaded: AtomicU64,
    timed_out: AtomicU64,
    aborted: AtomicU64,
    queue_depth_hwm: AtomicU64,
    last_cycle_width: AtomicU64,
    max_cycle_width: AtomicU64,
}

/// A [`Service`] write path driven by one dedicated writer thread, with
/// bounded admission, per-submission deadlines, and deterministic
/// shutdown. Reads go straight to the wrapped [`Service`] (snapshots
/// are lock-free; this tier adds nothing to the read path). See the
/// [module docs](crate::net) for the full model.
pub struct AsyncService {
    service: Service,
    shared: Arc<AsyncShared>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl AsyncService {
    /// Spawn the writer thread over `service`'s write path. The
    /// `Service` handle is shared: in-process writers may keep calling
    /// the blocking API concurrently — cycles serialize on the writer
    /// session lock whichever tier drives them.
    pub fn new(service: Service, options: AsyncOptions) -> AsyncService {
        let shared = Arc::new(AsyncShared {
            queue: Mutex::new(SubmitQueue {
                items: VecDeque::new(),
                state: QueueState::Running,
                held: false,
            }),
            work: Condvar::new(),
            options,
            latencies: Mutex::new(LatencyRing::new()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            last_cycle_width: AtomicU64::new(0),
            max_cycle_width: AtomicU64::new(0),
        });
        let writer = {
            let service = service.clone();
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("afp-net-writer".into())
                .spawn(move || writer_loop(&service, &shared))
                .expect("spawn writer thread")
        };
        AsyncService {
            service,
            shared,
            writer: Mutex::new(Some(writer)),
        }
    }

    /// The wrapped service — the read path (snapshots, versions,
    /// changelog, stats) is unchanged by this tier.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Enqueue one delta for the writer thread, with the default
    /// deadline from [`AsyncOptions`]. Returns immediately:
    /// `Ok(handle)` once admitted, or the admission verdict —
    /// [`Error::Overloaded`] on a full queue (never blocks),
    /// [`Error::ServiceStopped`] after shutdown, or a validation error
    /// for textually malformed deltas (failing fast on the submitting
    /// thread, exactly like the sync path).
    pub fn submit(&self, kind: DeltaKind, text: &str) -> Result<SubmitHandle, Error> {
        self.submit_with_deadline(kind, text, self.shared.options.submit_deadline)
    }

    /// [`submit`](AsyncService::submit) with an explicit per-submission
    /// deadline (measured from enqueue; `None` = wait indefinitely).
    pub fn submit_with_deadline(
        &self,
        kind: DeltaKind,
        text: &str,
        deadline: Option<Duration>,
    ) -> Result<SubmitHandle, Error> {
        self.service.note_submission();
        if let Err(e) = validate(kind, text) {
            self.service.note_rejection();
            return Err(e);
        }
        let slot = Arc::new(Slot::default());
        {
            let mut q = lock(&self.shared.queue);
            if !matches!(q.state, QueueState::Running) {
                self.service.note_rejection();
                return Err(Error::ServiceStopped);
            }
            if q.items.len() >= self.shared.options.queue_depth {
                self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                self.service.note_rejection();
                return Err(Error::Overloaded);
            }
            let now = Instant::now();
            q.items.push_back(Queued {
                pending: Pending::new(kind, text.to_string(), Arc::clone(&slot)),
                deadline: deadline.map(|d| now + d),
                enqueued: now,
            });
            self.shared.submitted.fetch_add(1, Ordering::Relaxed);
            self.shared
                .queue_depth_hwm
                .fetch_max(q.items.len() as u64, Ordering::Relaxed);
        }
        self.shared.work.notify_all();
        Ok(SubmitHandle { slot })
    }

    /// Stop the writer thread deterministically and join it. Idempotent.
    /// [`Shutdown::Drain`] completes every queued cycle first;
    /// [`Shutdown::Abort`] fails everything still queued with
    /// [`Error::ServiceStopped`]. Either way every outstanding
    /// [`SubmitHandle`] resolves. Subsequent submissions return
    /// [`Error::ServiceStopped`].
    pub fn shutdown(&self, mode: Shutdown) {
        {
            let mut q = lock(&self.shared.queue);
            match q.state {
                QueueState::Stopped => {}
                _ => {
                    q.state = match mode {
                        Shutdown::Drain => QueueState::Draining,
                        Shutdown::Abort => QueueState::Aborting,
                    };
                }
            }
            q.held = false;
        }
        self.shared.work.notify_all();
        if let Some(handle) = lock(&self.writer).take() {
            let _ = handle.join();
        }
    }

    /// Queue-and-latency counters for this tier (connection fields stay
    /// zero; [`super::NetServer::stats`] fills them).
    pub fn stats(&self) -> NetStats {
        let s = &self.shared;
        let (write_p50_us, write_p99_us) = lock(&s.latencies).percentiles();
        NetStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            overloaded: s.overloaded.load(Ordering::Relaxed),
            timed_out: s.timed_out.load(Ordering::Relaxed),
            aborted: s.aborted.load(Ordering::Relaxed),
            queue_depth: lock(&s.queue).items.len() as u64,
            queue_depth_hwm: s.queue_depth_hwm.load(Ordering::Relaxed),
            last_cycle_width: s.last_cycle_width.load(Ordering::Relaxed),
            max_cycle_width: s.max_cycle_width.load(Ordering::Relaxed),
            write_p50_us,
            write_p99_us,
            ..NetStats::default()
        }
    }

    /// Whether the dedicated writer thread is alive and accepting work —
    /// the liveness half of the protocol's `ping` readiness probe.
    /// `false` once the tier is draining, aborting, or stopped (shutdown
    /// or a writer panic): queries still answer from published
    /// snapshots, but new submissions will be refused. When the backing
    /// [`Service`] journals with
    /// [`crate::JournalOptions::ack_durable`], a live writer also means
    /// every handle it has resolved was acked **after** its journal
    /// record synced (the service fills submission slots only after the
    /// cycle's sync step).
    pub fn writer_live(&self) -> bool {
        matches!(lock(&self.shared.queue).state, QueueState::Running)
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
}

impl Drop for AsyncService {
    /// Graceful by default: drain what was accepted, then stop. (Abort
    /// explicitly first if teardown latency matters more than queued
    /// work.)
    fn drop(&mut self) {
        self.shutdown(Shutdown::Drain);
    }
}

impl std::fmt::Debug for AsyncService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncService")
            .field("service", &self.service)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The writer thread: wait for work, drain the whole queue as one
/// batch (maximal coalescing), expire dead submissions, run the cycle,
/// record latencies. A panicking cycle stops the tier — queued waiters
/// are failed, never stranded.
fn writer_loop(service: &Service, shared: &Arc<AsyncShared>) {
    loop {
        let batch: Vec<Queued> = {
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
                            return;
                        }
                        break;
                    }
                    QueueState::Aborting => {
                        for item in q.items.drain(..) {
                            shared.aborted.fetch_add(1, Ordering::Relaxed);
                            service.note_rejection();
                            item.pending.slot.fill(Err(Error::ServiceStopped));
                        }
                        q.state = QueueState::Stopped;
                        return;
                    }
                    QueueState::Stopped => return,
                }
            }
            q.items.drain(..).collect()
        };

        // Expire submissions whose deadline passed while queued: they
        // cost nothing beyond the queue slot they held. Counters move
        // before the slot is filled, so a waiter released by the fill
        // already sees its outcome in the stats.
        let now = Instant::now();
        let mut live: Vec<Queued> = Vec::with_capacity(batch.len());
        for item in batch {
            match item.deadline {
                Some(d) if d <= now => {
                    shared.timed_out.fetch_add(1, Ordering::Relaxed);
                    service.note_rejection();
                    item.pending.slot.fill(Err(Error::SubmitTimeout));
                }
                _ => live.push(item),
            }
        }
        if live.is_empty() {
            continue;
        }

        shared
            .last_cycle_width
            .store(live.len() as u64, Ordering::Relaxed);
        shared
            .max_cycle_width
            .fetch_max(live.len() as u64, Ordering::Relaxed);

        // Queue-wait latency: enqueue → writer pickup, per submission,
        // into the telemetry histogram (distinct from the net tier's
        // submit→completion window, which includes the cycle itself).
        let telemetry = service.telemetry();
        let picked_up = Instant::now();
        for item in &live {
            telemetry.record_queue_wait(picked_up.duration_since(item.enqueued).as_nanos() as u64);
        }

        let enqueued: Vec<Instant> = live.iter().map(|i| i.enqueued).collect();
        let slots: Vec<Arc<Slot>> = live.iter().map(|i| Arc::clone(&i.pending.slot)).collect();
        let pendings: Vec<Pending> = live.into_iter().map(|i| i.pending).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| service.run_cycle(pendings)));

        let finished = Instant::now();
        {
            let mut ring = lock(&shared.latencies);
            for t in enqueued {
                ring.record(finished.duration_since(t).as_micros() as u64);
            }
        }
        shared
            .completed
            .fetch_add(slots.len() as u64, Ordering::Relaxed);
        for slot in &slots {
            // Every slot is filled by now (run_cycle fills them; an
            // unwinding cycle fills the rest via Pending::drop).
            if matches!(slot.try_get(), Some(Err(_))) {
                service.note_rejection();
            }
        }

        if outcome.is_err() {
            // The cycle panicked. Its own batch already resolved via the
            // panic-safe Pending::drop path (`WriterAborted`); fail
            // whatever queued behind it and stop the tier — a writer
            // that has unwound mid-delta must not keep applying.
            let mut q = lock(&shared.queue);
            for item in q.items.drain(..) {
                shared.aborted.fetch_add(1, Ordering::Relaxed);
                service.note_rejection();
                item.pending.slot.fill(Err(Error::WriterAborted));
            }
            q.state = QueueState::Stopped;
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    const WIN_MOVE: &str =
        "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";

    fn tier(queue_depth: usize) -> (Service, AsyncService) {
        let service = Engine::default().serve(WIN_MOVE).unwrap();
        let tier = AsyncService::new(
            service.clone(),
            AsyncOptions {
                queue_depth,
                submit_deadline: None,
            },
        );
        (service, tier)
    }

    #[test]
    fn submit_wait_and_poll() {
        let (service, tier) = tier(8);
        let handle = tier.submit(DeltaKind::AssertFacts, "move(c, d).").unwrap();
        assert_eq!(handle.wait().unwrap(), 1);
        // A resolved handle polls instantly, repeatedly.
        assert_eq!(handle.try_result(), Some(Ok(1)));
        assert_eq!(handle.wait_timeout(Duration::from_millis(1)), Some(Ok(1)));
        assert_eq!(service.snapshot().truth("wins", &["c"]), crate::Truth::True);
        tier.shutdown(Shutdown::Drain);
    }

    #[test]
    fn full_queue_rejects_immediately_never_hangs() {
        let (_service, tier) = tier(2);
        tier.hold_writer(true);
        let h1 = tier.submit(DeltaKind::AssertFacts, "p(a).").unwrap();
        let h2 = tier.submit(DeltaKind::AssertFacts, "p(b).").unwrap();
        let before = Instant::now();
        let err = tier.submit(DeltaKind::AssertFacts, "p(c).").unwrap_err();
        assert!(matches!(err, Error::Overloaded), "{err:?}");
        assert!(
            before.elapsed() < Duration::from_secs(1),
            "admission control must answer immediately"
        );
        assert_eq!(tier.stats().overloaded, 1);
        assert_eq!(tier.stats().queue_depth_hwm, 2);
        // Still pending while held...
        assert!(h1.try_result().is_none());
        tier.hold_writer(false);
        // ...then both complete (one coalesced cycle).
        assert!(h1.wait().is_ok());
        assert!(h2.wait().is_ok());
        assert_eq!(tier.stats().last_cycle_width, 2);
        tier.shutdown(Shutdown::Drain);
    }

    #[test]
    fn queued_deadline_expires_without_applying() {
        let (service, tier) = tier(8);
        tier.hold_writer(true);
        let h = tier
            .submit_with_deadline(
                DeltaKind::AssertFacts,
                "p(a).",
                Some(Duration::from_millis(20)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(60));
        tier.hold_writer(false);
        assert!(matches!(h.wait(), Err(Error::SubmitTimeout)));
        assert_eq!(tier.stats().timed_out, 1);
        assert_eq!(service.version(), 0, "expired delta never applied");
        tier.shutdown(Shutdown::Drain);
    }

    #[test]
    fn drain_shutdown_completes_queued_work() {
        let (service, tier) = tier(8);
        tier.hold_writer(true);
        let handles: Vec<SubmitHandle> = (0..3)
            .map(|i| {
                tier.submit(DeltaKind::AssertFacts, &format!("p(x{i})."))
                    .unwrap()
            })
            .collect();
        // Drain releases the hold, runs everything, then stops.
        tier.shutdown(Shutdown::Drain);
        for h in &handles {
            assert!(h.wait().is_ok(), "drained submissions publish");
        }
        assert!(service.version() >= 1);
        let err = tier.submit(DeltaKind::AssertFacts, "p(y).").unwrap_err();
        assert!(matches!(err, Error::ServiceStopped));
    }

    #[test]
    fn abort_shutdown_fails_queued_work_terminally() {
        let (service, tier) = tier(8);
        tier.hold_writer(true);
        let h1 = tier.submit(DeltaKind::AssertFacts, "p(a).").unwrap();
        let h2 = tier.submit(DeltaKind::AssertFacts, "p(b).").unwrap();
        tier.shutdown(Shutdown::Abort);
        assert!(matches!(h1.wait(), Err(Error::ServiceStopped)));
        assert!(matches!(h2.wait(), Err(Error::ServiceStopped)));
        assert_eq!(service.version(), 0, "aborted deltas never applied");
        assert_eq!(tier.stats().aborted, 2);
        // Shutdown is idempotent.
        tier.shutdown(Shutdown::Abort);
        tier.shutdown(Shutdown::Drain);
    }
}
