//! Task-DAG schedulers for component-wise evaluation.
//!
//! The condensation decomposes a well-founded solve into one task per
//! strongly connected component, with an edge `B → A` whenever a rule of
//! `A` reads an atom of `B`: independent components are embarrassingly
//! parallel, and [`afp_datalog::depgraph::TaskGraph`] is exactly that DAG
//! restricted to the components a solve actually evaluates. A
//! [`Scheduler`] executes such a graph, calling a task closure once per
//! component and never before every predecessor has returned.
//!
//! Two production schedulers:
//!
//! * [`Sequential`] — tasks in ascending component-id order on the
//!   calling thread. This is exactly the order the pre-refactor solver
//!   used, and the default (a 1-core runner gains nothing from the pool
//!   and skips its synchronization entirely).
//! * [`Wavefront`] — an indegree-driven ready queue over a **persistent**
//!   pool of `std::thread` workers (spawned once, parked between runs,
//!   shared by every solve of every session of the engine that built
//!   them) with per-worker deques and work stealing. The calling thread
//!   participates as worker 0, so a pool of `threads` workers spawns
//!   `threads - 1` OS threads.
//!
//! **Determinism does not depend on the schedule.** Each component's
//! verdicts are a pure function of the settled verdicts of strictly lower
//! components (the well-founded model of the component's subprogram
//! relative to its boundary is unique), tasks write disjoint output
//! slots, and the final model is committed by an ordered scan — so any
//! schedule that respects the dependency edges produces bit-identical
//! models. The [`Wavefront::chaos`] seam exploits exactly this to *test*
//! it: a seeded RNG permutes every ready-queue pop, forcing adversarial
//! completion orders that must still reproduce the sequential model.
//!
//! No external crates: the pool is hand-rolled on `std::sync` primitives
//! (the workspace is offline; rayon/crossbeam are not available), with
//! one narrow `unsafe` block to hand a borrowed run state to the
//! persistent workers — made sound by the dispatch protocol, which
//! retires the job pointer and waits for every participating worker to
//! leave before the state is dropped.
//!
//! **A panicking task fails its run; it never wedges the pool.** Each
//! worker runs its share of a job under `catch_unwind`: the first panic
//! is parked in the run state and aborts the run, every worker leaves
//! (so `active` always drops back to zero), and the dispatcher re-raises
//! the panic on the calling thread. The pool stays usable afterwards.

use afp_datalog::depgraph::TaskGraph;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

/// Counters from one [`Scheduler::run`], surfaced through
/// `SessionStats` and the `stats` wire frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedRun {
    /// Tasks executed.
    pub tasks: usize,
    /// Critical-path length of the scheduled DAG in dependency levels —
    /// the number of wavefronts an idealized schedule needs, identical
    /// for every scheduler and thread count.
    pub wavefronts: usize,
    /// Maximum number of simultaneously ready (released, not yet
    /// started) tasks observed — the parallelism the DAG actually
    /// offered this run.
    pub max_ready_width: usize,
    /// Tasks executed by a worker other than the one that released
    /// them. Always `0` on the sequential path.
    pub stolen_tasks: u64,
    /// True when the tasks ran on the multi-worker path (as opposed to
    /// the sequential scheduler or the pool's small-graph fallback).
    pub parallel: bool,
    /// Worker time spent evaluating components, summed over workers
    /// (wall minus steal minus sleep; the whole wall on the sequential
    /// path). Can exceed the run's wall clock on multi-worker runs.
    pub busy_ns: u64,
    /// Worker time spent scanning sibling deques for work. `0` on the
    /// sequential path, where the fast own-deque pop is never timed.
    pub steal_ns: u64,
    /// Worker time spent parked on the idle condvar waiting for tasks
    /// to become ready. `0` on the sequential path.
    pub sleep_ns: u64,
}

/// Executes a [`TaskGraph`]. Implementations must call `task(comp, w)`
/// exactly once per scheduled component `comp`, with `w < workers()`,
/// and never before every predecessor task has returned; `w` indexes
/// per-worker scratch and is held exclusively for the duration of the
/// call.
pub trait Scheduler: fmt::Debug + Send + Sync {
    /// Worker slots `run` may use (callers size scratch arrays by this).
    fn workers(&self) -> usize;

    /// Execute every task in `graph`.
    fn run(&self, graph: &TaskGraph, task: &(dyn Fn(u32, usize) + Sync)) -> SchedRun;
}

/// The sequential scheduler: tasks in ascending component-id order on
/// the calling thread — bit-identical to the pre-scheduler evaluation
/// loop, with zero synchronization. The engine's default.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Scheduler for Sequential {
    fn workers(&self) -> usize {
        1
    }

    fn run(&self, graph: &TaskGraph, task: &(dyn Fn(u32, usize) + Sync)) -> SchedRun {
        run_in_order(graph, task)
    }
}

/// Run tasks in ascending index order (a valid topological order — see
/// [`TaskGraph`]), simulating the ready set to report the width the DAG
/// offered. Shared by [`Sequential`] and the pool's small-graph fallback.
fn run_in_order(graph: &TaskGraph, task: &(dyn Fn(u32, usize) + Sync)) -> SchedRun {
    let started = Instant::now();
    let t = graph.len();
    let mut indeg: Vec<u32> = (0..t).map(|ti| graph.indegree(ti)).collect();
    let mut ready = indeg.iter().filter(|&&d| d == 0).count();
    let mut max_ready = ready;
    for ti in 0..t {
        debug_assert_eq!(indeg[ti], 0, "index order is topological");
        ready -= 1;
        task(graph.component(ti), 0);
        for &d in graph.dependents(ti) {
            indeg[d as usize] -= 1;
            if indeg[d as usize] == 0 {
                ready += 1;
            }
        }
        max_ready = max_ready.max(ready);
    }
    SchedRun {
        tasks: t,
        wavefronts: graph.depth(),
        max_ready_width: max_ready,
        stolen_tasks: 0,
        parallel: false,
        busy_ns: started.elapsed().as_nanos() as u64,
        steal_ns: 0,
        sleep_ns: 0,
    }
}

/// Tuning knobs for a [`Wavefront`] pool.
#[derive(Debug, Clone, Copy)]
pub struct WavefrontOptions {
    /// Graphs with fewer tasks than this run inline on the calling
    /// thread ([`run_in_order`]): waking the pool costs more than a
    /// handful of singleton components. Set to `0` to force the
    /// multi-worker path (the differential tests do).
    pub min_par_tasks: usize,
    /// Adversarial-order fault injection: when set, every ready-queue
    /// pop picks a seeded-random element instead of the newest, and
    /// released tasks are never kept in hand — completion orders are
    /// deliberately scrambled while still respecting dependency edges.
    /// Results must be (and are, see the `par_solve` suite)
    /// bit-identical anyway.
    pub chaos: Option<u64>,
}

impl Default for WavefrontOptions {
    fn default() -> Self {
        WavefrontOptions {
            min_par_tasks: 32,
            chaos: None,
        }
    }
}

/// The parallel scheduler: an indegree-driven ready queue over a
/// persistent worker pool with per-worker deques and work stealing.
/// Construction spawns `threads - 1` parked OS threads; [`Drop`] shuts
/// them down. Clone the containing `Arc` to share one pool across
/// engines and sessions.
pub struct Wavefront {
    threads: usize,
    options: WavefrontOptions,
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl fmt::Debug for Wavefront {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wavefront")
            .field("threads", &self.threads)
            .field("min_par_tasks", &self.options.min_par_tasks)
            .field("chaos", &self.options.chaos)
            .finish()
    }
}

impl Wavefront {
    /// A pool of `threads` workers (min 1) with default options.
    pub fn new(threads: usize) -> Wavefront {
        Wavefront::with_options(threads, WavefrontOptions::default())
    }

    /// A pool of `threads` workers (min 1) with explicit options.
    pub fn with_options(threads: usize, options: WavefrontOptions) -> Wavefront {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            ctl: Mutex::new(PoolCtl {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|ix| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("afp-wavefront-{ix}"))
                    .spawn(move || worker_main(&shared, ix))
                    .expect("spawn wavefront worker")
            })
            .collect();
        Wavefront {
            threads,
            options,
            shared,
            handles,
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for Wavefront {
    fn drop(&mut self) {
        {
            let mut ctl = self.shared.ctl.lock().unwrap();
            ctl.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Scheduler for Wavefront {
    fn workers(&self) -> usize {
        self.threads
    }

    fn run(&self, graph: &TaskGraph, task: &(dyn Fn(u32, usize) + Sync)) -> SchedRun {
        let t = graph.len();
        if t == 0 {
            return SchedRun::default();
        }
        // Small graphs and pure chains gain nothing from the pool; run
        // them inline rather than paying the wakeup latency.
        if self.threads == 1 || (t < self.options.min_par_tasks && self.options.chaos.is_none()) {
            return run_in_order(graph, task);
        }

        let state = RunState {
            graph,
            task,
            chaos: self.options.chaos,
            indeg: (0..t)
                .map(|ti| AtomicU32::new(graph.indegree(ti)))
                .collect(),
            queues: (0..self.threads)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            remaining: AtomicUsize::new(t),
            ready_now: AtomicUsize::new(0),
            max_ready: AtomicUsize::new(0),
            stolen: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            steal_ns: AtomicU64::new(0),
            sleep_ns: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        // Seed worker 0's deque with every source task.
        {
            let mut q0 = state.queues[0].lock().unwrap();
            for ti in 0..t {
                if graph.indegree(ti) == 0 {
                    q0.push_back(ti as u32);
                }
            }
            let seeds = q0.len();
            state.queued.store(seeds, SeqCst);
            state.ready_now.store(seeds, SeqCst);
            state.max_ready.store(seeds, SeqCst);
        }

        // Hand the borrowed run state to the persistent workers. Sound
        // because: (a) workers obtain the pointer only through `ctl.job`,
        // which is retired below before this frame returns; (b) every
        // worker that copied it registered in `ctl.active` under the same
        // lock, and we block until `active == 0` — so no worker can
        // observe `state` after it is dropped.
        let job = Job {
            run: run_worker_erased,
            data: &state as *const RunState as *const (),
        };
        {
            let mut ctl = self.shared.ctl.lock().unwrap();
            ctl.job = Some(job);
            ctl.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        run_worker_guarded(&state, 0);
        {
            let mut ctl = self.shared.ctl.lock().unwrap();
            ctl.job = None;
            while ctl.active != 0 {
                ctl = self.shared.done_cv.wait(ctl).unwrap();
            }
        }
        // Every worker has left: re-raise a task's panic here, on the
        // thread that asked for the run.
        if let Some(payload) = lock(&state.panic).take() {
            panic::resume_unwind(payload);
        }

        SchedRun {
            tasks: t,
            wavefronts: graph.depth(),
            max_ready_width: state.max_ready.load(SeqCst),
            stolen_tasks: state.stolen.load(SeqCst),
            parallel: true,
            busy_ns: state.busy_ns.load(SeqCst),
            steal_ns: state.steal_ns.load(SeqCst),
            sleep_ns: state.sleep_ns.load(SeqCst),
        }
    }
}

/// One dispatched job: a type-erased entry point over a borrowed
/// [`RunState`]. The pointer is only dereferenced by workers registered
/// in `PoolCtl::active`, and the dispatcher waits for them all before
/// releasing the state.
#[derive(Clone, Copy)]
struct Job {
    run: unsafe fn(*const (), usize),
    data: *const (),
}

// The pointee is a `RunState`, which is `Sync` (atomics, mutexes, and
// `Sync` borrows only); the dispatch protocol bounds its lifetime.
unsafe impl Send for Job {}

struct PoolShared {
    ctl: Mutex<PoolCtl>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The dispatcher parks here until every worker left the job.
    done_cv: Condvar,
}

struct PoolCtl {
    epoch: u64,
    job: Option<Job>,
    /// Workers currently inside a job body.
    active: usize,
    shutdown: bool,
}

fn worker_main(shared: &PoolShared, ix: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut ctl = shared.ctl.lock().unwrap();
            loop {
                if ctl.shutdown {
                    return;
                }
                if ctl.epoch != seen {
                    seen = ctl.epoch;
                    if let Some(job) = ctl.job {
                        ctl.active += 1;
                        break job;
                    }
                    // The job was already retired; wait for the next one.
                }
                ctl = shared.work_cv.wait(ctl).unwrap();
            }
        };
        // SAFETY: `job.data` points at the dispatcher's `RunState`,
        // which outlives this call — the dispatcher cannot return until
        // `active` (incremented above, under the lock) drops to zero.
        // The job body catches its own panics (`run_worker_guarded`), so
        // control always gets back here to leave the job.
        unsafe { (job.run)(job.data, ix) };
        let mut ctl = shared.ctl.lock().unwrap();
        ctl.active -= 1;
        if ctl.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Everything one wavefront run shares between workers.
struct RunState<'a> {
    graph: &'a TaskGraph,
    task: &'a (dyn Fn(u32, usize) + Sync),
    chaos: Option<u64>,
    /// Remaining unsettled predecessors per task.
    indeg: Vec<AtomicU32>,
    /// Per-worker deques of ready task indices.
    queues: Vec<Mutex<VecDeque<u32>>>,
    /// Tasks currently sitting in deques (not in-hand, not running).
    queued: AtomicUsize,
    /// Tasks not yet finished; `0` terminates the run.
    remaining: AtomicUsize,
    /// Ready-but-unstarted tasks, for the width high-water mark.
    ready_now: AtomicUsize,
    max_ready: AtomicUsize,
    stolen: AtomicU64,
    /// Per-worker time accounting, summed over workers at worker exit:
    /// busy = wall − steal − sleep. Steal scans and park episodes are
    /// rare, so only they pay clock reads; the per-task fast path never
    /// does.
    busy_ns: AtomicU64,
    steal_ns: AtomicU64,
    sleep_ns: AtomicU64,
    /// Workers parked on `idle_cv`.
    sleepers: AtomicUsize,
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Set when a worker panicked: every worker stops taking tasks.
    aborted: AtomicBool,
    /// The first panic payload, re-raised by the dispatcher.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Lock a mutex even if a panicking worker poisoned it: the run is being
/// aborted, and the panic itself is reported through `RunState::panic`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

unsafe fn run_worker_erased(data: *const (), worker: usize) {
    // SAFETY: see the dispatch protocol in `Wavefront::run` — `data` is
    // a live `RunState` for the whole duration of this call.
    let state = unsafe { &*(data as *const RunState) };
    run_worker_guarded(state, worker);
}

/// [`run_worker`] under `catch_unwind`: a panic (a task's, or the
/// scheduler's own) is parked for the dispatcher, and the run is aborted
/// so no other worker waits for tasks that will never finish.
fn run_worker_guarded(state: &RunState, w: usize) {
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| run_worker(state, w))) {
        lock(&state.panic).get_or_insert(payload);
        state.aborted.store(true, SeqCst);
        let _guard = lock(&state.idle);
        state.idle_cv.notify_all();
    }
}

fn run_worker(state: &RunState, w: usize) {
    let wall = Instant::now();
    let mut steal_ns = 0u64;
    let mut sleep_ns = 0u64;
    let mut rng = state
        .chaos
        .map(|seed| seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut in_hand: Option<u32> = None;
    loop {
        let ti = match in_hand.take() {
            Some(ti) => Some(ti),
            None => pop_task(state, w, &mut rng, &mut steal_ns),
        };
        if state.aborted.load(SeqCst) {
            break;
        }
        let Some(ti) = ti else {
            if state.remaining.load(SeqCst) == 0 {
                break;
            }
            // Nothing ready anywhere, but tasks are still running on
            // other workers: park until a push, termination or abort.
            let parked = Instant::now();
            state.sleepers.fetch_add(1, SeqCst);
            {
                let mut guard = lock(&state.idle);
                while state.remaining.load(SeqCst) != 0
                    && state.queued.load(SeqCst) == 0
                    && !state.aborted.load(SeqCst)
                {
                    guard = state.idle_cv.wait(guard).unwrap();
                }
                drop(guard);
            }
            state.sleepers.fetch_sub(1, SeqCst);
            sleep_ns += parked.elapsed().as_nanos() as u64;
            continue;
        };

        state.ready_now.fetch_sub(1, SeqCst);
        (state.task)(state.graph.component(ti as usize), w);

        // Release dependents. The first released task is kept in hand
        // (the common chain case pays no queue traffic); the rest go to
        // this worker's deque, visible to thieves. Chaos mode queues
        // everything so the seeded pops scramble the order fully. A task
        // is counted in `ready_now` and `queued` *before* it is
        // published: a thief may pop it, and un-count it, the moment it
        // sits in a deque.
        let mut peak = 0usize;
        for &d in state.graph.dependents(ti as usize) {
            if state.indeg[d as usize].fetch_sub(1, SeqCst) == 1 {
                peak = peak.max(state.ready_now.fetch_add(1, SeqCst) + 1);
                if in_hand.is_none() && rng.is_none() {
                    in_hand = Some(d);
                } else {
                    state.queued.fetch_add(1, SeqCst);
                    lock(&state.queues[w]).push_back(d);
                    if state.sleepers.load(SeqCst) > 0 {
                        let _guard = lock(&state.idle);
                        state.idle_cv.notify_all();
                    }
                }
            }
        }
        if peak > 0 {
            state.max_ready.fetch_max(peak, SeqCst);
        }
        if state.remaining.fetch_sub(1, SeqCst) == 1 {
            // Last task: wake every parked worker so the run can end.
            let _guard = lock(&state.idle);
            state.idle_cv.notify_all();
        }
    }
    // Settle this worker's time split: everything that was neither a
    // steal scan nor a park is attributed to task evaluation.
    let wall_ns = wall.elapsed().as_nanos() as u64;
    state.steal_ns.fetch_add(steal_ns, SeqCst);
    state.sleep_ns.fetch_add(sleep_ns, SeqCst);
    state
        .busy_ns
        .fetch_add(wall_ns.saturating_sub(steal_ns + sleep_ns), SeqCst);
}

/// Pop a ready task: own deque first (newest — depth-first locality),
/// then steal the oldest from a sibling. Chaos mode picks seeded-random
/// elements instead. The own-deque fast path is untimed; a scan past it
/// charges its wall time to `steal_ns`.
fn pop_task(state: &RunState, w: usize, rng: &mut Option<u64>, steal_ns: &mut u64) -> Option<u32> {
    {
        let mut q = state.queues[w].lock().unwrap();
        let got = match rng {
            Some(seed) => {
                if q.is_empty() {
                    None
                } else {
                    let ix = (xorshift(seed) % q.len() as u64) as usize;
                    q.swap_remove_back(ix)
                }
            }
            None => q.pop_back(),
        };
        drop(q);
        if let Some(ti) = got {
            state.queued.fetch_sub(1, SeqCst);
            return Some(ti);
        }
    }
    let scan = Instant::now();
    let nq = state.queues.len();
    let mut found = None;
    for i in 1..nq {
        let victim = (w + i) % nq;
        let mut q = state.queues[victim].lock().unwrap();
        let got = match rng {
            Some(seed) => {
                if q.is_empty() {
                    None
                } else {
                    let ix = (xorshift(seed) % q.len() as u64) as usize;
                    q.swap_remove_back(ix)
                }
            }
            None => q.pop_front(),
        };
        drop(q);
        if let Some(ti) = got {
            state.queued.fetch_sub(1, SeqCst);
            state.stolen.fetch_add(1, SeqCst);
            found = Some(ti);
            break;
        }
    }
    *steal_ns += scan.elapsed().as_nanos() as u64;
    found
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_datalog::depgraph::Condensation;
    use afp_datalog::program::parse_ground;

    /// Every scheduler must run each task exactly once, never before its
    /// predecessors, whatever the interleaving.
    fn check_schedule(sched: &dyn Scheduler, src: &str) -> SchedRun {
        let g = parse_ground(src);
        let cond = Condensation::of(&g);
        let all: Vec<u32> = (0..cond.len() as u32).collect();
        let graph = cond.task_graph(&g, &all);
        let runs: Vec<AtomicU32> = (0..cond.len()).map(|_| AtomicU32::new(0)).collect();
        let done: Vec<AtomicU32> = (0..cond.len()).map(|_| AtomicU32::new(0)).collect();
        let run = sched.run(&graph, &|comp, _w| {
            runs[comp as usize].fetch_add(1, SeqCst);
            // Every settled component this one reads must already be done.
            for &rid in cond.rules(comp as usize) {
                let r = g.rule(rid);
                for &q in r.pos.iter().chain(r.neg.iter()) {
                    let pc = cond.component_of(q.0);
                    if pc != comp {
                        assert_eq!(done[pc as usize].load(SeqCst), 1, "pred settled first");
                    }
                }
            }
            done[comp as usize].store(1, SeqCst);
        });
        for r in &runs {
            assert_eq!(r.load(SeqCst), 1, "each task runs exactly once");
        }
        assert_eq!(run.tasks, cond.len());
        run
    }

    const CHAIN: &str = "a. b :- a. c :- b. d :- c, not e. e :- not d.";
    const WIDE: &str = "a. b1 :- a. b2 :- a. b3 :- a. b4 :- a.
                        c1 :- b1, not b2. c2 :- b3. z :- c1, c2, b4.";

    #[test]
    fn sequential_respects_dependencies() {
        let run = check_schedule(&Sequential, CHAIN);
        assert!(!run.parallel);
        assert_eq!(run.stolen_tasks, 0);
        assert!(run.wavefronts >= 4);
        let run = check_schedule(&Sequential, WIDE);
        assert!(run.max_ready_width >= 4, "the fan-out is visible");
    }

    #[test]
    fn wavefront_pool_respects_dependencies() {
        for threads in [1, 2, 4] {
            let sched = Wavefront::with_options(
                threads,
                WavefrontOptions {
                    min_par_tasks: 0,
                    chaos: None,
                },
            );
            let run = check_schedule(&sched, WIDE);
            assert_eq!(run.parallel, threads > 1);
            check_schedule(&sched, CHAIN);
        }
    }

    #[test]
    fn chaos_orders_respect_dependencies() {
        for seed in 0..8u64 {
            let sched = Wavefront::with_options(
                4,
                WavefrontOptions {
                    min_par_tasks: 0,
                    chaos: Some(seed),
                },
            );
            check_schedule(&sched, WIDE);
            check_schedule(&sched, CHAIN);
        }
    }

    #[test]
    fn small_graphs_fall_back_inline() {
        let sched = Wavefront::new(4); // default min_par_tasks
        let run = check_schedule(&sched, CHAIN);
        assert!(!run.parallel, "tiny graphs skip the pool");
    }

    #[test]
    fn pool_is_reusable_and_shuts_down() {
        let sched = Wavefront::with_options(
            3,
            WavefrontOptions {
                min_par_tasks: 0,
                chaos: None,
            },
        );
        for _ in 0..50 {
            check_schedule(&sched, WIDE);
        }
        drop(sched); // join must not hang
    }

    #[test]
    fn time_accounting_is_reported() {
        let run = check_schedule(&Sequential, WIDE);
        assert!(run.busy_ns > 0, "sequential busy covers the whole wall");
        assert_eq!(run.steal_ns, 0);
        assert_eq!(run.sleep_ns, 0);
        let sched = Wavefront::with_options(
            2,
            WavefrontOptions {
                min_par_tasks: 0,
                chaos: None,
            },
        );
        let run = check_schedule(&sched, WIDE);
        assert!(run.parallel);
        assert!(run.busy_ns > 0, "workers report evaluation time");
    }

    /// A panicking task fails its run with the task's own panic, on the
    /// calling thread, whichever worker ran it — and the pool keeps
    /// serving later runs.
    #[test]
    fn a_panicking_task_fails_the_run_without_wedging_the_pool() {
        let g = parse_ground(WIDE);
        let cond = Condensation::of(&g);
        let all: Vec<u32> = (0..cond.len() as u32).collect();
        let graph = cond.task_graph(&g, &all);
        for chaos in [None, Some(3)] {
            let sched = Wavefront::with_options(
                3,
                WavefrontOptions {
                    min_par_tasks: 0,
                    chaos,
                },
            );
            for victim in 0..cond.len() as u32 {
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    sched.run(&graph, &|comp, _w| {
                        if comp == victim {
                            panic!("task {comp} failed");
                        }
                    })
                }));
                let payload = result.expect_err("the task's panic reaches the caller");
                let msg = payload.downcast_ref::<String>().expect("panic message");
                assert_eq!(*msg, format!("task {victim} failed"));
                check_schedule(&sched, WIDE);
            }
        }
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = parse_ground("");
        let cond = Condensation::of(&g);
        let graph = cond.task_graph(&g, &[]);
        let run = Wavefront::new(2).run(&graph, &|_, _| panic!("no tasks"));
        assert_eq!(run, SchedRun::default());
    }
}
