//! The workspace's one worker pool: deterministic banded execution for
//! the hot kernels and the renderer.
//!
//! All parallel work (the KinectFusion kernels — bilateral filter, ICP
//! association, TSDF integration, raycast, marching cubes — the
//! synthetic scene renderer, and the evaluation engine's batches) runs
//! on one process-wide pool of long-lived worker threads instead of
//! spawning OS threads per frame. The submitting thread participates in
//! executing its own tasks, so a kernel never blocks idle while work
//! remains, and a pool worker that itself submits work (nested
//! parallelism) simply drains its inner task group in place — nesting
//! cannot deadlock. A submitter that is not itself inside a pool job
//! goes further once its own tasks are all claimed: it *helps*, running
//! jobs of other groups until its own finish (see [`run_tasks`]).
//!
//! This is a standalone package that depends only on `slam-trace` (by
//! path), so it sits at the bottom of the layer DAG: every crate above
//! it — scene generation included — may submit work, and its unit
//! tests, doctests and model-checked scenarios run with no registry.
//!
//! # Determinism
//!
//! Work is partitioned by [`band_ranges`], which derives the band layout
//! from the *data size only* — never from the thread count. Each band is
//! computed independently and the per-band results are reduced in band
//! order by the caller. Floating-point reductions therefore associate the
//! same way no matter how many threads ran, and every kernel output is
//! bit-identical across thread counts (including 1).
//!
//! Kernels submit through one of two calls: [`run_tasks`] returns its
//! results in submission order and [`run_bands`] in band order, and the
//! caller folds them in that order (`.into_iter().sum()` or
//! `.into_iter().fold(init, f)`). Both take a `&Tracer` and a band-span
//! name; with [`Tracer::off`] the tasks run unwrapped.
//!
//! # Helping and thread budgets
//!
//! Coarse-grained outer parallelism (e.g. the evaluation engine running
//! a batch of pipeline runs at once) submits one task group of coarse
//! jobs, and each job's kernels submit their own nested groups at full
//! width. While every thread is busy with a run of its own, each
//! thread drains its own kernel groups, and their queue copies are
//! withdrawn unclaimed. Once the top-level submitter has no run left to
//! claim, it waits on the batch by *helping*: it runs jobs of the nested
//! groups of the runs still going, so a batch's tail run gets the cores
//! its finished siblings freed (an idle worker does the same). A wait
//! *inside* a job never helps: it blocks, so a run's wall clock is never
//! charged for another run's work.
//!
//! Where a caller wants a hard cap instead (the `slam-serve` scheduler
//! divides the machine between concurrent quanta), [`with_thread_budget`]
//! caps the kernels underneath it. [`effective_threads`] resolves a
//! configuration's `threads` knob against the machine size and the
//! active budget, and is the single thread-count derivation used
//! everywhere.
//!
//! # Correctness tooling
//!
//! The pool protocol ([`TaskGroup`], [`PoolShared`]) is written against
//! the private `sync` facade, so the identical source compiles either
//! over `std::sync` (default) or over the in-tree model checker
//! (`model`, under `--cfg loom`). `tests/loom_exec.rs` uses the latter to explore
//! thread interleavings of claiming, completion counting, panic
//! forwarding, queue stragglers, helping, and shutdown systematically; the
//! lifetime-erasure safety argument in `erase_lifetime` leans on
//! exactly the invariants that harness checks.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

#[cfg(loom)]
pub mod model;
mod sync;

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use slam_trace::Tracer;
use sync::{AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};

/// A unit of work submitted to the pool: one boxed closure whose result
/// is collected in submission order.
pub type Task<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// Maximum number of bands [`band_ranges`] splits a dimension into.
///
/// Large enough that up to `MAX_BANDS` threads can be kept busy and the
/// longest band cannot dominate, small enough that per-band overhead
/// stays negligible.
pub const MAX_BANDS: usize = 64;

/// Splits `0..n` into at most [`MAX_BANDS`] contiguous, near-equal
/// ranges. The layout depends only on `n`, never on the thread count, so
/// per-band results always reduce in the same order regardless of how
/// many threads execute the bands.
///
/// # Examples
///
/// ```
/// use slam_exec::band_ranges;
/// let bands = band_ranges(10);
/// assert_eq!(bands.len(), 10); // n <= MAX_BANDS: one band per item
/// assert_eq!(bands[0], 0..1);
/// let big = band_ranges(1000);
/// assert_eq!(big.len(), 63);
/// assert_eq!(big.iter().map(|r| r.len()).sum::<usize>(), 1000);
/// ```
pub fn band_ranges(n: usize) -> Vec<Range<usize>> {
    let bands = n.min(MAX_BANDS);
    if bands == 0 {
        return Vec::new();
    }
    let per = n.div_ceil(bands);
    let mut out = Vec::with_capacity(bands);
    let mut start = 0usize;
    while start < n {
        let end = (start + per).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

thread_local! {
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
    /// How many pool jobs this thread is executing right now (nested
    /// submissions stack them). Zero on a top-level submitter.
    static JOB_DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Jobs this thread has run for other groups while waiting on its own.
    static HELPED: Cell<u64> = const { Cell::new(0) };
}

/// Runs `job` as a pool job on this thread: while it runs, a wait on a
/// task group blocks instead of helping (see [`PoolShared::run_tasks_on`]).
fn as_job<R>(job: impl FnOnce() -> R) -> R {
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            JOB_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    JOB_DEPTH.with(|d| d.set(d.get() + 1));
    let _leave = Leave;
    job()
}

/// Whether this thread is executing a pool job.
fn in_job() -> bool {
    JOB_DEPTH.with(|d| d.get() > 0)
}

/// How many jobs of *other* task groups the calling thread has run while
/// waiting for its own (the pool's helping, see [`run_tasks`]). A
/// per-thread running total: callers take the difference around the
/// work they measure.
pub fn helped_jobs() -> u64 {
    HELPED.with(|h| h.get())
}

/// Runs `f` with kernel parallelism on this thread capped at `limit`
/// (at least 1). Used by coarse-grained outer parallelism — e.g. a
/// configuration sweep evaluating many pipelines at once — so that
/// outer workers × inner kernel threads never multiply beyond the
/// machine. The previous budget is restored afterwards, even on panic.
pub fn with_thread_budget<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let prev = BUDGET.with(|b| b.replace(Some(limit.max(1))));
    let _restore = Restore(prev);
    f()
}

/// The kernel thread budget active on this thread, if any.
pub fn thread_budget() -> Option<usize> {
    BUDGET.with(|b| b.get())
}

/// Total concurrency the pool offers: its workers plus the submitting
/// thread (the machine's available parallelism).
pub fn available_threads() -> usize {
    pool().max_concurrency()
}

/// Resolves a `threads` knob into an actual thread count: `0` means
/// "all available", anything else is clamped to the machine size, and
/// the active [`with_thread_budget`] cap (if any) is applied on top.
/// Always at least 1. This is the single thread-count derivation the
/// kernels share.
pub fn effective_threads(requested: usize) -> usize {
    let avail = available_threads();
    let t = if requested == 0 {
        avail
    } else {
        requested.min(avail)
    };
    match thread_budget() {
        Some(b) => t.min(b).max(1),
        None => t.max(1),
    }
}

/// Runs `tasks` on the global pool with up to `threads` threads
/// (including the calling thread) and returns their results in
/// submission order. With `threads <= 1`, a single task, or no pool
/// workers, the tasks simply run serially on the caller.
///
/// With an enabled `tracer`, each task is wrapped in a `name`d
/// [`SpanLevel::Band`](slam_trace::SpanLevel::Band) span recorded on
/// whichever pool worker executes it, plus `pool.groups` / `pool.tasks`
/// counter bumps. With a disabled tracer the tasks are submitted
/// unwrapped (no wrapping, no allocation). Tracing never changes
/// scheduling or results.
///
/// Every task runs as a pool job, serial or not. Once the caller has no
/// task left to claim it waits for the others: inside a pool job it
/// blocks; outside one it helps, running jobs of groups submitted from
/// inside other pool jobs (kernel bands of a sibling run) one at a time
/// until its own tasks have finished. Helping never changes results —
/// each job runs exactly once, wherever — only which thread runs it.
///
/// Panics from tasks are forwarded to the caller after all tasks of the
/// group have finished.
pub fn run_tasks<'a, R: Send + 'a>(
    tracer: &'a Tracer,
    name: &'static str,
    threads: usize,
    mut tasks: Vec<Task<'a, R>>,
) -> Vec<R> {
    if tracer.enabled() {
        tracer.counter("pool.groups", 1);
        tracer.counter("pool.tasks", tasks.len() as u64);
        tasks = tasks
            .into_iter()
            .map(|task| {
                Box::new(move || {
                    let _band = tracer.band_span(name);
                    task()
                }) as Task<'a, R>
            })
            .collect();
    }
    pool().run_tasks(threads, tasks)
}

/// Runs `f` over the canonical [`band_ranges`] of `0..n` with up to
/// `threads` threads, each band in a `name`d span (see [`run_tasks`]),
/// and returns the per-band results **in band order**. Folding them in
/// that order (`.into_iter().sum()`, `.fold(…)`) associates any float
/// accumulation the same way at every thread count, because the band
/// layout depends only on `n`.
pub fn run_bands<R, F>(
    tracer: &Tracer,
    name: &'static str,
    threads: usize,
    n: usize,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let f = &f;
    let tasks: Vec<Task<'_, R>> = band_ranges(n)
        .into_iter()
        .map(|range| Box::new(move || f(range)) as Task<'_, R>)
        .collect();
    run_tasks(tracer, name, threads, tasks)
}

/// The process-wide worker pool, created on first use with one worker
/// per available hardware thread minus one (the submitter supplies the
/// remaining thread). Workers live for the rest of the process.
pub fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        WorkerPool::new(hw)
    })
}

/// A type-erased, lifetime-erased task, produced only by the private
/// `erase_lifetime`; see there for why the `'static` is a fiction the
/// group protocol makes safe.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Erases the borrow lifetime of a pool job, pretending it is `'static`.
///
/// This is the workspace's one `unsafe` expression (`#![deny(unsafe_code)]`
/// everywhere, enforced by `cargo xtask lint`), kept in a private named
/// helper so the obligation it places on callers is written once:
///
/// **Invariant — the caller's stack frame must outlive every access to
/// the job.** Concretely, [`PoolShared::run_tasks_on`] upholds it
/// because:
///
/// 1. it does not return (or unwind) before its own group's finished
///    latch has flipped — whether it blocks in
///    [`TaskGroup::wait_finished`] or helps other groups in
///    `PoolShared::help_until_finished`, it leaves only after observing
///    that *every* job of its group has been executed: the `done` counter
///    counts each claimed index exactly once, and the latch flips only at
///    `done == jobs.len()`;
/// 2. a job leaves its slot only by being claimed (`Option::take` under
///    the slot mutex), so after the latch flips no job referencing the
///    caller's frame exists anywhere;
/// 3. queue stragglers — a worker or a helper holding an
///    `Arc<TaskGroup>` clone it took from the queue before the submitter
///    withdrew the group's copies — find `next >= jobs.len()` or empty
///    slots and touch no borrowed data (the group's own storage is kept
///    alive by the `Arc` they hold).
///
/// Helping runs *foreign* jobs on the submitter's thread but never
/// shortens its own wait: the helper re-checks its own latch between
/// jobs and returns only once it flipped.
///
/// The interleaving-sensitive parts of this argument (1–3) are exactly
/// what `tests/loom_exec.rs` model-checks, and `run_tasks_on` re-asserts
/// the postcondition with a `debug_assert!` on the completion count.
#[allow(unsafe_code)]
fn erase_lifetime(job: Box<dyn FnOnce() + Send + '_>) -> Job {
    // SAFETY: see the invariant above — upheld by the group protocol in
    // `PoolShared::run_tasks_on`, the only caller.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
}

/// A group's completion latch, plus whether its submitter is asleep on
/// the pool condvar (helping) rather than on the group's own condvar.
struct Latch {
    finished: bool,
    helper_asleep: bool,
}

/// One batch of jobs submitted together. Workers and the submitter claim
/// jobs by atomic index; the submitter returns only once every job has run.
///
/// Public so the model-checking harness (`tests/loom_exec.rs`) can drive
/// the protocol directly; library callers use [`run_tasks`].
pub struct TaskGroup {
    jobs: Vec<Mutex<Option<Job>>>,
    next: AtomicUsize,
    done: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    latch: Mutex<Latch>,
    finished_cv: Condvar,
    /// Submitted from inside a pool job: fine-grained work (a run's
    /// kernel bands) that a waiting top-level submitter may help with.
    nested: bool,
}

impl TaskGroup {
    /// Wraps `jobs` into a claimable group. A group created while this
    /// thread runs a pool job is *nested*: only nested groups are helped
    /// (see [`PoolShared::run_tasks_on`]).
    pub fn new(jobs: Vec<Job>) -> TaskGroup {
        TaskGroup {
            jobs: jobs.into_iter().map(|j| Mutex::new(Some(j))).collect(),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            latch: Mutex::new(Latch {
                finished: false,
                helper_asleep: false,
            }),
            finished_cv: Condvar::new(),
            nested: in_job(),
        }
    }

    /// Claims and runs one job. `None` when every job is already
    /// claimed; otherwise `Some(wake)`, where `wake` says this was the
    /// group's last job and its submitter sleeps on the pool condvar:
    /// the caller must then wake the pool's sleepers.
    fn run_one(&self) -> Option<bool> {
        let total = self.jobs.len();
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            return None;
        }
        let job = self.jobs[i].lock().take();
        if let Some(job) = job {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| as_job(job))) {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        let previously_done = self.done.fetch_add(1, Ordering::AcqRel);
        debug_assert!(
            previously_done < total,
            "claim counted twice: done {previously_done} >= total {total}"
        );
        if previously_done + 1 < total {
            return Some(false);
        }
        let mut latch = self.latch.lock();
        latch.finished = true;
        let wake = latch.helper_asleep;
        drop(latch);
        self.finished_cv.notify_all();
        Some(wake)
    }

    /// Claims and runs jobs until none are left unclaimed. Each job runs
    /// exactly once; the claimer that completes the last job flips the
    /// finished latch. Returns `true` when that last job was run here
    /// while the group's submitter slept on the pool condvar — the
    /// caller must then wake it ([`PoolShared`] does; a bare group has
    /// no helping submitter and never returns `true`).
    pub fn run_available(&self) -> bool {
        let mut wake = false;
        while let Some(woke) = self.run_one() {
            wake |= woke;
        }
        wake
    }

    /// Whether some job is still unclaimed.
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.jobs.len()
    }

    /// Blocks until every job of the group has been executed.
    pub fn wait_finished(&self) {
        let mut latch = self.latch.lock();
        while !latch.finished {
            latch = self.finished_cv.wait(latch);
        }
    }

    /// Whether the finished latch has flipped.
    fn is_finished(&self) -> bool {
        self.latch.lock().finished
    }

    /// Records that the submitter is about to sleep on the pool condvar,
    /// unless the latch already flipped (then returns `true`). Called
    /// with the queue lock held, so the flipper — which takes the queue
    /// lock before notifying — cannot slip its wake-up in between.
    fn sleep_unless_finished(&self) -> bool {
        let mut latch = self.latch.lock();
        if !latch.finished {
            latch.helper_asleep = true;
        }
        latch.finished
    }

    /// Number of jobs that have finished executing.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Acquire)
    }

    /// Whether every job slot is empty (claimed). After
    /// [`wait_finished`](TaskGroup::wait_finished) returns this must
    /// hold; the model-checking harness asserts it on every schedule.
    pub fn all_jobs_consumed(&self) -> bool {
        self.jobs.iter().all(|slot| slot.lock().is_none())
    }

    /// Takes the first captured job panic, if any job panicked.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().take()
    }
}

/// Queue state shared between submitters and workers.
struct PoolQueue {
    groups: VecDeque<Arc<TaskGroup>>,
    shutdown: bool,
    /// Threads asleep on the pool condvar: idle workers and helping
    /// submitters with nothing to help.
    sleeping: usize,
}

/// The state shared by a pool's workers and submitters: the group queue
/// plus the full submission protocol
/// ([`run_tasks_on`](PoolShared::run_tasks_on), helping wait included)
/// and the worker body ([`worker_loop`](PoolShared::worker_loop)).
///
/// Public so the model-checking harness can run *this exact code* on
/// model threads; library callers use [`WorkerPool`] / [`run_tasks`].
pub struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Wakes idle workers (on submit and shutdown) and helping
    /// submitters (on submit and on their own group's completion).
    work_cv: Condvar,
}

impl Default for PoolShared {
    fn default() -> PoolShared {
        PoolShared::new()
    }
}

impl PoolShared {
    /// Creates an empty queue in the running state.
    pub fn new() -> PoolShared {
        PoolShared {
            queue: Mutex::new(PoolQueue {
                groups: VecDeque::new(),
                shutdown: false,
                sleeping: 0,
            }),
            work_cv: Condvar::new(),
        }
    }

    /// Enqueues `copies` references to `group` and wakes the sleeping
    /// workers and helpers, if any. One queue entry enlists (at most)
    /// one worker into the group.
    pub fn submit(&self, group: &Arc<TaskGroup>, copies: usize) {
        if copies == 0 {
            return;
        }
        let mut queue = self.queue.lock();
        for _ in 0..copies {
            queue.groups.push_back(Arc::clone(group));
        }
        let wake = queue.sleeping > 0;
        drop(queue);
        if wake {
            self.work_cv.notify_all();
        }
    }

    /// Sleeps on the pool condvar, counted in `sleeping` meanwhile.
    fn sleep<'g>(&self, mut queue: MutexGuard<'g, PoolQueue>) -> MutexGuard<'g, PoolQueue> {
        queue.sleeping += 1;
        queue = self.work_cv.wait(queue);
        queue.sleeping -= 1;
        queue
    }

    /// Number of group copies waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.lock().groups.len()
    }

    /// Asks workers to exit once the queue has drained. Pending groups
    /// are still popped (their stragglers find empty slots and return
    /// immediately), so a shutdown never strands a submitter.
    pub fn request_shutdown(&self) {
        self.queue.lock().shutdown = true;
        self.work_cv.notify_all();
    }

    /// Runs `group`'s unclaimed jobs here, waking a helping submitter
    /// whose group this completed.
    fn drain(&self, group: &TaskGroup) {
        if group.run_available() {
            self.wake_sleepers();
        }
    }

    /// Wakes everything asleep on the pool condvar. Taking the queue
    /// lock first orders the wake-up after any sleeper's last look at
    /// its latch (which it takes under that lock).
    fn wake_sleepers(&self) {
        let wake = self.queue.lock().sleeping > 0;
        if wake {
            self.work_cv.notify_all();
        }
    }

    /// The worker body: pop a group, help drain it, repeat; return once
    /// shutdown is requested and the queue is empty.
    pub fn worker_loop(&self) {
        loop {
            let group = {
                let mut queue = self.queue.lock();
                loop {
                    if let Some(g) = queue.groups.pop_front() {
                        break g;
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = self.sleep(queue);
                }
            };
            self.drain(&group);
        }
    }

    /// The helping wait of a top-level submitter: until `own`'s latch
    /// flips, claim and run one job at a time of a queued *nested* group
    /// (one submitted from inside a pool job), and sleep on the pool
    /// condvar only when no such job is queued — woken by the next
    /// submission or by `own` completing. Groups with nothing left to
    /// claim are dropped from the queue front on the way. Top-level
    /// groups are never helped: their jobs are coarse (a whole pipeline run), and a
    /// waiter that took one would wait far past its own group.
    fn help_until_finished(&self, own: &TaskGroup) {
        let mut helped = 0u64;
        let mut queue = self.queue.lock();
        loop {
            while queue.groups.front().is_some_and(|g| !g.has_unclaimed()) {
                queue.groups.pop_front();
            }
            let nested = queue
                .groups
                .iter()
                .find(|g| g.nested && g.has_unclaimed())
                .map(Arc::clone);
            match nested {
                Some(_) if own.is_finished() => break,
                Some(foreign) => {
                    drop(queue);
                    if let Some(wake) = foreign.run_one() {
                        helped += 1;
                        if wake {
                            self.wake_sleepers();
                        }
                    }
                    queue = self.queue.lock();
                }
                None if own.sleep_unless_finished() => break,
                None => queue = self.sleep(queue),
            }
        }
        HELPED.with(|h| h.set(h.get() + helped));
    }

    /// The full submission protocol: erase the task lifetimes, enqueue
    /// the group for `helpers` workers, help drain it, withdraw its
    /// leftover queue copies, wait until every job ran — blocking inside
    /// a pool job, helping outside one — forward the first task panic,
    /// and collect the results in submission order. The lifetime-erasure
    /// safety argument lives in `erase_lifetime` and is upheld *here*.
    pub fn run_tasks_on<'a, R: Send>(&self, helpers: usize, tasks: Vec<Task<'a, R>>) -> Vec<R> {
        let total = tasks.len();
        let results: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let jobs: Vec<Job> = tasks
            .into_iter()
            .zip(results.iter())
            .map(|(task, slot)| {
                erase_lifetime(Box::new(move || {
                    let value = task();
                    *slot.lock() = Some(value);
                }))
            })
            .collect();
        let group = Arc::new(TaskGroup::new(jobs));
        self.submit(&group, helpers);
        self.drain(&group);
        if helpers > 0 {
            // every job is claimed: a copy left in the queue could only
            // enlist a worker into nothing
            self.queue.lock().groups.retain(|g| !Arc::ptr_eq(g, &group));
        }
        if group.nested {
            group.wait_finished();
        } else {
            self.help_until_finished(&group);
        }
        debug_assert!(
            group.completed() == total,
            "finished latch flipped before all jobs completed"
        );
        if let Some(payload) = group.take_panic() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| {
                // xtask-allow: panic-path — reason: protocol invariant: the flipped latch implies every job stored its result; machine-checked by tests/loom_exec.rs
                slot.into_inner().expect("every task produced a result")
            })
            .collect()
    }
}

/// A pool of persistent worker threads executing [`TaskGroup`]s.
///
/// Use the process-wide instance via [`pool`] (or the [`run_tasks`] /
/// [`run_bands`] free functions); a locally constructed pool should be
/// retired with [`shutdown`](WorkerPool::shutdown), otherwise its
/// workers live (idle) for the rest of the process.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool offering `total_threads` of concurrency: it spawns
    /// `total_threads - 1` workers, the submitting thread being the last
    /// one. `total_threads <= 1` creates a pool with no workers
    /// (everything runs on the submitter).
    pub fn new(total_threads: usize) -> WorkerPool {
        let workers = total_threads.saturating_sub(1);
        let shared = Arc::new(PoolShared::new());
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("slam-exec-{i}"))
                .spawn(move || shared.worker_loop())
                // xtask-allow: panic-path — reason: a machine that cannot spawn a thread at startup has no graceful degradation path
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        WorkerPool {
            shared,
            workers,
            handles,
        }
    }

    /// Number of persistent worker threads (not counting submitters).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Maximum concurrency for one task group: all workers plus the
    /// submitting thread.
    pub fn max_concurrency(&self) -> usize {
        self.workers + 1
    }

    /// Retires the pool: asks the workers to exit once the queue drains
    /// and joins them. Must not race in-flight [`run_tasks`]
    /// (WorkerPool::run_tasks) calls on other threads.
    pub fn shutdown(self) {
        self.shared.request_shutdown();
        for handle in self.handles {
            let _ = handle.join();
        }
    }

    /// See the free function [`run_tasks`].
    pub fn run_tasks<'a, R: Send>(&self, threads: usize, tasks: Vec<Task<'a, R>>) -> Vec<R> {
        let total = tasks.len();
        if threads <= 1 || total <= 1 || self.workers == 0 {
            return tasks.into_iter().map(as_job).collect();
        }
        // enlist at most threads-1 helpers; the submitter is the last thread
        let helpers = (threads - 1).min(self.workers).min(total - 1);
        self.shared.run_tasks_on(helpers, tasks)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn band_ranges_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 63, 64, 65, 100, 1000, 4097] {
            let bands = band_ranges(n);
            assert!(bands.len() <= MAX_BANDS);
            let mut expected = 0usize;
            for b in &bands {
                assert_eq!(b.start, expected, "bands must be contiguous for n={n}");
                assert!(!b.is_empty(), "empty band for n={n}");
                expected = b.end;
            }
            assert_eq!(expected, n, "bands must cover 0..{n}");
        }
    }

    #[test]
    fn band_layout_ignores_thread_count() {
        // the layout is a pure function of n — this is the determinism
        // cornerstone, so pin it explicitly
        assert_eq!(band_ranges(128), band_ranges(128));
        assert_eq!(band_ranges(5).len(), 5);
        assert_eq!(band_ranges(640).len(), 64);
    }

    #[test]
    fn run_tasks_returns_in_submission_order() {
        for threads in [1usize, 2, 4, 7] {
            let tasks: Vec<Task<'_, usize>> = (0..100usize)
                .map(|i| Box::new(move || i * i) as Task<'_, usize>)
                .collect();
            let out = run_tasks(Tracer::off(), "square", threads, tasks);
            assert_eq!(out, (0..100usize).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_tasks_borrows_caller_data() {
        let data: Vec<u64> = (0..1000).collect();
        let bands = band_ranges(data.len());
        let tasks: Vec<Task<'_, u64>> = bands
            .into_iter()
            .map(|r| {
                let slice = &data[r];
                Box::new(move || slice.iter().sum()) as Task<'_, u64>
            })
            .collect();
        let partials = run_tasks(Tracer::off(), "sum", 4, tasks);
        assert_eq!(partials.iter().sum::<u64>(), 499_500);
    }

    #[test]
    fn run_bands_reduction_is_thread_count_invariant() {
        // a float reduction whose result depends on association order:
        // identical across thread counts because the banding is fixed
        let values: Vec<f32> = (0..1234).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let sum_with = |threads: usize| -> f32 {
            run_bands(Tracer::off(), "sum", threads, values.len(), |r| {
                values[r].iter().copied().sum::<f32>()
            })
            .into_iter()
            .sum()
        };
        let reference = sum_with(1);
        for threads in [2usize, 4, 7, 64] {
            assert_eq!(sum_with(threads).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn nested_run_tasks_completes() {
        let off = Tracer::off();
        let out = run_bands(off, "outer", 4, 8, |outer| {
            run_bands(off, "inner", 4, 16, |inner| {
                (outer.len() * inner.len()) as u64
            })
            .into_iter()
            .sum::<u64>()
        });
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|&v| v == 16));
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            let tasks: Vec<Task<'_, ()>> = (0..16)
                .map(|i| {
                    Box::new(move || {
                        if i == 7 {
                            panic!("task seven failed");
                        }
                    }) as Task<'_, ()>
                })
                .collect();
            run_tasks(Tracer::off(), "panic", 4, tasks);
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task seven failed");
    }

    #[test]
    fn thread_budget_caps_effective_threads() {
        assert_eq!(thread_budget(), None);
        let avail = available_threads();
        assert!(avail >= 1);
        assert_eq!(effective_threads(0), avail);
        assert_eq!(effective_threads(usize::MAX), avail);
        assert_eq!(effective_threads(1), 1);
        with_thread_budget(1, || {
            assert_eq!(thread_budget(), Some(1));
            assert_eq!(effective_threads(0), 1);
            assert_eq!(effective_threads(8), 1);
            with_thread_budget(3, || {
                assert_eq!(effective_threads(0), 3.min(avail));
            });
            assert_eq!(thread_budget(), Some(1));
        });
        assert_eq!(thread_budget(), None);
    }

    #[test]
    fn budget_restored_after_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_thread_budget(2, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(thread_budget(), None);
    }

    #[test]
    fn explicit_multiworker_pool_runs_parallel_groups() {
        // a dedicated 4-thread pool exercises the cross-thread claim and
        // finished-latch path even on single-core machines, where the
        // global pool has no workers and everything degrades to serial
        let pool = WorkerPool::new(4);
        assert_eq!(pool.worker_count(), 3);
        assert_eq!(pool.max_concurrency(), 4);
        let data: Vec<u64> = (0..10_000).collect();
        for _ in 0..50 {
            let tasks: Vec<Task<'_, u64>> = band_ranges(data.len())
                .into_iter()
                .map(|r| {
                    let slice = &data[r];
                    Box::new(move || slice.iter().sum()) as Task<'_, u64>
                })
                .collect();
            let partials = pool.run_tasks(4, tasks);
            assert_eq!(partials.iter().sum::<u64>(), 49_995_000);
        }
        pool.shutdown();
    }

    #[test]
    fn explicit_pool_shutdown_joins_workers() {
        let pool = WorkerPool::new(3);
        let out = pool.run_tasks(
            3,
            (0..32usize)
                .map(|i| Box::new(move || i + 1) as Task<'_, usize>)
                .collect(),
        );
        assert_eq!(out.iter().sum::<usize>(), 32 * 33 / 2);
        // must return (workers observe the shutdown flag), not hang
        pool.shutdown();
    }

    #[test]
    fn top_level_waiter_helps_nested_groups_only() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex as StdMutex;
        let shared = Arc::new(PoolShared::new());
        let own_started = Arc::new(AtomicBool::new(false));
        let nested_done = Arc::new(AtomicBool::new(false));
        // the waiter's own job, held by the worker until the nested
        // foreign job has run somewhere
        let own = Arc::new(TaskGroup::new(vec![{
            let (started, done) = (Arc::clone(&own_started), Arc::clone(&nested_done));
            Box::new(move || {
                started.store(true, Ordering::SeqCst);
                while !done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }) as Job
        }]));
        shared.submit(&own, 1);
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.worker_loop())
        };
        while !own_started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // the worker is busy; queue a coarse top-level group and a
        // nested one (as a run's kernel bands are)
        let coarse_ran_on = Arc::new(StdMutex::new(None));
        let coarse = Arc::new(TaskGroup::new(vec![{
            let ran_on = Arc::clone(&coarse_ran_on);
            Box::new(move || {
                *ran_on.lock().unwrap() = Some(std::thread::current().id());
            }) as Job
        }]));
        let ran_on = Arc::new(StdMutex::new(None));
        let nested = Arc::new(as_job(|| {
            TaskGroup::new(vec![{
                let (ran_on, done) = (Arc::clone(&ran_on), Arc::clone(&nested_done));
                Box::new(move || {
                    *ran_on.lock().unwrap() = Some(std::thread::current().id());
                    done.store(true, Ordering::SeqCst);
                }) as Job
            }])
        }));
        assert!(nested.nested && !coarse.nested);
        shared.submit(&coarse, 1);
        shared.submit(&nested, 1);
        let before = helped_jobs();
        shared.help_until_finished(&own);
        assert_eq!(helped_jobs() - before, 1, "the waiter ran one foreign job");
        assert_eq!(
            *ran_on.lock().unwrap(),
            Some(std::thread::current().id()),
            "the nested job ran on the waiting thread"
        );
        assert_eq!(own.completed(), 1);
        shared.request_shutdown();
        worker.join().unwrap();
        let coarse_ran_on = *coarse_ran_on.lock().unwrap();
        assert!(coarse_ran_on.is_some(), "the worker ran the coarse job");
        assert_ne!(
            coarse_ran_on,
            Some(std::thread::current().id()),
            "a top-level group is never helped"
        );
    }

    #[test]
    fn a_wait_inside_a_job_never_runs_foreign_jobs() {
        use std::sync::Mutex as StdMutex;
        let shared = Arc::new(PoolShared::new());
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.worker_loop())
        };
        let started = AtomicUsize::new(0);
        let ran_on = Arc::new(StdMutex::new(None));
        let foreign: StdMutex<Option<Arc<TaskGroup>>> = StdMutex::new(None);
        let before = helped_jobs();
        as_job(|| {
            // each task waits for the other to start, so the submitter
            // runs one and the worker the other
            let tasks: Vec<Task<'_, ()>> = (0..2)
                .map(|i| {
                    let (started, ran_on, foreign, shared) = (&started, &ran_on, &foreign, &shared);
                    Box::new(move || {
                        started.fetch_add(1, Ordering::SeqCst);
                        while started.load(Ordering::SeqCst) < 2 {
                            std::thread::yield_now();
                        }
                        if i == 1 {
                            // the worker's task queues a nested foreign
                            // group and holds the submitter waiting
                            let ran_on = Arc::clone(ran_on);
                            let group = Arc::new(TaskGroup::new(vec![Box::new(move || {
                                *ran_on.lock().unwrap() = Some(std::thread::current().id());
                            })
                                as Job]));
                            shared.submit(&group, 1);
                            *foreign.lock().unwrap() = Some(group);
                            std::thread::sleep(std::time::Duration::from_millis(50));
                        }
                    }) as Task<'_, ()>
                })
                .collect();
            shared.run_tasks_on(1, tasks);
        });
        let foreign = foreign
            .lock()
            .unwrap()
            .take()
            .expect("the worker queued it");
        while foreign.completed() < 1 {
            std::thread::yield_now();
        }
        assert_eq!(helped_jobs(), before, "a wait inside a job helped");
        assert_ne!(
            *ran_on.lock().unwrap(),
            Some(std::thread::current().id()),
            "the foreign job ran on the thread waiting inside a job"
        );
        shared.request_shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn a_returning_submitter_leaves_no_copy_of_its_group_queued() {
        // no workers: every copy submitted stays queued unless withdrawn
        let shared = PoolShared::new();
        let tasks = || -> Vec<Task<'_, usize>> {
            (0..8usize)
                .map(|i| Box::new(move || i) as Task<'_, usize>)
                .collect()
        };
        assert_eq!(shared.run_tasks_on(3, tasks()).len(), 8);
        assert_eq!(shared.queued(), 0, "top-level submitter left copies");
        assert_eq!(as_job(|| shared.run_tasks_on(3, tasks())).len(), 8);
        assert_eq!(shared.queued(), 0, "nested submitter left copies");
    }

    #[test]
    fn traced_bands_match_untraced_and_record_spans() {
        use slam_trace::{MockClock, SpanLevel};
        let values: Vec<f32> = (0..999).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let sum_with = |tracer: &Tracer| -> f32 {
            run_bands(tracer, "sum", 4, values.len(), |r| {
                values[r].iter().copied().sum::<f32>()
            })
            .into_iter()
            .sum()
        };
        // a disabled tracer takes the zero-overhead path and records nothing
        let off = Tracer::disabled();
        let plain = sum_with(&off);
        assert!(off.drain().is_empty());
        let tracer = Tracer::with_clock(MockClock::new(1));
        let traced = sum_with(&tracer);
        assert_eq!(
            traced.to_bits(),
            plain.to_bits(),
            "tracing perturbed results"
        );
        let trace = tracer.drain();
        let bands = trace
            .spans()
            .filter(|s| s.level == SpanLevel::Band && s.name == "sum")
            .count();
        assert_eq!(bands, band_ranges(values.len()).len());
        assert_eq!(trace.counter_total("pool.tasks"), bands as u64);
        assert_eq!(trace.counter_total("pool.groups"), 1);
    }

    #[test]
    fn pool_reuses_persistent_workers() {
        // run many task groups and check no group ever sees a thread
        // outside the fixed pool (workers are created once, not per call)
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let seen: StdMutex<HashSet<String>> = StdMutex::new(HashSet::new());
        for _ in 0..20 {
            let tasks: Vec<Task<'_, ()>> = (0..16)
                .map(|_| {
                    Box::new(|| {
                        let name = std::thread::current()
                            .name()
                            .unwrap_or("submitter")
                            .to_string();
                        seen.lock().unwrap().insert(name);
                    }) as Task<'_, ()>
                })
                .collect();
            run_tasks(Tracer::off(), "names", available_threads(), tasks);
        }
        let seen = seen.into_inner().unwrap();
        // every participating thread is either the submitter or a
        // persistent named pool worker
        for name in &seen {
            assert!(
                name.starts_with("slam-exec-") || !name.starts_with("slam-"),
                "unexpected thread {name}"
            );
        }
        assert!(seen.len() <= pool().max_concurrency() + 1);
    }
}
