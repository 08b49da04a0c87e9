//! One persistent thread pool with a process-wide parallelism budget.
//!
//! Every fan-out — GEMM panels, perception versions, case-study routes,
//! calibration models, serve shards — runs on one pool of long-lived
//! workers. It starts lazily, so a process that never fans out never
//! spawns a thread, and grows to what the largest fan-out asked for; after
//! warm-up it spawns nothing ([`threads_started`] observes this).
//!
//! **One budget.** A top-level fan-out may use [`thread_count`] threads
//! (`MVML_THREADS`, else the detected cores). Inside a fan-out the budget
//! is spent: pool workers, and a caller while it runs its own share of a
//! fork-join, have a [`budget`] of 1, so nested fan-outs run inline.
//! Nothing oversubscribes, and no worker waits on tasks queued behind it.
//!
//! **Two entry points.** Fork-join over borrowed closures ([`for_each`],
//! [`for_each_mut`], [`map`], [`map_recorded`]): the caller claims tasks
//! alongside up to `budget − 1` workers, and a panicking task re-raises on
//! the caller once every sibling has finished. [`run_all`]: jobs on pool
//! workers only, each panic returned as [`PoolError::WorkerPanicked`].
//!
//! **Determinism.** A fan-out's partition depends only on the budget,
//! never on which thread runs a task, so results are identical for any
//! thread count.

// The fork-join lends a borrowed closure to `'static` pool jobs; the
// lifetime erasure and the raw-pointer handoff are the only unsafe here.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Process-wide override installed by [`with_thread_count`]; 0 = none.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_thread_count`] callers so concurrent tests don't race
/// on the override.
static OVERRIDE_GUARD: Mutex<()> = Mutex::new(());

/// The process's thread budget: how many threads a top-level fan-out may
/// use, counting the caller.
///
/// Resolution order: an active [`with_thread_count`] override, then the
/// `MVML_THREADS` environment variable (a positive integer), then the
/// machine's available parallelism. The last two are read once per
/// process: `available_parallelism` reads cgroup files on every call,
/// which costs more than the GEMMs this decides about.
pub fn thread_count() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("MVML_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Threads a fan-out issued from the current thread may use: 1 inside a
/// fan-out (the budget is already spent), [`thread_count`] elsewhere.
pub fn budget() -> usize {
    if IN_FANOUT.with(Cell::get) {
        1
    } else {
        thread_count()
    }
}

/// OS threads the pool has started since the process began. Observe-only:
/// it lets tests assert that steady-state work spawns nothing.
pub fn threads_started() -> usize {
    lock(&QUEUE).workers
}

/// The canonical worker-count ladder benchmark sweeps measure at: `1, 2, 4`
/// extended with the resolved [`thread_count`] (sorted, deduplicated).
///
/// Every benchmark or example that sweeps thread counts must route through
/// this single helper instead of hardcoding its own list, so the batch
/// benchmarks and the long-running service resolve pool sizing from the
/// same `MVML_THREADS` source and can never disagree. Perf-gate baselines
/// join rows on thread count, so extending the ladder on a bigger host
/// only *adds* rows (unmatched rows are ignored by the gate).
pub fn bench_thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 4];
    let resolved = thread_count();
    if !sweep.contains(&resolved) {
        sweep.push(resolved);
    }
    sweep.sort_unstable();
    sweep
}

thread_local! {
    /// True while this thread is inside [`with_thread_count`], making
    /// nested calls skip the (non-reentrant) guard mutex.
    static HOLDING_GUARD: Cell<bool> = const { Cell::new(false) };
    /// True on pool workers, and on a caller while it runs its share of a
    /// fork-join: the budget is spent, so nested fan-outs run inline.
    static IN_FANOUT: Cell<bool> = const { Cell::new(false) };
}

/// Restores the previous override even if the wrapped closure panics.
struct RestoreOverride {
    previous: usize,
    took_guard: bool,
}

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        OVERRIDE.store(self.previous, Ordering::SeqCst);
        if self.took_guard {
            HOLDING_GUARD.with(|h| h.set(false));
        }
    }
}

/// Runs `f` with [`thread_count`] forced to `n` — the in-process equivalent
/// of setting `MVML_THREADS`, used by determinism tests to compare thread
/// counts without re-spawning the process. Concurrent callers from other
/// threads are serialized; nested calls on the same thread are re-entrant.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be positive");
    let nested = HOLDING_GUARD.with(|h| h.replace(true));
    let _guard = if nested {
        None
    } else {
        Some(lock(&OVERRIDE_GUARD))
    };
    let _restore = RestoreOverride {
        previous: OVERRIDE.swap(n, Ordering::SeqCst),
        took_guard: !nested,
    };
    f()
}

/// Locks `m`, ignoring poison: tasks run under `catch_unwind`, and every
/// critical section here leaves its data consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool: one job queue, and the count of workers serving it (they
/// live as long as the process).
struct Queue {
    jobs: VecDeque<Job>,
    workers: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    jobs: VecDeque::new(),
    workers: 0,
});
static READY: Condvar = Condvar::new();

/// Grows the pool to at least `workers` threads, then queues `jobs`.
///
/// # Panics
///
/// Panics if the OS refuses to start a worker.
fn push(workers: usize, jobs: impl Iterator<Item = Job>) {
    let mut queue = lock(&QUEUE);
    while queue.workers < workers {
        let id = queue.workers;
        // Never joined: workers live as long as the process, and every job
        // catches its own panics, so there is no result to collect.
        std::thread::Builder::new()
            .name(format!("mvml-pool-{id}"))
            .spawn(work)
            .unwrap_or_else(|e| panic!("spawning pool worker {id}: {e}"));
        queue.workers += 1;
    }
    let before = queue.jobs.len();
    queue.jobs.extend(jobs);
    let added = queue.jobs.len() - before;
    drop(queue);
    for _ in 0..added {
        READY.notify_one();
    }
}

/// A worker's whole life: take the next job, run it, repeat.
fn work() {
    IN_FANOUT.with(|f| f.set(true));
    loop {
        let mut queue = lock(&QUEUE);
        let job = loop {
            match queue.jobs.pop_front() {
                Some(job) => break job,
                None => queue = READY.wait(queue).unwrap_or_else(PoisonError::into_inner),
            }
        };
        drop(queue);
        job();
    }
}

/// Lifetime-erased pointer to a fan-out's task closure.
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync`, so calling it from any thread is sound;
// `FanOut::drain` dereferences it only for a claimed index, and the
// issuing call keeps the closure alive until every claimed index is done.
unsafe impl Send for TaskPtr {}
// SAFETY: as above — shared access only ever calls the `Sync` closure.
unsafe impl Sync for TaskPtr {}

/// One fan-out: indices `0..total`, each claimed once by whichever
/// participant (caller or pool runner) gets there first.
struct FanOut {
    task: TaskPtr,
    total: usize,
    next: AtomicUsize,
    /// Finished indices, and the first panic payload a task raised.
    progress: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    finished: Condvar,
}

impl FanOut {
    /// Claims and runs indices until none are left. A runner that arrives
    /// after the last claim returns without touching the task.
    fn drain(&self) {
        let outer = IN_FANOUT.with(|f| f.replace(true));
        loop {
            // Relaxed: a claim publishes nothing; task results reach the
            // caller through the `progress` mutex.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: index `i < total` is claimed and not yet counted
                // as done, so the issuing `run` is still blocked in its wait
                // and the closure it borrowed is alive.
                unsafe { (*self.task.0)(i) }
            }));
            let mut progress = lock(&self.progress);
            progress.0 += 1;
            if let Err(payload) = outcome {
                progress.1.get_or_insert(payload);
            }
            if progress.0 == self.total {
                self.finished.notify_all();
            }
        }
        IN_FANOUT.with(|f| f.set(outer));
    }

    /// Runs `task(i)` for every `i < total` on `runners` pool workers, plus
    /// the caller when `caller_helps`, and returns once every index has
    /// finished — with the first panic payload, if any task panicked.
    fn run(
        total: usize,
        runners: usize,
        caller_helps: bool,
        task: &(dyn Fn(usize) + Sync),
    ) -> Option<Box<dyn Any + Send>> {
        // SAFETY: only the lifetime changes (same fat-pointer layout); every
        // claimed index finishes before the wait below returns, and runners
        // arriving after the last claim never dereference the pointer.
        let task = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task)
        };
        let fan = Arc::new(FanOut {
            task: TaskPtr(task),
            total,
            next: AtomicUsize::new(0),
            progress: Mutex::new((0, None)),
            finished: Condvar::new(),
        });
        push(
            runners,
            (0..runners).map(|_| {
                let fan = Arc::clone(&fan);
                Box::new(move || fan.drain()) as Job
            }),
        );
        if caller_helps {
            fan.drain();
        }
        let mut progress = lock(&fan.progress);
        while progress.0 < total {
            progress = fan
                .finished
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
        progress.1.take()
    }
}

/// Fork-join: runs `f(i)` for every `i < tasks`, the caller working
/// alongside up to `budget() − 1` pool workers; inline when either is 1.
///
/// # Panics
///
/// Re-raises the first panic of any `f` call, after every other call has
/// finished.
pub fn for_each<F>(tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = budget().min(tasks);
    if threads <= 1 {
        (0..tasks).for_each(f);
    } else if let Some(payload) = FanOut::run(tasks, threads - 1, true, &f) {
        resume_unwind(payload);
    }
}

/// Fork-join: applies `f(i, &mut items[i])` to every element, each touched
/// exactly once (see [`for_each`]).
///
/// # Panics
///
/// As [`for_each`].
pub fn for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    fan_out_mut(items, true, f);
}

/// Applies `f(i, &mut items[i])` to every element on up to `budget()` pool
/// workers, one of them the caller when `caller_helps`; inline inside a
/// fan-out or when no worker would be used.
///
/// # Panics
///
/// As [`for_each`].
fn fan_out_mut<T, F>(items: &mut [T], caller_helps: bool, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let runners = budget()
        .min(items.len())
        .saturating_sub(usize::from(caller_helps));
    if runners == 0 || IN_FANOUT.with(Cell::get) {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let task = |i: usize| f(i, &mut lock(&cells[i]));
    if let Some(payload) = FanOut::run(cells.len(), runners, caller_helps, &task) {
        resume_unwind(payload);
    }
}

/// Fork-join: applies `f` to every item, returning results in input order
/// (see [`for_each`]).
///
/// # Panics
///
/// As [`for_each`].
pub fn map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let mut slots: Vec<(Option<I>, Option<T>)> =
        items.into_iter().map(|item| (Some(item), None)).collect();
    for_each_mut(&mut slots, |_, (item, out)| {
        *out = item.take().map(&f);
    });
    slots.into_iter().filter_map(|(_, out)| out).collect()
}

/// [`map`] with telemetry: emits one [`mvml_obs::TelemetryEvent::PoolRun`]
/// per call, timing the whole fan-out as one span and recording the
/// budget it ran with. Results are identical to `map` — the recorder is
/// observe-only, and with a disabled recorder no clock is read and no
/// event is built.
pub fn map_recorded<I, T, F>(
    recorder: &mvml_obs::Recorder,
    label: &str,
    items: Vec<I>,
    f: F,
) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let span = recorder.span();
    let count = items.len();
    let workers = budget();
    let out = map(items, f);
    recorder.emit_timed(span.stop(), || mvml_obs::TelemetryEvent::PoolRun {
        label: label.to_string(),
        items: count,
        workers,
    });
    out
}

/// Typed failure of a [`run_all`] job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The job panicked; the payload's message is preserved. The worker
    /// that ran it survives and keeps serving subsequent jobs.
    WorkerPanicked {
        /// Stringified panic payload (`&str`/`String` payloads verbatim).
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let PoolError::WorkerPanicked { message } = self;
        write!(f, "pool worker panicked: {message}")
    }
}

impl std::error::Error for PoolError {}

/// A [`run_all`] job before it runs, and its result after.
type JobSlot<F, T> = (Option<F>, Option<Result<T, PoolError>>);

/// Runs every job on pool workers — at most `budget()` at once, the
/// caller only waiting — and returns per-job results in input order. A
/// panicking job yields [`PoolError::WorkerPanicked`] without discarding
/// its siblings' results. Inside a fan-out the jobs run inline, in order,
/// with the same per-job panic capture.
pub fn run_all<T, F>(jobs: Vec<F>) -> Vec<Result<T, PoolError>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let mut slots: Vec<JobSlot<F, T>> = jobs.into_iter().map(|job| (Some(job), None)).collect();
    // Each job catches its own panic, so the fan-out never re-raises one.
    fan_out_mut(&mut slots, false, |_, (job, out)| {
        if let Some(job) = job.take() {
            *out = Some(catch_unwind(AssertUnwindSafe(job)).map_err(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                PoolError::WorkerPanicked { message }
            }));
        }
    });
    slots.into_iter().filter_map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_thread_count(threads, || map(items.clone(), |x| x * x));
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_mut_touches_every_index_once() {
        for threads in [1, 3, 5] {
            let mut data = vec![0usize; 23];
            with_thread_count(threads, || {
                for_each_mut(&mut data, |i, slot| *slot += i + 1);
            });
            let expect: Vec<usize> = (1..=23).collect();
            assert_eq!(data, expect, "threads = {threads}");
        }
    }

    #[test]
    fn with_thread_count_overrides_and_restores() {
        let inside = with_thread_count(3, thread_count);
        assert_eq!(inside, 3);
        let nested = with_thread_count(2, || with_thread_count(5, thread_count));
        assert_eq!(nested, 5);
    }

    #[test]
    fn bench_sweep_is_canonical_and_includes_resolved_count() {
        assert_eq!(with_thread_count(1, bench_thread_sweep), vec![1, 2, 4]);
        assert_eq!(with_thread_count(2, bench_thread_sweep), vec![1, 2, 4]);
        assert_eq!(with_thread_count(8, bench_thread_sweep), vec![1, 2, 4, 8]);
        assert_eq!(with_thread_count(3, bench_thread_sweep), vec![1, 2, 3, 4]);
    }

    #[test]
    fn budget_is_spent_inside_a_fan_out() {
        let inner = with_thread_count(4, || map(vec![(); 6], |()| budget()));
        assert_eq!(inner, vec![1; 6], "every task, the caller's too");
        assert_eq!(with_thread_count(4, budget), 4, "restored after the join");
    }

    /// Fork-joins issued from inside pool jobs run inline on the job's own
    /// thread, and complete while every runner of the outer fan-out is
    /// parked on a barrier — no nested task waits on a busy worker.
    #[test]
    fn nested_fork_join_runs_inline_while_every_worker_is_busy() {
        let barrier = Barrier::new(2);
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                || {
                    barrier.wait();
                    let me = std::thread::current().id();
                    let seen: Vec<ThreadId> =
                        map((0..8).collect(), |_: u32| std::thread::current().id());
                    (seen.iter().all(|t| *t == me), budget())
                }
            })
            .collect();
        let results = with_thread_count(2, || run_all(jobs));
        assert_eq!(results, vec![Ok((true, 1)), Ok((true, 1))]);
    }

    #[test]
    fn fork_join_panic_reraises_after_every_sibling_finishes() {
        // Task 0 is claimed first; every sibling starts only once it is
        // panicking, so the caller can see the panic only by waiting.
        let panicking = std::sync::atomic::AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_thread_count(3, || {
                map((0..12).collect(), |i: usize| {
                    if i == 0 {
                        panicking.store(true, Ordering::SeqCst);
                        panic!("task 0 fails");
                    }
                    while !panicking.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            })
        }));
        let payload = caught.expect_err("the task panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 0 fails"));
        assert_eq!(finished.load(Ordering::SeqCst), 11, "siblings all ran");
    }

    #[test]
    fn run_all_keeps_per_job_errors_in_order() {
        for threads in [1, 2, 4] {
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("middle job dies")),
                Box::new(|| panic!("{}", String::from("owned payload"))),
                Box::new(|| 4),
            ];
            let results = with_thread_count(threads, || run_all(jobs));
            assert_eq!(
                results,
                vec![
                    Ok(1),
                    Err(PoolError::WorkerPanicked {
                        message: "middle job dies".into()
                    }),
                    Err(PoolError::WorkerPanicked {
                        message: "owned payload".into()
                    }),
                    Ok(4),
                ],
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn run_all_jobs_run_on_pool_workers() {
        let me = std::thread::current().id();
        let jobs: Vec<_> = (0..3).map(|_| || std::thread::current().id()).collect();
        for id in with_thread_count(2, || run_all(jobs)) {
            assert_ne!(id, Ok(me), "the caller only waits");
        }
    }

    /// Small enough for miri: a borrowed fork-join, a nested one, and a
    /// `run_all`, all over the lifetime-erased task pointer.
    #[test]
    fn miri_sized_pool_round_trip() {
        let base = [1u32, 2, 3];
        let sums = with_thread_count(2, || {
            map(vec![10u32, 20, 30], |x| {
                x + map(base.to_vec(), |b| b * x).iter().sum::<u32>()
            })
        });
        assert_eq!(sums, vec![70, 140, 210]);
        let mut cells = [0u8; 5];
        with_thread_count(3, || for_each_mut(&mut cells, |i, c| *c = i as u8));
        assert_eq!(cells, [0, 1, 2, 3, 4]);
        let jobs: Vec<_> = [0, 2].map(|i| move || base[i]).into();
        let got = with_thread_count(2, || run_all(jobs));
        assert_eq!(got, vec![Ok(1), Ok(3)]);
    }
}
