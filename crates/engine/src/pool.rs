//! A persistent worker pool for deterministic fan-out.
//!
//! The engine's first parallel implementation opened a fresh
//! `std::thread::scope` — and therefore spawned fresh OS threads — every
//! round. At swarm scale (hundreds of thousands of rounds, each a few
//! hundred microseconds of work) the spawn cost dominates. A
//! [`WorkerPool`] spawns its threads **once** and hands them borrowed
//! work per call, replacing per-round spawns with a queue push and a
//! wake-up.
//!
//! Design notes:
//!
//! * **Borrowed jobs, scoped lifetime.** [`WorkerPool::run`] accepts
//!   closures borrowing the caller's stack (position windows, topology
//!   references) and does not return until every closure has finished —
//!   the same guarantee `thread::scope` gives, without the spawns.
//! * **Caller helps.** While waiting, the submitting thread executes
//!   queued jobs itself. This keeps the last core busy and makes nested
//!   submissions deadlock-free: a pool worker that submits follow-up work
//!   from inside a job (e.g. a Monte-Carlo trial that itself steps a
//!   parallel engine) drains that work on its own thread instead of
//!   waiting for an occupied sibling.
//! * **Panic-safe.** A panicking job is caught, the pool survives, and
//!   the panic is re-raised in the submitting thread once the batch has
//!   settled — mirroring `thread::scope`'s join behaviour.
//! * **Scheduling-independent results.** The pool never influences
//!   simulation output: RNG streams attach to stream blocks
//!   ([`crate::STREAM_BLOCK`]) and trial indices, never to whichever
//!   worker happens to run a job.
//!
//! One process-wide pool ([`WorkerPool::global`]) serves
//! `Engine::step_round_parallel` and [`run_trials`] by default; tests and
//! embedders can build private pools with explicit sizes.
//!
//! [`run_trials`] fans independent Monte-Carlo trials out over the pool.
//! Every trial gets its own RNG stream derived from `(master seed, trial
//! index)`, so results are bit-identical regardless of the number of
//! workers. `threads` tasks claim trials in index order through a shared
//! atomic cursor, so a worker that finishes early takes the next trial
//! instead of idling behind a fixed chunk. Each result goes back to its
//! trial's slot.

use antdensity_stats::rng::SeedSequence;
use antdensity_telemetry as telemetry;
use rand::rngs::SmallRng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

// Pool telemetry: time from enqueue to execution start, and who ran
// each job — a dedicated worker or the submitting thread helping while
// it waits. Jobs carry their enqueue stamp only when telemetry was
// enabled at submission, so a disabled run pays one relaxed flag load
// per `run` batch and nothing per job.
static QUEUE_WAIT: telemetry::SpanMetric = telemetry::SpanMetric::new("pool.queue_wait");
static WORKER_JOBS: telemetry::LazyCounter = telemetry::LazyCounter::new("pool.jobs_worker");
static CALLER_JOBS: telemetry::LazyCounter = telemetry::LazyCounter::new("pool.jobs_caller_helped");

/// A type-erased task body queued for execution.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A queued unit of pool work: the batch latch it reports to, the
/// telemetry enqueue stamp (when enabled at submission), plus the task
/// body. Executed via [`execute_job`], which catches panics so
/// nothing unwinds into the worker loop (the panic is recorded and
/// re-raised in the submitter).
type Job = (Arc<RunState>, Option<Instant>, Task);

/// Runs one queued job: the task under `catch_unwind`, then the latch
/// decrement (panic recorded for the submitter to re-raise). Shared by
/// the worker loop (`from_worker`) and the caller-helps drain in
/// [`WorkerPool::run`].
fn execute_job((state, queued_at, task): Job, from_worker: bool) {
    if let Some(enqueued) = queued_at {
        let wait_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        QUEUE_WAIT.record_duration_ns(wait_ns);
        if from_worker {
            WORKER_JOBS.incr();
        } else {
            CALLER_JOBS.incr();
        }
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
        let mut slot = lock(&state.panic_payload);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    let mut rem = lock(&state.remaining);
    *rem -= 1;
    if *rem == 0 {
        state.all_done.notify_all();
    }
}

/// Lock, shrugging off poisoning: jobs catch panics themselves, so a
/// poisoned mutex only means some unrelated thread died mid-hold — the
/// protected data (a queue of jobs, a counter) is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
}

/// Completion latch for one [`WorkerPool::run`] batch.
struct RunState {
    remaining: Mutex<usize>,
    all_done: Condvar,
    /// First panic payload from this batch's tasks, resumed in the
    /// submitter once the batch settles (matching `thread::scope`,
    /// which the pool replaced — the original message survives).
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A fixed set of persistent worker threads executing borrowed jobs.
///
/// # Example
///
/// ```
/// use antdensity_engine::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut results = vec![0u64; 4];
/// let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
///     .iter_mut()
///     .enumerate()
///     .map(|(i, slot)| Box::new(move || *slot = (i as u64) * 10) as _)
///     .collect();
/// pool.run(tasks);
/// assert_eq!(results, vec![0, 10, 20, 30]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` persistent worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the OS refuses to spawn a thread.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "worker pool needs at least one thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("antdensity-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// The process-wide default pool, sized to the machine's available
    /// parallelism and created on first use. `Engine` and `run_trials`
    /// dispatch here unless given an explicit pool.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
    }

    /// Number of worker threads (the submitting thread helps too, so up
    /// to `threads + 1` jobs make progress during a [`Self::run`] call).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `tasks` on the pool and returns when all of them have
    /// finished — the drop-in replacement for spawning one scoped thread
    /// per task. Tasks may borrow from the caller's stack; the calling
    /// thread executes queued jobs itself while it waits.
    ///
    /// # Panics
    ///
    /// If any task panicked, the first panic's original payload is
    /// re-raised (after the whole batch settles) — the same observable
    /// behaviour as the `thread::scope` join this replaces.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let state = Arc::new(RunState {
            remaining: Mutex::new(tasks.len()),
            all_done: Condvar::new(),
            panic_payload: Mutex::new(None),
        });
        // One stamp for the whole batch (they enqueue under one lock
        // hold); `None` when telemetry is off keeps the per-job cost at
        // zero.
        let queued_at = telemetry::enabled().then(Instant::now);
        {
            let mut q = lock(&self.shared.queue);
            for task in tasks {
                // SAFETY: erasing 'env to 'static is sound because this
                // function does not return until `remaining` hits zero,
                // and execute_job decrements the counter only *after*
                // the task body has finished running (panics included,
                // via catch_unwind). Every job — queued here or stolen
                // by a helping caller — therefore completes before the
                // borrows it captures go out of scope.
                let task: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
                q.push_back((Arc::clone(&state), queued_at, task));
            }
            self.shared.job_ready.notify_all();
        }
        // Help drain the queue, then wait for stragglers running on
        // workers. Jobs popped here may belong to other concurrent
        // batches — executing them is still progress and is what makes
        // nested submission deadlock-free.
        loop {
            if *lock(&state.remaining) == 0 {
                break;
            }
            let job = lock(&self.shared.queue).pop_front();
            match job {
                Some(job) => execute_job(job, false),
                None => {
                    let mut rem = lock(&state.remaining);
                    while *rem != 0 {
                        rem = state
                            .all_done
                            .wait(rem)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    break;
                }
            }
        }
        let payload = lock(&state.panic_payload).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Publish the shutdown flag under the queue mutex: a worker that
        // just found the queue empty and read `shutdown == false` still
        // holds the lock until it enters `wait`, so storing under the
        // lock (and only then notifying) cannot race into that window —
        // the classic condvar lost-wakeup, which would leave Drop
        // blocked in join() forever.
        {
            let _q = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.job_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared
                    .job_ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // execute_job catches task panics; nothing unwinds here.
        execute_job(job, true);
    }
}

/// Runs `trials` independent trials of `f` split across `threads` units
/// of pool work.
///
/// `f(trial_index, rng)` receives a [`SmallRng`] seeded from
/// `seeds.derive(trial_index)`. The returned vector is ordered by trial
/// index and identical for any `threads ≥ 1` — the work units execute on
/// the global [`WorkerPool`] (plus the calling thread, which helps),
/// and the stream a trial consumes depends only on its index.
///
/// # Panics
///
/// Panics if `threads == 0` or a trial panics.
///
/// # Example
///
/// ```
/// use antdensity_stats::rng::SeedSequence;
/// use antdensity_engine::pool::run_trials;
/// use rand::Rng;
///
/// let seq = SeedSequence::new(7);
/// let sequential = run_trials(100, 1, seq, |_, rng| rng.gen::<u32>());
/// let parallel = run_trials(100, 4, seq, |_, rng| rng.gen::<u32>());
/// assert_eq!(sequential, parallel);
/// ```
pub fn run_trials<T, F>(trials: u64, threads: usize, seeds: SeedSequence, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut SmallRng) -> T + Sync,
{
    run_trials_on(WorkerPool::global(), trials, threads, seeds, f)
}

/// [`run_trials`] dispatching onto an explicit pool — for embedders that
/// isolate workloads and tests that pin a worker count. Results are
/// identical for every pool and every `threads` value. Trials start in
/// index order, so a caller that knows their costs puts the costly ones
/// first (the sweep runner orders each wave that way).
///
/// # Panics
///
/// Panics if `threads == 0` or a trial panics.
pub fn run_trials_on<T, F>(
    pool: &WorkerPool,
    trials: u64,
    threads: usize,
    seeds: SeedSequence,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut SmallRng) -> T + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if trials == 0 {
        return Vec::new();
    }
    let threads = threads.min(trials as usize);
    if threads == 1 {
        let mut out = Vec::with_capacity(trials as usize);
        for i in 0..trials {
            let mut rng = seeds.rng(i);
            out.push(f(i, &mut rng));
        }
        return out;
    }
    let cursor = AtomicU64::new(0);
    let (f_ref, cursor_ref) = (&f, &cursor);
    let mut claimed: Vec<Vec<(u64, T)>> = (0..threads).map(|_| Vec::new()).collect();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = claimed
        .iter_mut()
        .map(|slot| {
            Box::new(move || loop {
                let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let mut rng = seeds.rng(i);
                slot.push((i, f_ref(i, &mut rng)));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(tasks);
    let mut out: Vec<(u64, T)> = claimed.into_iter().flatten().collect();
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, result)| result).collect()
}

/// The machine's available parallelism (1 if the OS cannot say), probed
/// once: the query is a syscall costing ~10µs, too much to pay every
/// round. It sizes [`WorkerPool::global`], caps the workers of a parallel
/// `Engine` round on that pool, and is the default fan-out width of the
/// experiments and the `repro` CLI.
pub fn default_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_borrowed_tasks_to_completion() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 100];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i * i) as _)
            .collect();
        pool.run(tasks);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as _
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = WorkerPool::new(1);
        pool.run(Vec::new());
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        // A job submits a follow-up batch to the same pool; with a
        // single worker this only terminates because the occupied
        // thread drains its own submission.
        let pool = Arc::new(WorkerPool::new(1));
        let inner_ran = Arc::new(AtomicBool::new(false));
        let (p, flag) = (Arc::clone(&pool), Arc::clone(&inner_ran));
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(move || {
            let flag = Arc::clone(&flag);
            let inner: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(move || {
                flag.store(true, Ordering::Release);
            })];
            p.run(inner);
        })];
        pool.run(tasks);
        assert!(inner_ran.load(Ordering::Acquire));
    }

    #[test]
    fn panicking_task_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let boom: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| panic!("task exploded"))];
        let result = catch_unwind(AssertUnwindSafe(|| pool.run(boom)));
        // the ORIGINAL payload is resumed, not a generic wrapper
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task exploded"));
        // The pool still executes later batches.
        let ok = AtomicBool::new(false);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            ok.store(true, Ordering::Release);
        })];
        pool.run(tasks);
        assert!(ok.load(Ordering::Acquire));
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(WorkerPool::global().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = WorkerPool::new(0);
    }
}
