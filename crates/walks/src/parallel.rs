//! Deterministic parallel fan-out of independent Monte-Carlo trials.
//!
//! Every trial gets its own RNG stream derived from
//! `(master seed, trial index)`, so results are bit-identical regardless
//! of the number of workers. `threads` tasks on the process-global
//! persistent [`WorkerPool`] — no per-call thread spawns — claim trials
//! in index order through a shared atomic cursor, so a worker that
//! finishes early takes the next trial instead of idling behind a fixed
//! chunk. Each result goes back to its trial's slot.

use antdensity_engine::WorkerPool;
use antdensity_stats::rng::SeedSequence;
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};

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
/// use antdensity_walks::parallel::run_trials;
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

/// A sensible worker count for Monte-Carlo fan-out: the available
/// parallelism, capped so tiny jobs don't pay dispatch overhead.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_independent_of_thread_count() {
        let seq = SeedSequence::new(123);
        let work = |i: u64, rng: &mut SmallRng| -> (u64, f64) { (i, rng.gen::<f64>()) };
        let t1 = run_trials(53, 1, seq, work);
        let t3 = run_trials(53, 3, seq, work);
        let t8 = run_trials(53, 8, seq, work);
        assert_eq!(t1, t3);
        assert_eq!(t1, t8);
    }

    #[test]
    fn results_independent_of_pool_size() {
        let seq = SeedSequence::new(321);
        let work = |i: u64, rng: &mut SmallRng| -> (u64, u64) { (i, rng.gen::<u64>()) };
        let reference = run_trials(37, 1, seq, work);
        for pool_threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(pool_threads);
            assert_eq!(
                reference,
                run_trials_on(&pool, 37, 5, seq, work),
                "pool size {pool_threads}"
            );
        }
    }

    #[test]
    fn trial_indices_in_order() {
        let seq = SeedSequence::new(5);
        let out = run_trials(40, 7, seq, |i, _| i);
        assert_eq!(out, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn a_slow_trial_does_not_hold_back_the_rest() {
        // Trial 0 finishes only after trials 1..4 have: with fixed
        // chunks its worker would own trial 1 too and never get there.
        use std::sync::atomic::AtomicUsize;
        use std::time::{Duration, Instant};
        let pool = WorkerPool::new(2);
        let others_done = AtomicUsize::new(0);
        let out = run_trials_on(&pool, 4, 2, SeedSequence::new(3), |i, _| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(20);
                while others_done.load(Ordering::Acquire) < 3 {
                    assert!(Instant::now() < deadline, "trial 0 waited on its own chunk");
                    std::thread::yield_now();
                }
            } else {
                others_done.fetch_add(1, Ordering::Release);
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_trials_yield_empty() {
        let seq = SeedSequence::new(1);
        let out: Vec<u8> = run_trials(0, 4, seq, |_, _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let seq = SeedSequence::new(9);
        let out = run_trials(3, 64, seq, |i, _| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn streams_differ_across_trials() {
        let seq = SeedSequence::new(2);
        let out = run_trials(32, 4, seq, |_, rng| rng.gen::<u64>());
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.len());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let seq = SeedSequence::new(1);
        let _: Vec<u8> = run_trials(10, 0, seq, |_, _| 0u8);
    }

    #[test]
    #[should_panic(expected = "trial 5 fails")]
    fn trial_panic_propagates_with_original_message() {
        let seq = SeedSequence::new(1);
        let _: Vec<u8> = run_trials(8, 4, seq, |i, _| {
            assert!(i != 5, "trial 5 fails");
            0u8
        });
    }
}
