//! Unit tests of the trial fan-out ([`crate::pool::run_trials`]), under
//! the module path they had when the fan-out lived in its own crate.

mod tests {
    use crate::pool::{default_threads, run_trials, run_trials_on, WorkerPool};
    use antdensity_stats::rng::SeedSequence;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::sync::atomic::Ordering;

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
