//! A scoped parallel map on `std::thread::scope`.
//!
//! The figure sweeps and the differential corpus fan independent
//! simulations (one per node-count × configuration point, one per case
//! seed) across cores. [`par_map`] spawns its workers for one call and
//! joins them before returning; workers pull the next job index from one
//! shared cursor, so a few heavy jobs among light ones still balance.
//! Results come back in input order, so parallelism never perturbs
//! experiment output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Run `jobs` on `threads` scoped workers (`0` = one per hardware
/// thread) and return their results **in input order**.
///
/// # Panics
/// A panicking job does not stop the others: every job runs, then the
/// panic of the lowest-index panicking job is re-raised here as
/// `job {i} panicked: {msg}`.
pub fn par_map<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    };
    let cursor = Mutex::new(jobs.into_iter().enumerate());
    let next = || cursor.lock().expect("par_map cursor poisoned").next();
    let mut done: Vec<(usize, std::thread::Result<T>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                s.spawn(|| {
                    let run = |(i, job): (usize, F)| (i, catch_unwind(AssertUnwindSafe(job)));
                    std::iter::from_fn(&next).map(run).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("par_map worker exited early")).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    let unwrap = |(i, out): (usize, std::thread::Result<T>)| {
        out.unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("job {i} panicked: {msg}")
        })
    };
    done.into_iter().map(unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order() {
        let jobs: Vec<_> = (0..64).map(|i| move || i * i).collect();
        assert_eq!(par_map(4, jobs), (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn executes_all_jobs() {
        // The jobs borrow the caller's counter: no `'static` needed.
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        par_map(3, jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Job 0 holds its worker until every other job has finished: with
        // one shared cursor the second worker takes all 31 of them, where
        // a static split would leave half queued behind job 0.
        let (tx, rx) = std::sync::mpsc::channel();
        let done = AtomicUsize::new(0);
        let mut jobs: Vec<Box<dyn FnOnce() -> bool + Send + '_>> =
            vec![Box::new(move || rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok())];
        for _ in 1..32 {
            jobs.push(Box::new(|| {
                if done.fetch_add(1, Ordering::SeqCst) == 30 {
                    // Job 0 may have timed out already; its result reports it.
                    tx.send(()).ok();
                }
                true
            }));
        }
        assert!(par_map(2, jobs)[0], "light jobs waited behind the heavy one");
    }

    #[test]
    fn single_thread_pool_works() {
        assert_eq!(par_map(1, vec![|| 1, || 2]), vec![1, 2]);
        // 0 means one worker per hardware thread.
        assert_eq!(par_map(0, vec![|| 1, || 2, || 3]), vec![1, 2, 3]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn nested_map_from_worker_results() {
        // Each job runs a map of its own: workers are per call, so a
        // nested map never waits on its caller's workers.
        let jobs: Vec<_> = (0..4)
            .map(|i| move || par_map(2, (0..3).map(|j| move || i * 10 + j).collect()))
            .collect();
        let out = par_map(2, jobs);
        assert_eq!(out[3], vec![30, 31, 32]);
        assert_eq!(out.concat().len(), 12);
    }

    #[test]
    fn empty_map() {
        let out: Vec<i32> = par_map(2, Vec::<fn() -> i32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn map_resurfaces_job_panic_with_index() {
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom in job")), Box::new(|| 3)];
        let err = catch_unwind(AssertUnwindSafe(|| par_map(2, jobs))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("job 1 panicked"), "{msg}");
        assert!(msg.contains("boom in job"), "{msg}");
    }

    #[test]
    fn workers_survive_panicking_jobs() {
        // A panicking job must not kill its worker: with one worker, the
        // jobs after the panicking one only run if it survived.
        let ran = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(|| panic!("first job panics")),
            Box::new(|| {
                ran.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(|| {
                ran.fetch_add(1, Ordering::SeqCst);
            }),
        ];
        assert!(catch_unwind(AssertUnwindSafe(|| par_map(1, jobs))).is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn lowest_index_panic_wins() {
        let ran = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                let ran = &ran;
                move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i >= 2 {
                        panic!("job {i} failed");
                    }
                    i
                }
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| par_map(4, jobs))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("job 2 panicked"), "{msg}");
        assert_eq!(ran.load(Ordering::SeqCst), 8, "every job runs before the re-raise");
    }
}
