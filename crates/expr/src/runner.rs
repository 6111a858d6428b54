//! The one way the experiment harness runs work in parallel: [`par_map`]
//! over indices, on as many threads as the calling thread's job count
//! ([`Runner::install`]; 1 when nothing is installed). Results land in
//! index order whatever thread ran what when, so work that derives its
//! seeds from the index is byte-identical for every job count: that is
//! the whole determinism argument of `repro --jobs N`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static JOBS: Cell<usize> = const { Cell::new(1) };
}

/// A job count for [`par_map`]: how many threads it may use.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    jobs: usize,
}

impl Runner {
    /// `jobs` threads (clamped to at least 1).
    pub fn new(jobs: usize) -> Runner {
        Runner { jobs: jobs.max(1) }
    }

    /// One job: every [`par_map`] is a plain loop on the calling thread.
    pub fn serial() -> Runner {
        Runner::new(1)
    }

    /// The job count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f` with this job count as the calling thread's, restoring the
    /// previous one afterwards (also on panic).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                JOBS.with(|jobs| jobs.set(self.0));
            }
        }
        let _restore = Restore(JOBS.with(|jobs| jobs.replace(self.jobs)));
        f()
    }
}

/// The calling thread's job count: what [`Runner::install`] installed, or
/// 1 when nothing is. It is 1 inside a [`par_map`] that spread over
/// threads, so a caller that spends it on threads of its own never nests
/// them.
pub fn jobs() -> usize {
    JOBS.with(Cell::get)
}

/// `f(0), …, f(n - 1)` in index order. Up to the job count of threads —
/// `std::thread::scope` threads and the calling thread — each take the
/// next index from one counter and write that index's slot; with one job
/// or one item it is a plain loop on the calling thread. Every `f` runs
/// with a job count of 1, so nothing nests. A panic in any `f` is resumed
/// on the caller once every other index has run.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = jobs().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // The counter publishes no data: each slot's mutex hands its result
    // over, and the scope joins every thread before the slots are read.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let result = f(i);
        *slots[i].lock().expect("no thread panics holding a slot") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        Runner::serial().install(work);
    });
    slots
        .into_iter()
        .map(|slot| {
            let slot = slot.into_inner().expect("no thread panics holding a slot");
            slot.expect("every index ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn one_job_runs_inline_in_order() {
        let (order, caller) = (Mutex::new(Vec::new()), std::thread::current().id());
        Runner::serial().install(|| {
            par_map(8, |i| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(i);
            })
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn results_come_back_in_index_order_for_any_job_count() {
        for jobs in [1, 2, 4, 7] {
            let out = Runner::new(jobs).install(|| par_map(20, |i| i * i));
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>(), "{jobs}");
        }
    }

    #[test]
    fn the_job_count_is_the_installed_one_and_one_inside_a_par_map() {
        assert_eq!(jobs(), 1);
        Runner::new(3).install(|| {
            assert_eq!(jobs(), 3);
            assert_eq!(par_map(4, |_| jobs()), [1; 4]);
            // One item runs inline, keeping the caller's count.
            assert_eq!(par_map(1, |_| jobs()), [3]);
        });
        assert_eq!(jobs(), 1);
    }

    #[test]
    fn panics_propagate_after_all_other_indices_ran() {
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Runner::new(2).install(|| {
                par_map(6, |i| {
                    assert_ne!(i, 3, "index 3 exploded");
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            })
        }));
        assert!(result.is_err());
        // The other five ran before the panic was resumed: no borrow
        // outlives the call.
        assert_eq!(finished.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn parallel_matches_serial_for_seeded_work() {
        // The determinism contract in miniature: per-index seeds, index
        // slots, any job count.
        let work = |i: usize| {
            let mut rng = emptcp_sim::SimRng::new(0xABCD ^ (i as u64 * 7919));
            (0..100).fold(0u64, |sum, _| sum.wrapping_add(rng.next_u64()))
        };
        let serial = Runner::new(1).install(|| par_map(16, work));
        assert_eq!(serial, Runner::new(4).install(|| par_map(16, work)));
    }
}
