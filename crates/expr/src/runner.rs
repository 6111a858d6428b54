//! A deterministic work-stealing job runner for the experiment harness.
//!
//! `repro all` fans ~30 exhibits — and the individual points inside
//! sweep-style exhibits — out across a small pool of worker threads. The
//! design constraints, in order:
//!
//! 1. **Determinism.** Results must be byte-identical to a serial run.
//!    The runner guarantees this structurally: jobs carry their own seeds
//!    (derived from the job *index*, never from execution order), results
//!    land in index-addressed slots, and nothing observable depends on
//!    which thread ran what when.
//! 2. **Nesting.** Exhibits spawn sweeps which spawn repeated runs. A
//!    scope waiting for its jobs *helps*: it executes queued work instead
//!    of blocking, so nested fan-out can never deadlock the pool and
//!    `jobs = 1` degenerates to a plain serial loop on the calling thread.
//! 3. **Work stealing.** Each worker owns a deque; jobs spawned from a
//!    worker go to its own deque (LIFO for locality), idle workers steal
//!    from the shared injector and then from peers (FIFO).
//!
//! The pool is addressed through a thread-local *current runner*
//! ([`Runner::install`]), inherited by worker threads, so deeply nested
//! library code ([`crate::figures::repeat_runs`], the sweep loops) finds
//! the pool without threading a handle through every signature. Telemetry
//! is propagated the same way: [`Scope::spawn`] captures the spawner's
//! effective pipeline and installs it around the job body, so per-exhibit
//! metrics stay attributed under parallel execution. The shared-run memo
//! of an enclosing `run_exhibits` call ([`crate::shared`]) rides along
//! with it.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send>;

struct PoolShared {
    /// Jobs injected from outside the pool (scope owners on non-worker
    /// threads). Drained FIFO.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker: owner pushes/pops the back (LIFO), thieves
    /// steal from the front (FIFO).
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep coordination: any push and any job completion notifies.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    /// Pop a job: own deque first (LIFO), then the injector, then steal
    /// from peers (FIFO). `me` is the calling worker's index, if any.
    ///
    /// Workers drain the injector FIFO (oldest top-level job first). A
    /// non-worker scope driver pops the injector LIFO instead: its own
    /// nested spawns are the newest entries, and preferring them keeps a
    /// nested scope from burrowing into *other* top-level jobs while its
    /// sub-jobs sit runnable behind them.
    fn pop(&self, me: Option<usize>) -> Option<Job> {
        if let Some(i) = me {
            if let Some(job) = self.locals[i].lock().expect("deque poisoned").pop_back() {
                return Some(job);
            }
        }
        let injected = {
            let mut injector = self.injector.lock().expect("injector poisoned");
            match me {
                Some(_) => injector.pop_front(),
                None => injector.pop_back(),
            }
        };
        if let Some(job) = injected {
            return Some(job);
        }
        let n = self.locals.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = self.locals[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                return Some(job);
            }
        }
        None
    }

    /// Make a job runnable and wake sleepers. Spawns from a worker thread
    /// of this pool go to that worker's own deque; everything else goes to
    /// the injector.
    fn push(&self, me: Option<usize>, job: Job) {
        match me {
            Some(i) => self.locals[i]
                .lock()
                .expect("deque poisoned")
                .push_back(job),
            None => self
                .injector
                .lock()
                .expect("injector poisoned")
                .push_back(job),
        }
        let _guard = self.sleep.lock().expect("sleep lock poisoned");
        self.wake.notify_all();
    }

    fn notify_all(&self) {
        let _guard = self.sleep.lock().expect("sleep lock poisoned");
        self.wake.notify_all();
    }
}

struct PoolInner {
    shared: Arc<PoolShared>,
    /// Total parallelism including the thread driving a scope.
    jobs: usize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for handle in self.workers.lock().expect("workers poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Handle to a job pool. Clones share the pool; dropping the last handle
/// shuts the workers down.
#[derive(Clone)]
pub struct Runner {
    inner: Arc<PoolInner>,
}

thread_local! {
    /// The worker identity of this thread: (pool it belongs to, index).
    static WORKER: std::cell::RefCell<Option<(Arc<PoolShared>, usize)>> =
        const { std::cell::RefCell::new(None) };
    /// The runner nested library code should fan out through.
    static CURRENT: std::cell::RefCell<Option<Runner>> = const { std::cell::RefCell::new(None) };
}

impl Runner {
    /// A pool with total parallelism `jobs` (clamped to at least 1).
    /// `jobs - 1` worker threads are spawned; the thread driving a scope
    /// contributes the remaining unit by helping, so `Runner::new(1)`
    /// spawns no threads at all and executes every job inline, in spawn
    /// order, on the calling thread.
    pub fn new(jobs: usize) -> Runner {
        let jobs = jobs.max(1);
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..jobs.saturating_sub(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let inner = Arc::new(PoolInner {
            shared: shared.clone(),
            jobs,
            workers: Mutex::new(Vec::new()),
        });
        let runner = Runner { inner };
        let mut handles = Vec::new();
        for index in 0..jobs.saturating_sub(1) {
            let shared = shared.clone();
            let for_current = runner.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("expr-worker-{index}"))
                    .spawn(move || worker_main(shared, index, for_current))
                    .expect("spawning worker thread"),
            );
        }
        *runner.inner.workers.lock().expect("workers poisoned") = handles;
        runner
    }

    /// A serial pool (`jobs = 1`).
    pub fn serial() -> Runner {
        Runner::new(1)
    }

    /// Total parallelism this pool was built with.
    pub fn jobs(&self) -> usize {
        self.inner.jobs
    }

    /// Run `f` with this runner installed as the thread's current runner
    /// (restoring the previous one afterwards), so nested library code
    /// picks it up through [`current`].
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        let _restore = RestoreCurrent(prev);
        f()
    }

    /// Execute jobs `0..n` and collect their results in index order. The
    /// result is identical for any pool size: seeding and output position
    /// depend only on the index.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        self.scope(|scope| {
            for (index, slot) in slots.iter_mut().enumerate() {
                let f = &f;
                scope.spawn(move || {
                    *slot = Some(f(index));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("job completed"))
            .collect()
    }

    /// Open a scope: `f` may spawn borrowing jobs; every spawned job is
    /// guaranteed to have finished when `scope` returns. While waiting,
    /// the calling thread executes queued jobs itself (help-first), so
    /// scopes nest freely and a 1-job pool is a serial loop. The first
    /// job panic (or a panic in `f`) is resumed on the caller.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            runner: self,
            state: state.clone(),
            _scope: PhantomData,
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help until every job spawned into this scope has completed —
        // even if `f` itself panicked, borrowed jobs must not outlive it.
        self.help_until(&state);
        if let Some(payload) = state.panic.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Execute queued jobs (any scope's — help-first scheduling) until
    /// `state` has no pending jobs left.
    fn help_until(&self, state: &ScopeState) {
        let shared = &self.inner.shared;
        let me = worker_index_on(shared);
        loop {
            if state.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            if let Some(job) = shared.pop(me) {
                job();
                continue;
            }
            // Nothing runnable: all remaining jobs of this scope are in
            // flight on other threads. Sleep until one completes.
            let guard = shared.sleep.lock().expect("sleep lock poisoned");
            if state.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            // Re-check the queues under the sleep lock: a push between our
            // failed pop and the lock acquisition must not be missed.
            drop(
                shared
                    .wake
                    .wait_timeout(guard, std::time::Duration::from_millis(50))
                    .expect("sleep lock poisoned"),
            );
        }
    }
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("jobs", &self.jobs())
            .finish()
    }
}

struct RestoreCurrent(Option<Runner>);

impl Drop for RestoreCurrent {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The thread's current runner: the innermost [`Runner::install`], which
/// worker threads inherit from their pool. Falls back to a process-wide
/// serial runner, so library code is deterministic and thread-free unless
/// a pool was explicitly installed.
pub fn current() -> Runner {
    if let Some(runner) = CURRENT.with(|c| c.borrow().clone()) {
        return runner;
    }
    static FALLBACK: OnceLock<Runner> = OnceLock::new();
    FALLBACK.get_or_init(Runner::serial).clone()
}

/// Fan `n` indexed points out across the [`current`] pool, collecting
/// results in index order. When the calling thread's telemetry pipeline
/// writes a real trace, the points run serially on the calling thread
/// instead — event interleaving from concurrent points would make the
/// trace JSONL depend on scheduling, breaking the byte-identical
/// guarantee between `--jobs 1` and `--jobs N`.
pub fn run_points<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if emptcp_telemetry::current().tracing_active() {
        return (0..n).map(f).collect();
    }
    current().run_indexed(n, f)
}

/// This thread's worker index, if it is a worker of `shared`'s pool.
fn worker_index_on(shared: &Arc<PoolShared>) -> Option<usize> {
    WORKER.with(|w| {
        w.borrow()
            .as_ref()
            .filter(|(pool, _)| Arc::ptr_eq(pool, shared))
            .map(|&(_, index)| index)
    })
}

fn worker_main(shared: Arc<PoolShared>, index: usize, runner: Runner) {
    WORKER.with(|w| *w.borrow_mut() = Some((shared.clone(), index)));
    // Nested fan-out from jobs running here goes back into this pool.
    runner.install(|| loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(job) = shared.pop(Some(index)) {
            job();
            continue;
        }
        let guard = shared.sleep.lock().expect("sleep lock poisoned");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        drop(
            shared
                .wake
                .wait_timeout(guard, std::time::Duration::from_millis(50))
                .expect("sleep lock poisoned"),
        );
    });
}

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn handle passed to the closure of [`Runner::scope`]. Jobs may
/// borrow from the enclosing environment (`'env`); the scope guarantees
/// they complete before `scope` returns.
pub struct Scope<'scope, 'env: 'scope> {
    runner: &'scope Runner,
    state: Arc<ScopeState>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Queue `f` for execution on the pool. The spawner's current
    /// telemetry pipeline and shared-run memo are captured here and
    /// re-installed around the job body, so metrics and traces stay
    /// attributed to the exhibit that spawned the work — and its runs
    /// stay shared within the call that asked for them — regardless of
    /// which thread runs it.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = self.state.clone();
        let shared = self.runner.inner.shared.clone();
        let telemetry = emptcp_telemetry::current();
        let memo = crate::shared::current_memo();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                crate::shared::with_memo(memo, || emptcp_telemetry::with_current(telemetry, f));
            }));
            if let Err(payload) = outcome {
                let mut slot = state.panic.lock().expect("panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.pending.fetch_sub(1, Ordering::AcqRel);
            shared.notify_all();
        });
        // A pool with no workers is a plain serial loop: run the job
        // right here, in spawn order, on the calling thread. This keeps
        // `jobs = 1` free of queue traffic and recursion through the
        // help loop, and makes per-job wall-clock timing exact.
        if self.runner.inner.shared.locals.is_empty() {
            job();
            return;
        }
        // SAFETY: the job borrows data living at least as long as 'scope.
        // `Runner::scope` does not return before `state.pending` reaches
        // zero — it helps/sleeps until every spawned job has run to
        // completion (including when the scope closure panics) — so the
        // borrow can never be observed after 'scope ends. This is the
        // same lifetime-erasure argument `std::thread::scope` relies on.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        let me = worker_index_on(&self.runner.inner.shared);
        self.runner.inner.shared.push(me, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_runner_runs_inline_in_order() {
        let runner = Runner::serial();
        let order = Mutex::new(Vec::new());
        runner.scope(|s| {
            for i in 0..8 {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_returns_in_index_order_any_pool_size() {
        for jobs in [1, 2, 4, 7] {
            let runner = Runner::new(jobs);
            let out = runner.run_indexed(20, |i| i * i);
            assert_eq!(
                out,
                (0..20).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let runner = Runner::new(3);
        let total = AtomicU64::new(0);
        let out = runner.run_indexed(6, |i| {
            // Fan out again from inside a job: the inner scope helps.
            let inner: u64 = current()
                .run_indexed(4, |j| (i * 10 + j) as u64)
                .iter()
                .sum();
            total.fetch_add(inner, Ordering::Relaxed);
            inner
        });
        let expect: Vec<u64> = (0..6u64)
            .map(|i| (0..4).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(out, expect);
        assert_eq!(total.load(Ordering::Relaxed), expect.iter().sum::<u64>());
    }

    #[test]
    fn workers_inherit_current_runner() {
        let runner = Runner::new(4);
        runner.install(|| {
            let sizes = current().run_indexed(8, |_| current().jobs());
            assert!(sizes.iter().all(|&j| j == 4), "{sizes:?}");
        });
    }

    #[test]
    fn panics_propagate_after_all_jobs_finish() {
        let runner = Runner::new(2);
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            runner.scope(|s| {
                for i in 0..6 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("job 3 exploded");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // The other five jobs still ran to completion before the panic
        // was resumed — borrows never dangle.
        assert_eq!(finished.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn telemetry_propagates_to_jobs() {
        use emptcp_telemetry::Telemetry;
        let runner = Runner::new(3);
        let telemetry = Telemetry::builder().build();
        emptcp_telemetry::with_current(telemetry.clone(), || {
            runner.run_indexed(10, |_| {
                emptcp_telemetry::current().with_metrics(|m| m.counter_add("jobs.ran", 1));
            });
        });
        assert_eq!(telemetry.metrics().unwrap().counter("jobs.ran"), 10);
    }

    #[test]
    fn parallel_matches_serial_for_seeded_work() {
        // The determinism contract in miniature: per-index seeds, index
        // slots, any pool size.
        let work = |i: usize| {
            let mut rng = emptcp_sim::SimRng::new(0xABCD ^ (i as u64 * 7919));
            (0..100)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let serial = Runner::new(1).run_indexed(16, work);
        let parallel = Runner::new(4).run_indexed(16, work);
        assert_eq!(serial, parallel);
    }
}
