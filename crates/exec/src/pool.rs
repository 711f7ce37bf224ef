//! The engine's persistent worker pool.
//!
//! [`WorkerPool::run`] executes one [`Job`] on `workers` workers: the
//! calling thread works as worker 0 and `workers − 1` tickets are posted for
//! long-lived helper threads parked on a condvar, so a run never pays a
//! thread spawn.  Concurrent runs share the helpers.  A ticket no helper
//! picked up before its run ended is withdrawn, and a helper that reaches a
//! run late finds nothing left to do — so a [`Job`] must let *any* subset of
//! its workers, worker 0 alone included, drain it, and no run waits on
//! another.  A panicking share is caught, the job [`Job::abort`]ed, and the
//! payload re-raised on the caller; helpers survive.  The pool's one lock,
//! `board`, is a leaf: never held while a job runs.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use crate::sync::PoisonLock;

/// Work that any subset of `0..workers` workers can complete together.
pub(crate) trait Job: Send + Sync + 'static {
    /// Runs worker `worker`'s share; returns once the job needs no more
    /// work from it.
    fn work(&self, worker: usize);

    /// Called after a share panicked: every other share must return soon
    /// without waiting for work the panicked share will never finish.
    fn abort(&self);
}

/// A helper's claim on one worker index of one run.
struct Ticket {
    run: u64,
    worker: usize,
    job: Arc<dyn Job>,
}

/// Everything the pool's lock guards.
#[derive(Default)]
struct Board {
    tickets: VecDeque<Ticket>,
    next_run: u64,
    /// The first panic payload a helper raised in each failed run.
    panics: Vec<(u64, Box<dyn Any + Send>)>,
    /// Helpers spawned or being spawned (`helpers` lags while they are).
    spawned: usize,
    helpers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

#[derive(Default)]
struct PoolShared {
    board: Mutex<Board>,
    /// Signalled when tickets are posted or the pool shuts down.
    wake: Condvar,
    /// Signalled when a helper leaves a run.
    done: Condvar,
}

impl PoolShared {
    fn lock_board(&self) -> MutexGuard<'_, Board> {
        self.board.plock("worker pool board")
    }
}

/// Persistent helper threads that execute [`Job`]s next to their caller.
#[derive(Default)]
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("helpers", &self.shared.lock_board().spawned)
            .finish()
    }
}

impl WorkerPool {
    /// Runs `job` on `workers` workers and hands it back once every share
    /// has returned and no helper holds it any more.  One worker runs
    /// inline on the calling thread; more borrow helpers, spawning any the
    /// pool still lacks.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any share, after every helper has left
    /// the run.
    pub(crate) fn run<J: Job>(&self, workers: usize, job: J) -> J {
        if workers <= 1 {
            job.work(0);
            return job;
        }
        self.grow(workers - 1);
        let mut job = Arc::new(job);
        let run = {
            let mut board = self.shared.lock_board();
            let run = board.next_run;
            board.next_run += 1;
            board.tickets.extend((1..workers).map(|worker| Ticket {
                run,
                worker,
                job: Arc::clone(&job) as Arc<dyn Job>,
            }));
            run
        };
        for _ in 1..workers {
            self.shared.wake.notify_one();
        }
        let own = panic::catch_unwind(AssertUnwindSafe(|| job.work(0)));
        if own.is_err() {
            job.abort();
        }
        let mut board = self.shared.lock_board();
        board.tickets.retain(|ticket| ticket.run != run);
        // Every clone left is a helper inside the job; each lets go of it
        // before it takes the lock to signal `done`.
        let job = loop {
            match Arc::try_unwrap(job) {
                Ok(job) => break job,
                Err(shared) => job = shared,
            }
            board = self
                .shared
                .done
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        };
        let helper_panic = board
            .panics
            .iter()
            .position(|(failed, _)| *failed == run)
            .map(|at| board.panics.swap_remove(at).1);
        drop(board);
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
        job
    }

    /// Spawns helpers until the pool holds at least `helpers`.
    fn grow(&self, helpers: usize) {
        let missing = {
            let mut board = self.shared.lock_board();
            let missing = helpers.saturating_sub(board.spawned);
            board.spawned += missing;
            missing
        };
        for _ in 0..missing {
            let shared = Arc::clone(&self.shared);
            let helper = thread::spawn(move || helper_loop(&shared));
            self.shared.lock_board().helpers.push(helper);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let helpers = {
            let mut board = self.shared.lock_board();
            board.shutdown = true;
            std::mem::take(&mut board.helpers)
        };
        self.shared.wake.notify_all();
        for helper in helpers {
            // Helpers catch every job panic, so a join error is impossible
            // and there is nothing left to report during drop anyway.
            let _ = helper.join();
        }
    }
}

/// A helper's life: take a ticket, work that share, report back, park.
fn helper_loop(shared: &PoolShared) {
    let mut board = shared.lock_board();
    loop {
        if board.shutdown {
            return;
        }
        let Some(Ticket { run, worker, job }) = board.tickets.pop_front() else {
            board = shared
                .wake
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(board);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| job.work(worker)));
        if outcome.is_err() {
            job.abort();
        }
        drop(job);
        board = shared.lock_board();
        if let Err(payload) = outcome {
            if !board.panics.iter().any(|(failed, _)| *failed == run) {
                board.panics.push((run, payload));
            }
        }
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Counts shares; panics in `panic_in`'s share.
    #[derive(Default)]
    struct Counter {
        shares: AtomicUsize,
        panic_in: Option<usize>,
        aborted: AtomicBool,
    }

    impl Job for Counter {
        fn work(&self, worker: usize) {
            self.shares.fetch_add(1, Ordering::SeqCst);
            assert_ne!(self.panic_in, Some(worker), "share {worker} failed");
        }

        fn abort(&self) {
            self.aborted.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn helpers_persist_and_a_panicking_share_is_re_raised() {
        let pool = WorkerPool::default();
        let inline = pool.run(1, Counter::default());
        assert_eq!(inline.shares.load(Ordering::SeqCst), 1);
        assert_eq!(
            pool.shared.lock_board().spawned,
            0,
            "one worker runs inline"
        );

        let failing = Counter {
            panic_in: Some(0),
            ..Counter::default()
        };
        let caught = panic::catch_unwind(AssertUnwindSafe(|| pool.run(2, failing)));
        assert!(caught.is_err());

        for _ in 0..50 {
            // The caller always works; helpers that came late were
            // withdrawn.
            let job = pool.run(3, Counter::default());
            assert!((1..=3).contains(&job.shares.load(Ordering::SeqCst)));
            assert!(!job.aborted.load(Ordering::SeqCst));
        }
        pool.run(2, Counter::default());
        assert_eq!(pool.shared.lock_board().spawned, 2, "the pool only grows");
    }
}
