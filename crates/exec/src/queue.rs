//! Per-worker task deques with cost-weighted work stealing.
//!
//! The paper's execution model assigns fragment subqueries to processing
//! elements *dynamically* to balance load (fragments differ in size and the
//! PEs in speed).  These deques mirror that: the scheduler deals each
//! admitted query's tasks to the workers in contiguous chunks of its seed
//! order (preserving the allocation order's locality), a worker pops work
//! from its own front, and — once empty — steals from the back of another
//! worker.
//!
//! Every task carries a **cost weight**.  With uniform weights (the
//! default) a steal targets the victim with the most queued tasks, exactly
//! the classic deque-length policy.  When the simulated I/O layer is active
//! the weights are each task's remaining simulated I/O, so under a skewed
//! workload a thief raids the worker that still owns the most *work*, not
//! merely the most *tasks* — the skew-resilience path of the stealing pool.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::sync::PoisonLock;

/// One worker's deque plus the total cost of its queued tasks.
#[derive(Debug)]
struct CostedDeque<T> {
    tasks: VecDeque<(T, u64)>,
    remaining_cost: u64,
}

/// The lock-per-worker deque set underneath the [`crate::scheduler`]'s
/// work-stealing pool (tasks arrive as queries are admitted).
///
/// Each worker owns one deque; owners pop from the front, thieves steal
/// from the back of the victim with the highest remaining cost.  `T` is
/// whatever the caller uses as a task.
#[derive(Debug)]
pub(crate) struct StealDeques<T> {
    deques: Vec<Mutex<CostedDeque<T>>>,
}

impl<T> StealDeques<T> {
    /// Creates one empty deque per worker.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a queue needs at least one worker");
        StealDeques {
            deques: (0..workers)
                .map(|_| {
                    Mutex::new(CostedDeque {
                        tasks: VecDeque::new(),
                        remaining_cost: 0,
                    })
                })
                .collect(),
        }
    }

    /// Number of workers the deque set was created for.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// The worker that position `position` of a `tasks`-task seed order is
    /// dealt to: balanced contiguous chunks (worker `w` owns the positions
    /// with `position * workers / tasks == w`), rotated by `first` so that
    /// consecutive small queries start on different workers.
    pub fn chunk_owner(&self, first: usize, position: usize, tasks: usize) -> usize {
        let workers = self.deques.len();
        (first + position * workers / tasks) % workers
    }

    /// Appends `task` with steal weight `cost` to the back of `worker`'s
    /// own deque.
    pub fn push(&self, worker: usize, task: T, cost: u64) {
        let mut deque = self.lock(worker);
        deque.remaining_cost = deque.remaining_cost.saturating_add(cost);
        deque.tasks.push_back((task, cost));
    }

    /// Pops the next task from `worker`'s own deque front.
    pub fn pop_own(&self, worker: usize) -> Option<T> {
        assert!(worker < self.deques.len(), "worker index out of range");
        let mut deque = self.lock(worker);
        let (task, cost) = deque.tasks.pop_front()?;
        deque.remaining_cost -= cost;
        Some(task)
    }

    /// Steals a task from the back of the other deque with the highest
    /// remaining cost, returning the task together with the victim's
    /// worker index (for steal-event attribution).
    ///
    /// Loads can change between snapshot and steal, so victims are re-checked
    /// under their lock in descending-cost order until one yields a task.
    pub fn steal(&self, worker: usize) -> Option<(T, usize)> {
        self.steal_within(worker, 0, self.deques.len())
    }

    /// [`StealDeques::steal`] restricted to victims in `lo..hi` — the
    /// node-local steal of the multi-node scheduler, where a worker raids
    /// its own node's deques before migrating work across the interconnect.
    pub fn steal_within(&self, worker: usize, lo: usize, hi: usize) -> Option<(T, usize)> {
        let mut victims: Vec<(u64, usize)> = (lo..hi.min(self.deques.len()))
            .filter(|&v| v != worker)
            .map(|v| (self.lock(v).remaining_cost, v))
            .filter(|&(cost, _)| cost > 0)
            .collect();
        victims.sort_unstable_by(|a, b| b.cmp(a));
        for (_, victim) in victims {
            let mut deque = self.lock(victim);
            if let Some((task, cost)) = deque.tasks.pop_back() {
                deque.remaining_cost -= cost;
                return Some((task, victim));
            }
        }
        None
    }

    /// Total number of unclaimed tasks across all deques.
    pub fn total_len(&self) -> usize {
        (0..self.deques.len())
            .map(|w| self.lock(w).tasks.len())
            .sum()
    }

    fn lock(&self, worker: usize) -> std::sync::MutexGuard<'_, CostedDeque<T>> {
        self.deques[worker].plock("worker deque")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Deals `order` in unit-cost chunks, as admission does.
    fn dealt(order: &[usize], workers: usize) -> StealDeques<usize> {
        let deques = StealDeques::new(workers);
        for (position, &task) in order.iter().enumerate() {
            deques.push(deques.chunk_owner(0, position, order.len()), task, 1);
        }
        deques
    }

    /// Drains `worker`'s own deque front to back.
    fn drain_own(deques: &StealDeques<usize>, worker: usize) -> Vec<usize> {
        std::iter::from_fn(|| deques.pop_own(worker)).collect()
    }

    /// Drains everything `worker` can claim: its own front, then steals.
    fn drain_all(deques: &StealDeques<usize>, worker: usize) -> Vec<usize> {
        std::iter::from_fn(|| {
            (deques.pop_own(worker)).or_else(|| deques.steal(worker).map(|(task, _)| task))
        })
        .collect()
    }

    #[test]
    fn chunks_are_contiguous_and_balanced() {
        let order: Vec<usize> = (0..10).collect();
        let deques = dealt(&order, 3);
        assert_eq!(deques.workers(), 3);
        assert_eq!(deques.total_len(), 10);
        assert_eq!(drain_own(&deques, 0), vec![0, 1, 2, 3]);
        assert_eq!(drain_own(&deques, 1), vec![4, 5, 6]);
        assert_eq!(drain_own(&deques, 2), vec![7, 8, 9]);
        // The rotation shifts whole chunks: a one-task query lands on the
        // cursor's worker.
        assert_eq!(deques.chunk_owner(2, 0, 1), 2);
        assert_eq!(deques.chunk_owner(1, 9, 10), 0);
    }

    #[test]
    fn seed_order_controls_initial_ownership() {
        // A reversed order deals worker 0 the *last* task indices.
        let deques = dealt(&[5, 4, 3, 2, 1, 0], 2);
        assert_eq!(drain_own(&deques, 0), vec![5, 4, 3]);
        // Every remaining task is still claimed exactly once.
        let mut rest = BTreeSet::new();
        while let Some((task, victim)) = deques.steal(0) {
            assert_eq!(victim, 1);
            assert!(rest.insert(task));
        }
        assert_eq!(rest, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn every_task_is_claimed_exactly_once() {
        let order: Vec<usize> = (0..25).collect();
        let deques = dealt(&order, 4);
        let mut seen = BTreeSet::new();
        // A single worker drains every deque: its own, then by stealing.
        for task in drain_all(&deques, 2) {
            assert!(seen.insert(task), "task {task} claimed twice");
        }
        assert_eq!(seen.len(), 25);
        assert_eq!(deques.total_len(), 0);
        assert_eq!(deques.steal(2), None);
    }

    #[test]
    fn steals_come_from_the_most_loaded_victim() {
        let order: Vec<usize> = (0..9).collect();
        let deques = dealt(&order, 3);
        // Drain worker 1's own chunk so its next claim must steal.
        assert_eq!(drain_own(&deques, 1), vec![3, 4, 5]);
        // Workers 0 and 2 both still hold 3 unit-cost tasks; a steal takes
        // from a back.
        let (task, victim) = deques.steal(1).expect("work left to steal");
        assert!((task, victim) == (2, 0) || (task, victim) == (8, 2));
    }

    #[test]
    fn steals_follow_remaining_cost_not_task_count() {
        // Worker 0 owns two tasks of cost 1; worker 1 owns one task of cost
        // 100.  A cost-aware thief must raid worker 1 despite its shorter
        // deque.
        let deques: StealDeques<usize> = StealDeques::new(3);
        deques.push(0, 10, 1);
        deques.push(0, 11, 1);
        deques.push(1, 20, 100);
        assert_eq!(deques.steal(2), Some((20, 1)));
        // With the expensive task gone, the thief falls back to the longer
        // deque.
        assert_eq!(deques.steal(2), Some((11, 0)));
        assert_eq!(deques.total_len(), 1);
    }

    #[test]
    fn range_restricted_steal_never_raids_outside_the_range() {
        // Worker 3's node owns workers 2..4; worker 0 (outside the range)
        // holds the most expensive task but must not be raided.
        let deques: StealDeques<usize> = StealDeques::new(4);
        deques.push(0, 10, 100);
        deques.push(2, 20, 1);
        assert_eq!(deques.steal_within(3, 2, 4), Some((20, 2)));
        // The range is now dry even though worker 0 still has work.
        assert_eq!(deques.steal_within(3, 2, 4), None);
        // The unrestricted steal (= full-range) still reaches it.
        assert_eq!(deques.steal(3), Some((10, 0)));
    }

    #[test]
    fn concurrent_drain_claims_every_task_once() {
        let tasks = 500;
        let workers = 4;
        let order: Vec<usize> = (0..tasks).collect();
        let deques = dealt(&order, workers);
        let claimed: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let deques = &deques;
                    scope.spawn(move || drain_all(deques, w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let all: BTreeSet<usize> = claimed.iter().flatten().copied().collect();
        let total: usize = claimed.iter().map(Vec::len).sum();
        assert_eq!(total, tasks, "tasks claimed more than once");
        assert_eq!(all.len(), tasks, "tasks lost");
    }

    #[test]
    fn empty_queue_and_single_worker() {
        let deques: StealDeques<usize> = StealDeques::new(2);
        assert_eq!(deques.pop_own(0), None);
        assert_eq!(deques.steal(0), None);
        let deques = dealt(&[0, 1, 2], 1);
        assert_eq!(deques.pop_own(0), Some(0));
        assert_eq!(deques.steal(0), None, "a lone worker has no victim");
        assert_eq!(deques.total_len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = StealDeques::<usize>::new(0);
    }
}
