//! Poison-propagating lock acquisition.
//!
//! Every lock in this crate is acquired through [`PoisonLock::plock`], which
//! names the lock in its poison panic instead of the anonymous
//! `.lock().unwrap()` `PoisonError` — when a worker thread dies holding a
//! guard, the next acquirer's panic says *which* shared structure is now
//! suspect.  `detlint`'s `lock-unwrap` rule rejects any bare `.lock()`
//! outside this module, so the discipline is mechanical, not conventional.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Extension trait: named, poison-propagating acquisition.
pub(crate) trait PoisonLock<T> {
    /// Acquires the lock, panicking with the lock's `what` name if a holder
    /// panicked (poisoned the lock) — the shared state may be inconsistent
    /// and no silent recovery is sound for bit-identical execution.
    fn plock(&self, what: &'static str) -> MutexGuard<'_, T>;

    /// Acquires the lock whether or not a holder panicked — only for the
    /// failure path that wakes a run's waiters after a panic, which must
    /// not panic itself.
    fn plock_after_panic(&self) -> MutexGuard<'_, T>;
}

impl<T> PoisonLock<T> for Mutex<T> {
    fn plock(&self, what: &'static str) -> MutexGuard<'_, T> {
        self.lock()
            .unwrap_or_else(|_| panic!("{what} lock poisoned: a thread panicked while holding it"))
    }

    fn plock_after_panic(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plock_acquires_normally() {
        let m = Mutex::new(41);
        *m.plock("test") += 1;
        assert_eq!(*m.plock("test"), 42);
    }

    #[test]
    fn plock_names_the_lock_on_poison() {
        let m = Mutex::new(0);
        let caught = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = m.plock("victim");
                panic!("holder dies");
            })
            .join()
        });
        assert!(caught.is_err());
        let panic = std::panic::catch_unwind(|| {
            let _guard = m.plock("victim");
        })
        .expect_err("poisoned lock must panic");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("victim lock poisoned"), "got: {msg}");
        // The failure path still gets in.
        assert_eq!(*m.plock_after_panic(), 0);
    }
}
