//! Poison-recovering lock acquisition for the engine's evictable caches.
//!
//! Every `Mutex`/`RwLock` in this crate guards *memoised, recomputable*
//! state: the answer memo, unfolder arenas, eviction
//! bookkeeping. A panic inside a critical section can at
//! worst leave such state partially updated at an operation boundary — a
//! `HashMap` insert or `Vec` push that never happened — which is
//! indistinguishable from an eviction sweep having dropped the entry. By the
//! same observational-invisibility argument that makes eviction safe, a
//! poisoned guard can simply be taken over: a missing or stale-but-complete
//! entry costs recomputation, never a wrong verdict.
//!
//! Before this module, the crate held ~73 `.lock().expect(...)` sites, so
//! one panicking query (injected or real) poisoned a lock and wedged every
//! subsequent query touching the same cache with a secondary panic. All of
//! them now route through these helpers and keep serving.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquire a mutex, recovering the guard if a previous holder panicked.
pub fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a read guard, recovering if a previous writer panicked.
pub fn read_or_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a write guard, recovering if a previous holder panicked.
pub fn write_or_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_mutex_recovers_with_state_intact() {
        let shared = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(shared.lock().is_err(), "the lock really is poisoned");
        assert_eq!(*lock_or_recover(&shared), 7);
        *lock_or_recover(&shared) += 1;
        assert_eq!(*lock_or_recover(&shared), 8);
    }

    #[test]
    fn poisoned_rwlock_recovers_for_readers_and_writers() {
        let shared = Arc::new(RwLock::new(vec![1, 2, 3]));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.write().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(read_or_recover(&shared).len(), 3);
        write_or_recover(&shared).push(4);
        assert_eq!(read_or_recover(&shared).len(), 4);
    }
}
