//! Intra-node synchronization primitives: a reusable sense-reversing
//! barrier and a contention-accounting mutex.
//!
//! These are the userspace primitives a PiP-based MPI implementation would
//! use inside a node (no futex round-trips on the fast path, no kernel
//! objects shared across process boundaries — everything lives in the shared
//! address space).
//!
//! Both build on `std::sync` and never poison: a guard taken from a lock
//! whose previous holder panicked is used as is
//! (`unwrap_or_else(PoisonError::into_inner)`), so a panicking rank cannot
//! wedge the ranks that survive it.  Every lock in this crate follows the
//! same rule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

/// A mutex that counts how often an acquisition found the lock already held.
///
/// The paper's multi-object argument is fundamentally about lock contention
/// on a single shared communication object (§3); this wrapper is the
/// measurement surface for it.  [`ContendedMutex::lock`] first attempts an
/// uncontended `try_lock`; only when that fails does it record one
/// contention event and fall back to a blocking acquire.  Re-acquisitions
/// performed internally by a condition variable after a wait are not
/// counted — the counter reports *arrival* contention, which is what the
/// mailbox sharding is meant to eliminate.
#[derive(Debug, Default)]
pub struct ContendedMutex<T> {
    inner: Mutex<T>,
    contended: AtomicUsize,
}

impl<T> ContendedMutex<T> {
    /// Wrap `value` with a zeroed contention counter.
    pub fn new(value: T) -> Self {
        Self {
            inner: Mutex::new(value),
            contended: AtomicUsize::new(0),
        }
    }

    /// Acquire the lock, counting one contention event if it was held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Number of acquisitions that found the lock held.
    pub fn contended(&self) -> usize {
        self.contended.load(Ordering::Relaxed)
    }
}

/// A reusable barrier for a fixed set of participants.
///
/// Unlike `std::sync::Barrier`, this barrier hands back the *generation*
/// number, which the collectives use to tag epoch-synchronized accesses to
/// exposed regions, and it can be cloned and stored inside per-task contexts.
#[derive(Debug, Clone)]
pub struct SenseBarrier {
    inner: Arc<BarrierInner>,
}

#[derive(Debug)]
struct BarrierInner {
    parties: usize,
    state: Mutex<BarrierState>,
    condvar: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl SenseBarrier {
    /// Create a barrier for `parties` participants.
    ///
    /// # Panics
    /// Panics if `parties == 0`.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one participant");
        Self {
            inner: Arc::new(BarrierInner {
                parties,
                state: Mutex::new(BarrierState {
                    arrived: 0,
                    generation: 0,
                }),
                condvar: Condvar::new(),
            }),
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.inner.parties
    }

    /// Block until all participants have arrived.  Returns the generation
    /// that was completed (starting at 0 for the first barrier episode).
    pub fn wait(&self) -> u64 {
        let mut state = self.state();
        let generation = state.generation;
        state.arrived += 1;
        if state.arrived == self.inner.parties {
            state.arrived = 0;
            state.generation += 1;
            self.inner.condvar.notify_all();
            return generation;
        }
        while state.generation == generation {
            state = self
                .inner
                .condvar
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        generation
    }

    /// The number of completed barrier episodes so far.
    pub fn completed_generations(&self) -> u64 {
        self.state().generation
    }

    fn state(&self) -> MutexGuard<'_, BarrierState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn contended_mutex_counts_only_contended_acquisitions() {
        let lock = ContendedMutex::new(0u64);
        for _ in 0..10 {
            *lock.lock() += 1;
        }
        assert_eq!(lock.contended(), 0, "uncontended locking must not count");
        assert_eq!(*lock.lock(), 10);

        let lock = Arc::new(ContendedMutex::new(0u64));
        thread::scope(|scope| {
            let held = lock.lock();
            let contender = Arc::clone(&lock);
            scope.spawn(move || {
                *contender.lock() += 1;
            });
            // Give the contender time to hit the held lock.
            thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
        });
        assert_eq!(lock.contended(), 1, "the blocked acquire must be counted");
    }

    #[test]
    fn contended_mutex_survives_a_panicking_holder() {
        let lock = Arc::new(ContendedMutex::new(7u64));
        let holder = Arc::clone(&lock);
        let panicked = thread::spawn(move || {
            let _guard = holder.lock();
            panic!("rank dies holding the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(*lock.lock(), 7, "the survivor still gets the value");
        assert_eq!(lock.contended(), 0);
    }

    #[test]
    fn barrier_synchronizes_all_threads() {
        let parties = 8;
        let barrier = SenseBarrier::new(parties);
        let arrivals = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..parties {
                let barrier = barrier.clone();
                let arrivals = &arrivals;
                scope.spawn(move || {
                    arrivals.fetch_add(1, Ordering::Relaxed);
                    barrier.wait();
                    // After the barrier every arrival must be visible.
                    assert_eq!(arrivals.load(Ordering::Relaxed), parties);
                });
            }
        });
        assert_eq!(barrier.completed_generations(), 1);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let parties = 4;
        let rounds = 25;
        let barrier = SenseBarrier::new(parties);
        thread::scope(|scope| {
            for _ in 0..parties {
                let barrier = barrier.clone();
                scope.spawn(move || {
                    for round in 0..rounds {
                        let generation = barrier.wait();
                        assert_eq!(generation, round);
                    }
                });
            }
        });
        assert_eq!(barrier.completed_generations(), rounds);
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let barrier = SenseBarrier::new(1);
        for round in 0..10 {
            assert_eq!(barrier.wait(), round);
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_party_barrier_panics() {
        let _ = SenseBarrier::new(0);
    }
}
