//! `Memo<K, V>`: compute a value once per key, share it by `Arc`, and
//! keep at most a bounded number of keys — the one cache abstraction
//! behind every level of the [`Engine`](crate::Engine).
//!
//! The map holds one slot per key, `Arc<OnceLock<Result<Arc<V>, _>>>`.
//! A call finds or inserts its key's slot under the memo's one lock,
//! then initializes the slot *outside* it, so the lock covers a hash
//! lookup or insert and nothing else. Concurrent callers on one key
//! block in `OnceLock::get_or_init` on the same slot: the first runs
//! `init`, the rest share its value (or its error). A failed `init`
//! removes its slot, so errors are not cached; an `init` that panics
//! leaves its slot empty, and the next caller on that key initializes
//! it. A slot evicted during `init` still serves the callers holding
//! it; later callers build the key again.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

use crate::pipeline::PipelineError;

/// Lock `m`, recovering the guard when a thread panicked while holding
/// it. Every critical section that uses this helper runs no caller code
/// and leaves its data valid at every step, so such a lock holds nothing
/// half-updated.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Slot<V> = Arc<OnceLock<Result<Arc<V>, PipelineError>>>;

/// The slots plus a monotone use-stamp per key. Lookups are O(1); the
/// eviction scan is O(n) over at most `cap` keys, which at the bounds
/// used here (tens to a few thousand) is cheaper than maintaining an
/// intrusive list.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, (Slot<V>, u64)>,
    tick: u64,
    cap: usize,
    evictions: u64,
}

/// A bounded, thread-safe memo table: see the module docs.
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    lru: Mutex<Lru<K, V>>,
    /// Lookups whose lock acquisition found the lock held.
    contended: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    /// A memo keeping at most `cap` keys (a zero bound is clamped to one).
    pub(crate) fn new(cap: usize) -> Memo<K, V> {
        Memo {
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                tick: 0,
                cap: cap.max(1),
                evictions: 0,
            }),
            contended: AtomicU64::new(0),
        }
    }

    /// Lock the slots for a lookup, counting an acquisition that finds
    /// the lock held.
    fn lock_counting(&self) -> MutexGuard<'_, Lru<K, V>> {
        match self.lru.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                lock(&self.lru)
            }
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }

    /// The value of `key`, running `init` to produce it when no earlier
    /// call did. Also returns whether *this* call ran `init`, so callers
    /// can count hits and misses exactly.
    pub(crate) fn get_or_try_init(
        &self,
        key: &K,
        init: impl FnOnce() -> Result<V, PipelineError>,
    ) -> (Result<Arc<V>, PipelineError>, bool) {
        let slot = {
            let mut lru = self.lock_counting();
            lru.tick += 1;
            let tick = lru.tick;
            match lru.map.get_mut(key) {
                Some((slot, stamp)) => {
                    *stamp = tick;
                    Arc::clone(slot)
                }
                None => {
                    // Every insert first makes room, so one eviction is enough.
                    if lru.map.len() >= lru.cap {
                        let oldest = lru.map.iter().min_by_key(|(_, (_, stamp))| *stamp);
                        if let Some(old) = oldest.map(|(k, _)| k.clone()) {
                            lru.map.remove(&old);
                            lru.evictions += 1;
                        }
                    }
                    let slot = Slot::default();
                    lru.map.insert(key.clone(), (Arc::clone(&slot), tick));
                    slot
                }
            }
        };
        let mut ran = false;
        let value = slot
            .get_or_init(|| {
                ran = true;
                init().map(Arc::new)
            })
            .clone();
        if ran && value.is_err() {
            let mut lru = lock(&self.lru);
            if lru.map.get(key).is_some_and(|(s, _)| Arc::ptr_eq(s, &slot)) {
                lru.map.remove(key);
            }
        }
        (value, ran)
    }

    /// Keys currently held (initialized or being initialized).
    pub(crate) fn len(&self) -> usize {
        lock(&self.lru).map.len()
    }

    /// Keys evicted to keep the bound.
    pub(crate) fn evictions(&self) -> u64 {
        lock(&self.lru).evictions
    }

    /// Lookups whose lock acquisition found the lock held.
    pub(crate) fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn ok(v: &'static str) -> impl FnOnce() -> Result<&'static str, PipelineError> {
        move || Ok(v)
    }

    #[test]
    fn racing_callers_on_one_key_run_init_once_and_share_one_arc() {
        let memo: Memo<u32, usize> = Memo::new(4);
        let runs = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let arcs: Vec<Arc<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let (v, _) = memo.get_or_try_init(&7, || {
                            std::thread::yield_now();
                            Ok(runs.fetch_add(1, Ordering::SeqCst))
                        });
                        v.unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "init ran exactly once");
        assert!(arcs.iter().all(|a| Arc::ptr_eq(a, &arcs[0])));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn failed_init_is_not_cached() {
        let memo: Memo<u32, &str> = Memo::new(4);
        let (v, ran) = memo.get_or_try_init(&1, || Err(PipelineError("boom".into())));
        assert_eq!((v.unwrap_err().0.as_str(), ran), ("boom", true));
        assert_eq!(memo.len(), 0, "the failed slot is removed");
        let (v, ran) = memo.get_or_try_init(&1, ok("one"));
        assert_eq!((*v.unwrap(), ran), ("one", true), "init runs again");
        let (v, ran) = memo.get_or_try_init(&1, ok("uno"));
        assert_eq!((*v.unwrap(), ran), ("one", false), "then it is a hit");
    }

    #[test]
    fn a_panicking_init_reaches_only_its_own_thread() {
        let memo: Memo<u32, &str> = Memo::new(4);
        // The barrier is inside `init`, so every waiter finds the slot
        // already being initialized. The assertions hold whether a
        // waiter parks before the panic or arrives after it; the pause
        // only makes parking the usual case.
        let barrier = Barrier::new(2);
        let (panicked, waiters) = std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                memo.get_or_try_init(&1, || {
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("init panicked")
                })
            });
            barrier.wait();
            let waiters: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| memo.get_or_try_init(&1, ok("one"))))
                .collect();
            let waiters: Vec<_> = waiters.into_iter().map(|h| h.join()).collect();
            (first.join().is_err(), waiters)
        });
        assert!(panicked, "the panic reaches the initializing thread");
        let mut ran = 0;
        for w in waiters {
            let (v, r) = w.expect("a waiter must not panic");
            assert_eq!(*v.unwrap(), "one");
            ran += usize::from(r);
        }
        assert_eq!(ran, 1, "one waiter initializes the slot");
        let (v, r) = memo.get_or_try_init(&1, ok("uno"));
        assert_eq!((*v.unwrap(), r), ("one", false));
    }

    #[test]
    fn memo_is_bounded_ordered_and_clamps_a_zero_bound() {
        let memo: Memo<u32, &str> = Memo::new(2);
        let (one, _) = memo.get_or_try_init(&1, ok("one"));
        memo.get_or_try_init(&2, ok("two")).0.unwrap();
        // Touch 1, so 2 is least recently used.
        let (again, ran) = memo.get_or_try_init(&1, ok("uno"));
        assert!(Arc::ptr_eq(&one.unwrap(), &again.unwrap()) && !ran);
        memo.get_or_try_init(&3, ok("three")).0.unwrap();
        assert_eq!((memo.len(), memo.evictions()), (2, 1), "the bound holds");
        assert!(
            !memo.get_or_try_init(&1, ok("one")).1,
            "the touched key survived"
        );
        assert!(!memo.get_or_try_init(&3, ok("three")).1);
        assert!(memo.get_or_try_init(&2, ok("two")).1, "the LRU key went");
        // A zero bound is clamped to one slot, never a stuck loop.
        let tiny: Memo<u32, &str> = Memo::new(0);
        tiny.get_or_try_init(&1, ok("a")).0.unwrap();
        tiny.get_or_try_init(&2, ok("b")).0.unwrap();
        assert_eq!((tiny.len(), tiny.evictions()), (1, 1));
    }
}
