//! Deadline-bounded read/write lock for the serve engines.
//!
//! [`DeadlineRwLock`] is the serve layer's replacement for the old
//! `Mutex<ResilientEngine>` + spin-poll `lock_engine` pair: readers
//! (GEN/HEALTH) share a shard leader's lock, writers
//! (UPSERT/REMOVE/LEARN/STATS, fault verbs, and a CHECK that recomputes
//! the shard) get it exclusively, and both acquisitions park
//! on a `Condvar` until granted or a caller-supplied deadline passes —
//! no core is burned while waiting.
//!
//! Writers have priority: once a writer is queued, new readers wait
//! behind it. Without this, a steady stream of pipelined CHECKs could
//! starve an UPSERT indefinitely; with it, the writer's wait is bounded
//! by the in-flight readers, and readers resume as soon as it leaves.
//! `std::sync::RwLock` is not used because it has no deadline-bounded
//! acquisition and leaves reader-vs-writer policy to the OS.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Who holds the lock right now.
#[derive(Debug, Default)]
struct State {
    /// Active shared readers.
    readers: usize,
    /// Whether a writer currently holds the lock.
    writer: bool,
    /// Writers parked in `write`; readers defer to them.
    writers_waiting: usize,
}

/// A reader/writer lock whose acquisitions park until granted or until
/// an absolute deadline passes (returning `None` — the serve layer turns
/// that into `err deadline`).
#[derive(Debug, Default)]
pub(crate) struct DeadlineRwLock<T> {
    state: Mutex<State>,
    /// Readers and writers both park here; state transitions are rare
    /// and cheap enough that one wait queue keeps the code simple.
    changed: Condvar,
    data: UnsafeCell<T>,
}

// SAFETY: the state machine guarantees the standard RwLock exclusion
// invariant — `&mut T` is only reachable through a `WriteGuard`, which
// exists only while `state.writer` is set and `state.readers == 0`, and
// `&T` only through `ReadGuard`s counted in `state.readers` while no
// writer is active. `T: Send` suffices for `Send`; `Sync` additionally
// needs `T: Send + Sync` because guards hand out `&T` across threads.
unsafe impl<T: Send> Send for DeadlineRwLock<T> {}
unsafe impl<T: Send + Sync> Sync for DeadlineRwLock<T> {}

impl<T> DeadlineRwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        DeadlineRwLock {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Locks the inner state mutex, riding through poisoning: a panic
    /// inside a `Condvar` wait or a guard drop never leaves the lock
    /// unusable (the engine behind it has its own poison handling).
    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Acquires a shared read guard, parking until granted or until
    /// `deadline`; `None` on deadline expiry.
    pub(crate) fn read(&self, deadline: Instant) -> Option<ReadGuard<'_, T>> {
        let mut state = self.state();
        while state.writer || state.writers_waiting > 0 {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timeout) = match self.changed.wait_timeout(state, deadline - now) {
                Ok((guard, timeout)) => (guard, timeout),
                Err(poisoned) => {
                    let (guard, timeout) = poisoned.into_inner();
                    (guard, timeout)
                }
            };
            state = next;
            if timeout.timed_out() && (state.writer || state.writers_waiting > 0) {
                return None;
            }
        }
        state.readers += 1;
        Some(ReadGuard { lock: self })
    }

    /// Acquires the exclusive write guard, parking until granted or
    /// until `deadline`; `None` on deadline expiry. Queued writers block
    /// new readers, so the wait is bounded by in-flight readers plus any
    /// earlier writers.
    pub(crate) fn write(&self, deadline: Instant) -> Option<WriteGuard<'_, T>> {
        let mut state = self.state();
        state.writers_waiting += 1;
        while state.writer || state.readers > 0 {
            let now = Instant::now();
            if now >= deadline {
                state.writers_waiting -= 1;
                // A reader may be parked solely because we were queued.
                self.changed.notify_all();
                return None;
            }
            let (next, timeout) = match self.changed.wait_timeout(state, deadline - now) {
                Ok((guard, timeout)) => (guard, timeout),
                Err(poisoned) => {
                    let (guard, timeout) = poisoned.into_inner();
                    (guard, timeout)
                }
            };
            state = next;
            if timeout.timed_out() && (state.writer || state.readers > 0) {
                state.writers_waiting -= 1;
                self.changed.notify_all();
                return None;
            }
        }
        state.writers_waiting -= 1;
        state.writer = true;
        Some(WriteGuard { lock: self })
    }
}

/// Shared access; releases (and wakes waiters) on drop, including
/// during a panic unwind — the engine's own catch_unwind layer decides
/// what a panic means, the lock just stays usable.
pub(crate) struct ReadGuard<'a, T> {
    lock: &'a DeadlineRwLock<T>,
}

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: constructed only while readers > 0 and no writer.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        let mut state = self.lock.state();
        state.readers -= 1;
        if state.readers == 0 {
            drop(state);
            self.lock.changed.notify_all();
        }
    }
}

/// Exclusive access; releases (and wakes waiters) on drop.
pub(crate) struct WriteGuard<'a, T> {
    lock: &'a DeadlineRwLock<T>,
}

impl<T> Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: constructed only while `writer` is set and readers == 0.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above; the guard is the unique access path.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        let mut state = self.lock.state();
        state.writer = false;
        drop(state);
        self.lock.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn soon(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn readers_share_and_writer_excludes() {
        let lock = DeadlineRwLock::new(7u32);
        let a = lock.read(soon(100)).expect("first reader");
        let b = lock.read(soon(100)).expect("second reader shares");
        assert_eq!((*a, *b), (7, 7));
        assert!(
            lock.write(soon(30)).is_none(),
            "writer times out behind readers"
        );
        drop(a);
        drop(b);
        let mut w = lock.write(soon(100)).expect("writer after readers leave");
        *w = 8;
        drop(w);
        assert_eq!(*lock.read(soon(100)).expect("reads again"), 8);
    }

    #[test]
    fn deadline_expiry_returns_none_without_burning_a_core() {
        let lock = Arc::new(DeadlineRwLock::new(0u32));
        let held = lock.write(soon(100)).expect("holds");
        let contender = Arc::clone(&lock);
        let t = std::thread::spawn(move || {
            let started = Instant::now();
            let got = contender.read(soon(50));
            (got.is_none(), started.elapsed())
        });
        let (timed_out, waited) = t.join().expect("joins");
        assert!(timed_out);
        assert!(
            waited >= Duration::from_millis(40),
            "parked rather than failing fast: {waited:?}"
        );
        drop(held);
    }

    #[test]
    fn queued_writer_blocks_new_readers_but_gets_through() {
        let lock = Arc::new(DeadlineRwLock::new(Vec::<u32>::new()));
        let reader = lock.read(soon(1000)).expect("reader in");
        let order = Arc::new(AtomicUsize::new(0));

        let wl = Arc::clone(&lock);
        let wo = Arc::clone(&order);
        let writer = std::thread::spawn(move || {
            let mut g = wl.write(soon(2000)).expect("writer eventually");
            g.push(1);
            wo.fetch_add(1, Ordering::SeqCst);
        });
        // Wait until the writer is queued, then prove a fresh reader
        // defers to it instead of barging past.
        loop {
            let queued = { lock.state().writers_waiting > 0 };
            if queued {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            lock.read(soon(30)).is_none(),
            "new reader defers to the queued writer"
        );
        drop(reader);
        writer.join().expect("writer joins");
        assert_eq!(order.load(Ordering::SeqCst), 1);
        let g = lock.read(soon(100)).expect("readers resume after writer");
        assert_eq!(*g, vec![1]);
    }

    #[test]
    fn many_concurrent_readers_one_writer_stays_consistent() {
        let lock = Arc::new(DeadlineRwLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let g = l.read(soon(2000)).expect("read");
                    let v = *g;
                    assert!(v <= 400, "torn or out-of-range value {v}");
                }
            }));
        }
        for _ in 0..2 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let mut g = l.write(soon(2000)).expect("write");
                    *g += 1;
                }
            }));
        }
        for h in handles {
            h.join().expect("joins");
        }
        assert_eq!(*lock.read(soon(100)).expect("final read"), 400);
    }
}
