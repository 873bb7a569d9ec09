//! Offline shim for the [`parking_lot`](https://docs.rs/parking_lot) crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! this crate re-implements the small slice of the `parking_lot` API that the
//! workspace uses — `Mutex`, `RwLock` and `Condvar` with non-poisoning guards —
//! on top of `std::sync`. The semantics match `parking_lot` where the
//! workspace relies on them:
//!
//! * `lock()` / `read()` / `write()` return guards directly (no `Result`);
//!   poisoning is swallowed, as `parking_lot` has no poisoning.
//! * `try_lock()` / `try_read()` / `try_write()` return `Option` guards and
//!   never block.
//! * `Condvar::wait_until` takes a `&mut MutexGuard` and an [`Instant`]
//!   deadline and reports timeouts through [`WaitTimeoutResult`].
//! * `Condvar::notify_one` / `notify_all` with no thread parked return
//!   without a syscall.
//!
//! Swap this shim for the real crate by pointing the `parking_lot` entry of
//! `[workspace.dependencies]` back at crates.io; no source changes needed.
//!
//! # Lock-order analysis (`lock-order` feature)
//!
//! With the `lock-order` cargo feature the shim additionally instruments
//! every acquisition for deadlock analysis — see the `lock_order` module
//! (present only with the feature on). Locks gain
//! [`Mutex::named`] / [`RwLock::named`] constructors attaching a *site* (a
//! static name plus a documentation rank) so that held→acquiring order edges
//! and actual waits-for cycles are reported with real names. With the
//! feature **off** (the default) those constructors discard their arguments
//! at compile time and every `Mutex` / `RwLock` method is the plain
//! zero-overhead `std::sync` wrapper below — no atomics, no thread-locals, no
//! extra branches. [`Condvar`] carries one atomic either way: its count of
//! parked waiters, which lets a notify skip the syscall when nobody waits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "lock-order")]
pub mod lock_order;

#[cfg(feature = "lock-order")]
use lock_order::SiteSpec;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Casts a (possibly wide) reference to its thin address, used as the lock's
/// identity in the waits-for watchdog.
#[cfg(feature = "lock-order")]
fn thin_addr<T: ?Sized>(value: &T) -> usize {
    value as *const T as *const () as usize
}

/// A mutual-exclusion primitive, API-compatible with `parking_lot::Mutex`.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lock-order")]
    site: SiteSpec,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(feature = "lock-order")]
            site: SiteSpec::ANON,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Creates a mutex annotated with a lock-order *site*: a static `name`
    /// (e.g. `"core.cell.data"`) and a documentation `rank` (lower ranks are
    /// acquired first). With the `lock-order` feature off this is identical
    /// to [`Mutex::new`] and the annotation costs nothing.
    pub const fn named(name: &'static str, rank: u32, value: T) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = (name, rank);
        Mutex {
            #[cfg(feature = "lock-order")]
            site: SiteSpec {
                name,
                rank,
                group: false,
            },
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Like [`Mutex::named`], for *group* sites: several locks of this site
    /// may legitimately be held by one thread at once (e.g. sorted multi-key
    /// commit latching), so same-site nesting is not reported as a violation.
    pub const fn named_group(name: &'static str, rank: u32, value: T) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = (name, rank);
        Mutex {
            #[cfg(feature = "lock-order")]
            site: SiteSpec {
                name,
                rank,
                group: true,
            },
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn recover<'a>(
        guard: Result<
            std::sync::MutexGuard<'a, T>,
            std::sync::TryLockError<std::sync::MutexGuard<'a, T>>,
        >,
    ) -> Option<std::sync::MutexGuard<'a, T>> {
        match guard {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquires the mutex, blocking until it is available.
    ///
    /// Unlike `std`, poisoning is ignored: a panic while holding the lock does
    /// not prevent later acquisitions (matching `parking_lot`).
    // The feature-gated arm must `return`; the uninstrumented arm is the tail.
    #[allow(clippy::needless_return)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        {
            let ctx = lock_order::AcquireCtx::new(
                &self.site,
                thin_addr(self),
                lock_order::Mode::Exclusive,
            );
            let (inner, tracked) =
                lock_order::acquire_blocking(ctx, || Self::recover(self.inner.try_lock()));
            return MutexGuard {
                tracked,
                inner: Some(inner),
            };
        }
        #[cfg(not(feature = "lock-order"))]
        {
            let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            MutexGuard { inner: Some(guard) }
        }
    }

    /// Attempts to acquire the mutex without blocking; returns `None` if it
    /// is currently held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = Self::recover(self.inner.try_lock())?;
        Some(MutexGuard {
            #[cfg(feature = "lock-order")]
            tracked: lock_order::register_try_acquired(
                &self.site,
                thin_addr(self),
                lock_order::Mode::Exclusive,
            ),
            inner: Some(inner),
        })
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The guard internally stores an `Option` so that [`Condvar::wait_until`] can
/// temporarily take the underlying `std` guard without `unsafe`; it is always
/// `Some` outside of that method.
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    tracked: lock_order::HeldToken,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Deregister before the std guard (dropped after this body) unlocks,
        // so the watchdog never sees us as holder of an acquirable lock.
        self.tracked.release();
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A readers-writer lock, API-compatible with `parking_lot::RwLock`.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lock-order")]
    site: SiteSpec,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new readers-writer lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(feature = "lock-order")]
            site: SiteSpec::ANON,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Creates a lock annotated with a lock-order *site*; see [`Mutex::named`].
    pub const fn named(name: &'static str, rank: u32, value: T) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = (name, rank);
        RwLock {
            #[cfg(feature = "lock-order")]
            site: SiteSpec {
                name,
                rank,
                group: false,
            },
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Creates a *group*-site lock; see [`Mutex::named_group`].
    pub const fn named_group(name: &'static str, rank: u32, value: T) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = (name, rank);
        RwLock {
            #[cfg(feature = "lock-order")]
            site: SiteSpec {
                name,
                rank,
                group: true,
            },
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    fn recover_read<'a>(
        guard: Result<
            std::sync::RwLockReadGuard<'a, T>,
            std::sync::TryLockError<std::sync::RwLockReadGuard<'a, T>>,
        >,
    ) -> Option<std::sync::RwLockReadGuard<'a, T>> {
        match guard {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    fn recover_write<'a>(
        guard: Result<
            std::sync::RwLockWriteGuard<'a, T>,
            std::sync::TryLockError<std::sync::RwLockWriteGuard<'a, T>>,
        >,
    ) -> Option<std::sync::RwLockWriteGuard<'a, T>> {
        match guard {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquires a shared read lock, blocking until one is available.
    // The feature-gated arm must `return`; the uninstrumented arm is the tail.
    #[allow(clippy::needless_return)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        {
            let ctx =
                lock_order::AcquireCtx::new(&self.site, thin_addr(self), lock_order::Mode::Shared);
            let (inner, tracked) =
                lock_order::acquire_blocking(ctx, || Self::recover_read(self.inner.try_read()));
            return RwLockReadGuard { tracked, inner };
        }
        #[cfg(not(feature = "lock-order"))]
        {
            RwLockReadGuard {
                inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    /// Acquires the exclusive write lock, blocking until it is available.
    // The feature-gated arm must `return`; the uninstrumented arm is the tail.
    #[allow(clippy::needless_return)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        {
            let ctx = lock_order::AcquireCtx::new(
                &self.site,
                thin_addr(self),
                lock_order::Mode::Exclusive,
            );
            let (inner, tracked) =
                lock_order::acquire_blocking(ctx, || Self::recover_write(self.inner.try_write()));
            return RwLockWriteGuard { tracked, inner };
        }
        #[cfg(not(feature = "lock-order"))]
        {
            RwLockWriteGuard {
                inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    /// Attempts to acquire a shared read lock without blocking; returns
    /// `None` if a writer holds (or `std` reports contention on) the lock.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = Self::recover_read(self.inner.try_read())?;
        Some(RwLockReadGuard {
            #[cfg(feature = "lock-order")]
            tracked: lock_order::register_try_acquired(
                &self.site,
                thin_addr(self),
                lock_order::Mode::Shared,
            ),
            inner,
        })
    }

    /// Attempts to acquire the exclusive write lock without blocking;
    /// returns `None` if any reader or writer holds the lock.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = Self::recover_write(self.inner.try_write())?;
        Some(RwLockWriteGuard {
            #[cfg(feature = "lock-order")]
            tracked: lock_order::register_try_acquired(
                &self.site,
                thin_addr(self),
                lock_order::Mode::Exclusive,
            ),
            inner,
        })
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    tracked: lock_order::HeldToken,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.tracked.release();
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    tracked: lock_order::HeldToken,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.tracked.release();
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a [`Condvar`] wait with a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the deadline elapsed.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable, API-compatible with `parking_lot::Condvar`.
///
/// A notify with no thread parked returns without a syscall, as in
/// `parking_lot`: `std`'s futex condvar issues a `FUTEX_WAKE` on every
/// notify, waiter or not. `waiters` counts the threads inside
/// [`Condvar::wait`] / [`Condvar::wait_until`]. A waiter increments it while it
/// still holds its mutex, before the `std` wait releases that mutex, so a
/// notifier that changed the waited-for predicate under the same mutex always
/// sees the waiter counted. A predicate changed outside the waiter's mutex
/// could lose its wakeup here, as it can with `std`.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Wakes one thread blocked on this condition variable.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes every thread blocked on this condition variable.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }

    /// Blocks the current thread until notified, releasing `guard` while
    /// waiting and re-acquiring it before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // The mutex is released for the duration of the wait: suspend its
        // hold registration so the analyzers do not see a phantom holder.
        #[cfg(feature = "lock-order")]
        guard.tracked.suspend();
        let inner = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        #[cfg(feature = "lock-order")]
        guard.tracked.resume();
    }

    /// Blocks the current thread until notified or until `deadline`, releasing
    /// `guard` while waiting and re-acquiring it before returning.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "lock-order")]
        guard.tracked.suspend();
        let inner = guard.inner.take().expect("guard present");
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        #[cfg(feature = "lock-order")]
        guard.tracked.resume();
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn named_constructors_behave_like_new() {
        let m = Mutex::named("shim.test.mutex", 1, 7);
        assert_eq!(*m.lock(), 7);
        let g = Mutex::named_group("shim.test.mutex_group", 2, 8);
        assert_eq!(*g.lock(), 8);
        let l = RwLock::named("shim.test.rwlock", 3, 9);
        assert_eq!(*l.read(), 9);
        *l.write() = 10;
        assert_eq!(*l.read(), 10);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(5);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        let g = m.try_lock().expect("uncontended try_lock succeeds");
        assert_eq!(*g, 5);
    }

    #[test]
    fn try_read_and_try_write_follow_rw_semantics() {
        let l = RwLock::new(1);
        {
            let _r = l.read();
            // Readers share; writers are excluded.
            assert!(l.try_read().is_some());
            assert!(l.try_write().is_none());
        }
        {
            let _w = l.write();
            assert!(l.try_read().is_none());
            assert!(l.try_write().is_none());
        }
        *l.try_write().expect("uncontended try_write succeeds") = 2;
        assert_eq!(*l.try_read().expect("uncontended try_read succeeds"), 2);
    }

    #[test]
    fn try_lock_guard_releases_on_drop() {
        let m = Mutex::new(0);
        {
            let mut g = m.try_lock().expect("first try_lock");
            *g += 1;
        }
        assert_eq!(*m.try_lock().expect("second try_lock"), 1);
    }

    #[test]
    fn condvar_timeout_reports_timed_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                let res = cv.wait_until(&mut done, Instant::now() + Duration::from_secs(5));
                assert!(!res.timed_out(), "waiter should be notified, not time out");
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        handle.join().unwrap();
    }

    /// Lost-wakeup checks for the parked-waiter count: a notify skips the
    /// syscall only when no waiter is counted, so a miscounted waiter would
    /// sleep until its deadline.
    mod wakeups {
        use super::*;
        use std::sync::mpsc;

        const HANDOFFS: u64 = 10_000;

        /// Two threads pass a turn counter back and forth `HANDOFFS` times
        /// each, every hand-off through one shared condvar. With a deadline,
        /// a hand-off that times out is a lost wakeup; without one, a lost
        /// wakeup hangs, so the whole exchange runs under a watchdog (a hung
        /// thread is left detached and the test fails).
        fn ping_pong(deadline: Option<Duration>) {
            let shared = Arc::new((Mutex::new(0u64), Condvar::new()));
            let (done_tx, done_rx) = mpsc::channel();
            let handles: Vec<_> = (0..2u64)
                .map(|parity| {
                    let shared = Arc::clone(&shared);
                    let done_tx = done_tx.clone();
                    std::thread::spawn(move || {
                        let (m, cv) = &*shared;
                        let mut timeouts = 0u64;
                        for _ in 0..HANDOFFS {
                            let mut turn = m.lock();
                            while *turn % 2 != parity {
                                match deadline {
                                    Some(d) => {
                                        if cv.wait_until(&mut turn, Instant::now() + d).timed_out()
                                        {
                                            timeouts += 1;
                                        }
                                    }
                                    None => cv.wait(&mut turn),
                                }
                            }
                            *turn += 1;
                            drop(turn);
                            if parity == 0 {
                                cv.notify_one();
                            } else {
                                cv.notify_all();
                            }
                        }
                        done_tx.send(timeouts).expect("receiver alive");
                    })
                })
                .collect();
            for _ in 0..2 {
                let timeouts = done_rx
                    .recv_timeout(Duration::from_secs(120))
                    .expect("ping-pong hung: a wakeup was lost");
                assert_eq!(timeouts, 0, "a hand-off timed out: a wakeup was lost");
            }
            for handle in handles {
                handle.join().unwrap();
            }
            assert_eq!(*shared.0.lock(), 2 * HANDOFFS);
        }

        #[test]
        fn ping_pong_through_wait_loses_no_wakeup() {
            ping_pong(None);
        }

        #[test]
        fn ping_pong_through_wait_until_loses_no_wakeup() {
            ping_pong(Some(Duration::from_secs(10)));
        }

        #[test]
        fn notify_without_a_waiter_is_not_remembered() {
            let m = Mutex::new(());
            let cv = Condvar::new();
            cv.notify_all();
            cv.notify_one();
            let mut g = m.lock();
            let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(20));
            assert!(
                res.timed_out(),
                "an earlier notify must not wake a later wait"
            );
            assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        }

        #[test]
        fn notify_one_wakes_one_of_two_parked_waiters() {
            // (tokens handed out, waiters that consumed one)
            let shared = Arc::new((Mutex::new((0u32, 0u32)), Condvar::new()));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        let (m, cv) = &*shared;
                        let mut state = m.lock();
                        while state.0 == 0 {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            assert!(!cv.wait_until(&mut state, deadline).timed_out());
                        }
                        state.0 -= 1;
                        state.1 += 1;
                    })
                })
                .collect();
            let (m, cv) = &*shared;
            // A waiter is counted while it still holds the mutex, so once the
            // count reads 2 and the mutex is free, both are parked.
            let start = Instant::now();
            while cv.waiters.load(Ordering::SeqCst) < 2 {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "waiters not counted"
                );
                std::thread::yield_now();
            }
            m.lock().0 = 1;
            cv.notify_one();
            let start = Instant::now();
            while m.lock().1 == 0 {
                assert!(start.elapsed() < Duration::from_secs(5), "nobody woke");
                std::thread::yield_now();
            }
            // The other waiter re-checks its predicate on any spurious wakeup
            // and parks again: one token wakes exactly one waiter. Under the
            // mutex it is either parked or still counted.
            std::thread::sleep(Duration::from_millis(50));
            {
                let mut state = m.lock();
                assert_eq!(*state, (0, 1));
                assert_eq!(cv.waiters.load(Ordering::SeqCst), 1);
                state.0 = 1;
            }
            cv.notify_one();
            for handle in handles {
                handle.join().unwrap();
            }
            assert_eq!(*m.lock(), (0, 2));
        }
    }
}
