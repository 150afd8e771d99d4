//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind the `parking_lot` API surface this
//! workspace uses: non-poisoning [`Mutex::lock`], [`Mutex::try_lock`]
//! returning `Option`, [`Mutex::into_inner`] without a `Result`, and a
//! [`Condvar`] whose `wait` takes the guard by `&mut`. Poisoned locks are
//! recovered transparently (parking_lot has no poisoning at all).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync::TryLockError;

/// A mutual-exclusion lock with the `parking_lot` calling convention.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`] / [`Mutex::try_lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can move the std guard out and back while
    // the caller keeps holding `&mut MutexGuard`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Acquires the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard stolen during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard stolen during wait")
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's lock and blocks until notified; the
    /// lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard stolen during wait");
        guard.inner = Some(self.inner.wait(g).unwrap_or_else(|e| e.into_inner()));
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_try_lock_into_inner() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none(), "held lock must not be re-entered");
        }
        assert_eq!(*m.try_lock().expect("free lock"), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn condvar_handshake() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
