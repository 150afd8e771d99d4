//! Cache-line padded cells and per-thread slots.
//!
//! Fine-grain parallel runtimes live and die by false sharing: a per-thread
//! counter that shares a cache line with its neighbor serializes the machine.
//! [`CachePadded`] aligns a value to a 128-byte boundary (two 64-byte lines,
//! covering adjacent-line prefetchers), and [`PerThread`] builds padded
//! per-thread slots on top of it.

use std::ops::{Deref, DerefMut};

/// Pads and aligns `T` to 128 bytes to avoid false sharing.
///
/// # Example
///
/// ```
/// use galois_runtime::padded::CachePadded;
/// use std::sync::atomic::AtomicU64;
///
/// let c = CachePadded::new(AtomicU64::new(7));
/// assert_eq!(c.load(std::sync::atomic::Ordering::Relaxed), 7);
/// assert!(std::mem::align_of::<CachePadded<AtomicU64>>() >= 128);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in padding.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// One padded slot per thread.
///
/// This is the runtime's standard shape for per-thread mutable state that is
/// occasionally reduced across threads (statistics, push buffers, committed
/// counts). Each slot lives on its own cache line(s).
///
/// # Example
///
/// ```
/// use galois_runtime::padded::PerThread;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let counts: PerThread<AtomicU64> = PerThread::new(4, |_| AtomicU64::new(0));
/// counts.get(2).fetch_add(5, Ordering::Relaxed);
/// let total: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
/// assert_eq!(total, 5);
/// ```
#[derive(Debug)]
pub struct PerThread<T> {
    slots: Box<[CachePadded<T>]>,
}

impl<T> PerThread<T> {
    /// Creates `threads` slots, initializing slot `i` with `init(i)`.
    pub fn new(threads: usize, init: impl FnMut(usize) -> T) -> Self {
        let mut init = init;
        let slots: Vec<_> = (0..threads).map(|i| CachePadded::new(init(i))).collect();
        PerThread {
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Shared access to thread `tid`'s slot.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn get(&self, tid: usize) -> &T {
        &self.slots[tid]
    }

    /// Exclusive access to thread `tid`'s slot.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn get_mut(&mut self, tid: usize) -> &mut T {
        &mut self.slots[tid]
    }

    /// Iterates over all slots (by shared reference).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.value)
    }

    /// Iterates over all slots (by exclusive reference).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| &mut s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_alignment() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
    }

    #[test]
    fn per_thread_slots_are_independent() {
        let mut pt: PerThread<u64> = PerThread::new(3, |i| i as u64);
        assert_eq!(*pt.get(0), 0);
        assert_eq!(*pt.get(2), 2);
        *pt.get_mut(1) = 42;
        let all: Vec<_> = pt.iter().copied().collect();
        assert_eq!(all, vec![0, 42, 2]);
    }

    #[test]
    fn cache_padded_into_inner_roundtrip() {
        let p = CachePadded::new(String::from("x"));
        assert_eq!(p.into_inner(), "x");
    }

    #[test]
    #[should_panic]
    fn out_of_range_tid_panics() {
        let pt: PerThread<u64> = PerThread::new(2, |_| 0);
        let _ = pt.get(2);
    }
}
