//! Atomic label arrays.
//!
//! Per-node algorithm state (BFS distances, MIS membership, preflow heights)
//! lives in shared arrays. Under the Galois executors the abstract-lock
//! protocol already serializes access, so plain relaxed loads/stores suffice;
//! the handwritten deterministic variants additionally use the CAS-based
//! *priority write* (`write_min`) of the PBBS style.

use std::sync::atomic::{AtomicU32, Ordering};

/// A shared array of `u32` labels with atomic access.
///
/// # Example
///
/// ```
/// use galois_graph::AtomicArray;
///
/// let a = AtomicArray::new_filled(4, u32::MAX);
/// a.set(2, 7);
/// assert_eq!(a.get(2), 7);
/// assert!(a.write_min(2, 3), "3 < 7 wins");
/// assert!(!a.write_min(2, 5), "5 > 3 loses");
/// ```
pub struct AtomicArray {
    data: Box<[AtomicU32]>,
}

impl std::fmt::Debug for AtomicArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicArray")
            .field("len", &self.data.len())
            .finish()
    }
}

impl AtomicArray {
    /// Creates `len` labels, all `fill`.
    pub fn new_filled(len: usize, fill: u32) -> Self {
        let data: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(fill)).collect();
        AtomicArray {
            data: data.into_boxed_slice(),
        }
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads label `i` (relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Writes label `i` (relaxed). Safe under an abstract lock covering `i`.
    #[inline]
    pub fn set(&self, i: usize, v: u32) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Atomically lowers label `i` to `v` if `v` is smaller (priority write).
    ///
    /// Returns whether `v` won. The final value after concurrent `write_min`
    /// calls is the minimum of all proposals — the order-insensitive
    /// primitive behind PBBS-style deterministic algorithms.
    #[inline]
    pub fn write_min(&self, i: usize, v: u32) -> bool {
        let slot = &self.data[i];
        let mut cur = slot.load(Ordering::Relaxed);
        while v < cur {
            match slot.compare_exchange_weak(cur, v, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }

    /// Atomic compare-and-set, for handwritten variants.
    #[inline]
    pub fn cas(&self, i: usize, expect: u32, v: u32) -> bool {
        self.data[i]
            .compare_exchange(expect, v, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Copies the labels out (diagnostic / output hashing).
    pub fn snapshot(&self) -> Vec<u32> {
        self.data
            .iter()
            .map(|x| x.load(Ordering::Relaxed))
            .collect()
    }

    /// Resets all labels to `fill`.
    pub fn fill(&self, fill: u32) {
        for x in self.data.iter() {
            x.store(fill, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_min_settles_on_minimum_any_order() {
        for perm in [[5u32, 3, 9], [9, 5, 3], [3, 9, 5]] {
            let a = AtomicArray::new_filled(1, u32::MAX);
            for v in perm {
                a.write_min(0, v);
            }
            assert_eq!(a.get(0), 3);
        }
    }

    #[test]
    fn cas_semantics() {
        let a = AtomicArray::new_filled(1, 10);
        assert!(!a.cas(0, 11, 20));
        assert!(a.cas(0, 10, 20));
        assert_eq!(a.get(0), 20);
    }

    #[test]
    fn snapshot_and_fill() {
        let a = AtomicArray::new_filled(3, 1);
        a.set(1, 5);
        assert_eq!(a.snapshot(), vec![1, 5, 1]);
        a.fill(0);
        assert_eq!(a.snapshot(), vec![0, 0, 0]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }
}
