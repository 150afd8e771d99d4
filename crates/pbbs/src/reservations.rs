//! Per-resource reservation slots.

use crate::priority::write_min;
use std::sync::atomic::{AtomicU64, Ordering};

/// The value of an unreserved slot.
pub const FREE: u64 = u64::MAX;

/// An array of reservation slots, one per contended resource (node,
/// triangle, ...). Items reserve with their index; the smallest index wins.
///
/// # Example
///
/// ```
/// use pbbs_det::Reservations;
///
/// let r = Reservations::new(4);
/// r.reserve(2, 10);
/// r.reserve(2, 7); // lower index wins
/// assert!(!r.check(2, 10));
/// assert!(r.check(2, 7));
/// assert!(r.check_reset(2, 7));
/// assert!(r.check(2, pbbs_det::reservations::FREE));
/// ```
pub struct Reservations {
    slots: Box<[AtomicU64]>,
}

impl std::fmt::Debug for Reservations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reservations")
            .field("len", &self.slots.len())
            .finish()
    }
}

impl Reservations {
    /// Creates `len` free slots.
    pub fn new(len: usize) -> Self {
        let slots: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(FREE)).collect();
        Reservations {
            slots: slots.into_boxed_slice(),
        }
    }

    /// Item `i` tries to reserve `slot`; the minimum index wins.
    #[inline]
    pub fn reserve(&self, slot: usize, i: u64) -> bool {
        write_min(&self.slots[slot], i)
    }

    /// Whether `slot` currently holds exactly `i`.
    #[inline]
    pub fn check(&self, slot: usize, i: u64) -> bool {
        self.slots[slot].load(Ordering::Acquire) == i
    }

    /// If `slot` holds `i`, frees it and returns true.
    #[inline]
    pub fn check_reset(&self, slot: usize, i: u64) -> bool {
        self.slots[slot]
            .compare_exchange(i, FREE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_runtime::run_on_threads;

    #[test]
    fn lowest_index_wins_concurrently() {
        let r = Reservations::new(16);
        run_on_threads(8, |tid| {
            for s in 0..16 {
                r.reserve(s, (8 - tid) as u64 * 100 + s as u64);
            }
        });
        for s in 0..16 {
            assert!(r.check(s, 100 + s as u64), "slot {s}");
        }
    }

    #[test]
    fn check_reset_only_for_owner() {
        let r = Reservations::new(1);
        r.reserve(0, 5);
        assert!(!r.check_reset(0, 6));
        assert!(r.check_reset(0, 5));
        assert_eq!(r.slots[0].load(Ordering::Acquire), FREE);
    }
}
