//! Priority writes: order-insensitive atomic minima.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically lowers `slot` to `v` if `v` is smaller; returns whether `v`
/// won. The final value after any set of concurrent calls is the minimum of
/// all proposals — the deterministic combining primitive of PBBS.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let slot = AtomicU64::new(u64::MAX);
/// assert!(pbbs_det::priority::write_min(&slot, 9));
/// assert!(!pbbs_det::priority::write_min(&slot, 12));
/// assert!(pbbs_det::priority::write_min(&slot, 3));
/// assert_eq!(slot.load(Ordering::Relaxed), 3);
/// ```
#[inline]
pub fn write_min(slot: &AtomicU64, v: u64) -> bool {
    let mut cur = slot.load(Ordering::Relaxed);
    while v < cur {
        match slot.compare_exchange_weak(cur, v, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_runtime::run_on_threads;

    #[test]
    fn min_is_order_insensitive() {
        for perm in [[7u64, 2, 5], [5, 7, 2], [2, 5, 7]] {
            let slot = AtomicU64::new(u64::MAX);
            for v in perm {
                write_min(&slot, v);
            }
            assert_eq!(slot.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn concurrent_min_settles() {
        let slot = AtomicU64::new(u64::MAX);
        run_on_threads(8, |tid| {
            for k in 0..100u64 {
                write_min(&slot, (tid as u64 + 1) * 1000 + k);
            }
        });
        assert_eq!(slot.load(Ordering::Relaxed), 1000);
    }
}
