//! Deterministic reservations: the PBBS `speculative_for` loop.
//!
//! Executes items `start..end` with the semantics of the *sequential* loop
//! in index order, in bulk-synchronous rounds: a prefix of the remaining
//! items runs [`Step::reserve`] in parallel (priority-writing item indices
//! into [`crate::Reservations`] slots), then [`Step::commit`] in parallel;
//! items whose commit fails are retried in later rounds, keeping their
//! original index (= priority). Because priorities are fixed and priority
//! writes are order-insensitive, the committed set of every round — and the
//! final state — is deterministic for any thread count.
//!
//! The prefix is a `1/granularity` share of the remaining items, rounded
//! up — a per-call tuning parameter: PBBS-style determinism is portable but **not**
//! parameter-free (changing the prefix changes performance, though not the
//! output *for race-free steps*; the paper contrasts this with the adaptive
//! DIG window).

use galois_runtime::pool::{chunk_range, run_on_threads};
use galois_runtime::probe::{Probe, RoundLog, RoundRecord};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One speculative step of a deterministic-reservations loop.
pub trait Step: Sync {
    /// Reservation phase for item `i`.
    ///
    /// Must only issue priority writes / reads; returns `false` if the item
    /// discovered it has nothing to do (it is dropped without a commit).
    fn reserve(&self, i: u64) -> bool;

    /// Commit phase for item `i`.
    ///
    /// Checks reservations and applies the item's effect if they held.
    /// Returns `true` when the item is done, `false` to retry it next round.
    fn commit(&self, i: u64) -> bool;
}

/// Statistics of one [`speculative_for`] execution.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpecForStats {
    /// Bulk-synchronous rounds executed.
    pub rounds: u64,
    /// Commit-phase successes.
    pub committed: u64,
    /// Commit-phase failures (retries).
    pub aborted: u64,
    /// Reserve-phase invocations.
    pub reserved: u64,
    /// The run's rounds for the virtual-time model, when requested.
    pub round_log: RoundLog,
}

impl SpecForStats {
    /// Abort ratio over all commit attempts.
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }
}

/// Runs `step` over items `start..end` deterministically. See the module
/// docs.
///
/// `granularity` scales the round prefix: the prefix is
/// `ceil(remaining / granularity.max(1))`. PBBS typically uses a fixed
/// fraction (e.g. 50). The prefix must not depend on `threads`: it decides
/// each round's composition, so a thread-count term would make the round
/// count and abort pattern differ between thread counts.
///
/// # Panics
///
/// Panics if `threads == 0` or `start > end`.
pub fn speculative_for(
    step: &impl Step,
    start: u64,
    end: u64,
    threads: usize,
    granularity: usize,
    record_trace: bool,
) -> SpecForStats {
    assert!(threads > 0);
    assert!(start <= end);
    let mut remaining: Vec<u64> = (start..end).collect();
    let mut stats = SpecForStats::default();
    let granularity = granularity.max(1);

    while !remaining.is_empty() {
        let prefix = remaining.len().div_ceil(granularity);
        let cur = &remaining[..prefix];
        let keep: Vec<AtomicU64> = (0..prefix).map(|_| AtomicU64::new(0)).collect();
        let live: Vec<AtomicU64> = (0..prefix).map(|_| AtomicU64::new(1)).collect();
        let reserve_count = AtomicUsize::new(0);
        let t0 = record_trace.then(Instant::now);

        // Reserve phase.
        run_on_threads(threads, |tid| {
            let mut n = 0;
            for k in chunk_range(prefix, threads, tid) {
                n += 1;
                if !step.reserve(cur[k]) {
                    live[k].store(0, Ordering::Relaxed);
                }
            }
            reserve_count.fetch_add(n, Ordering::Relaxed);
        });
        let reserve_ns = t0.map(|t| t.elapsed().as_nanos() as f64);
        let t1 = record_trace.then(Instant::now);

        // Commit phase.
        run_on_threads(threads, |tid| {
            for k in chunk_range(prefix, threads, tid) {
                if live[k].load(Ordering::Relaxed) == 1 && !step.commit(cur[k]) {
                    keep[k].store(1, Ordering::Relaxed);
                }
            }
        });
        let commit_ns = t1.map(|t| t.elapsed().as_nanos() as f64);
        let t2 = record_trace.then(Instant::now);

        let mut next: Vec<u64> = Vec::with_capacity(remaining.len());
        let mut committed_round = 0u64;
        let mut dropped_round = 0u64;
        for k in 0..prefix {
            if keep[k].load(Ordering::Relaxed) == 1 {
                next.push(cur[k]);
            } else if live[k].load(Ordering::Relaxed) == 1 {
                committed_round += 1;
            } else {
                dropped_round += 1;
            }
        }
        let failed = next.len() as u64;
        next.extend_from_slice(&remaining[prefix..]);
        remaining = next;

        stats.rounds += 1;
        stats.reserved += reserve_count.load(Ordering::Relaxed) as u64;
        stats.committed += committed_round;
        stats.aborted += failed;
        let _ = dropped_round;
        if let (Some(r), Some(c), Some(t2)) = (reserve_ns, commit_ns, t2) {
            let flatten_ns = t2.elapsed().as_nanos() as f64;
            stats.round_log.on_round(RoundRecord::bulk(
                stats.rounds - 1,
                prefix as u64,
                committed_round,
                failed,
                [r, c, flatten_ns],
            ));
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reservations;
    use std::sync::atomic::AtomicU64 as Slot;

    /// Each item claims one bucket (i % b); sequential semantics: the lowest
    /// index claims each bucket.
    struct Buckets<'a> {
        r: &'a Reservations,
        owner: &'a [Slot],
        b: usize,
    }

    impl Step for Buckets<'_> {
        fn reserve(&self, i: u64) -> bool {
            self.r.reserve(i as usize % self.b, i);
            true
        }
        fn commit(&self, i: u64) -> bool {
            if self.r.check(i as usize % self.b, i) {
                self.owner[i as usize % self.b].store(i + 1, Ordering::Relaxed);
                true
            } else {
                // Lost to a lower index, which always commits: done.
                true
            }
        }
    }

    #[test]
    fn lowest_index_wins_each_bucket() {
        for threads in [1usize, 2, 4] {
            let r = Reservations::new(8);
            let owner: Vec<Slot> = (0..8).map(|_| Slot::new(0)).collect();
            let step = Buckets {
                r: &r,
                owner: &owner,
                b: 8,
            };
            let stats = speculative_for(&step, 0, 64, threads, 4, false);
            assert_eq!(stats.committed, 64, "threads={threads}");
            for (b, o) in owner.iter().enumerate() {
                assert_eq!(o.load(Ordering::Relaxed), b as u64 + 1, "bucket {b}");
            }
        }
    }

    #[test]
    fn reserve_false_drops_items() {
        struct Skip;
        impl Step for Skip {
            fn reserve(&self, i: u64) -> bool {
                i.is_multiple_of(2)
            }
            fn commit(&self, _i: u64) -> bool {
                true
            }
        }
        let stats = speculative_for(&Skip, 0, 100, 2, 4, false);
        assert_eq!(stats.committed, 50);
        assert_eq!(stats.aborted, 0);
    }

    #[test]
    fn retries_until_commit() {
        // Items fail their first commit attempt (simulated contention).
        struct FailOnce {
            tried: Vec<Slot>,
        }
        impl Step for FailOnce {
            fn reserve(&self, _i: u64) -> bool {
                true
            }
            fn commit(&self, i: u64) -> bool {
                self.tried[i as usize].fetch_add(1, Ordering::Relaxed) > 0
            }
        }
        let step = FailOnce {
            tried: (0..32).map(|_| Slot::new(0)).collect(),
        };
        let stats = speculative_for(&step, 0, 32, 3, 2, false);
        assert_eq!(stats.committed, 32);
        assert!(stats.aborted >= 32, "every item fails at least once");
        assert!(stats.rounds >= 2);
    }

    #[test]
    fn trace_recording_counts_rounds() {
        struct Nop;
        impl Step for Nop {
            fn reserve(&self, _i: u64) -> bool {
                true
            }
            fn commit(&self, _i: u64) -> bool {
                true
            }
        }
        let stats = speculative_for(&Nop, 0, 100, 1, 4, true);
        assert_eq!(stats.round_log.len() as u64, stats.rounds);
    }

    #[test]
    fn empty_range() {
        struct Nop;
        impl Step for Nop {
            fn reserve(&self, _i: u64) -> bool {
                true
            }
            fn commit(&self, _i: u64) -> bool {
                true
            }
        }
        let stats = speculative_for(&Nop, 5, 5, 2, 4, false);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.committed, 0);
    }
}
