//! Parallel prefix sum (scan).
//!
//! The parallel input pipeline (see `galois-graph`) turns per-node degree
//! counts into CSR offsets with a prefix sum on the critical path of every
//! build. Like the [`sort`](crate::sort) module, the scan here is
//! *deterministic by construction*: integer addition is associative, so the
//! classic three-phase chunked scan (local reduce, sequential scan over chunk
//! totals, local rescan) produces bit-identical output for any thread
//! count — the same portability contract the schedulers guarantee for
//! execution, extended to input construction.

use crate::pool::{chunk_range, run_on_threads};
use crate::shared::SharedSlice;

/// Replaces `values` with its inclusive prefix sum and returns the total.
///
/// `values[i]` becomes `sum(values[..=i])`. Uses up to `threads` threads
/// and is bit-identical to the sequential scan for every thread count.
///
/// # Example
///
/// ```
/// let mut v = vec![3u64, 1, 4, 1, 5];
/// let total = galois_runtime::scan::parallel_inclusive_scan(&mut v, 4);
/// assert_eq!(v, vec![3, 4, 8, 9, 14]);
/// assert_eq!(total, 14);
/// ```
pub fn parallel_inclusive_scan(values: &mut [u64], threads: usize) -> u64 {
    let n = values.len();
    // Below ~4k elements the spawn cost dominates any parallel win. The
    // sequential path is also the oracle the parallel path must match.
    let threads = threads.clamp(1, n.div_ceil(4096).max(1));
    if threads == 1 {
        let mut acc = 0u64;
        for v in values.iter_mut() {
            acc += *v;
            *v = acc;
        }
        return acc;
    }

    // Phase 1: each thread reduces its chunk to a total.
    let mut chunk_totals = vec![0u64; threads];
    {
        let totals = SharedSlice::new(&mut chunk_totals);
        let totals = &totals;
        let values_ro: &[u64] = values;
        run_on_threads(threads, |tid| {
            let sum: u64 = values_ro[chunk_range(n, threads, tid)].iter().sum();
            // SAFETY: each tid writes only its own slot.
            unsafe { *totals.get_mut(tid) = sum };
        });
    }

    // Phase 2: sequential exclusive scan over the (tiny) chunk totals.
    let mut acc = 0u64;
    for t in chunk_totals.iter_mut() {
        let x = *t;
        *t = acc;
        acc += x;
    }
    let total = acc;

    // Phase 3: each thread rescans its chunk seeded with its chunk offset.
    {
        let shared = SharedSlice::new(values);
        let shared = &shared;
        let chunk_totals = &chunk_totals;
        run_on_threads(threads, |tid| {
            let mut acc = chunk_totals[tid];
            for i in chunk_range(n, threads, tid) {
                // SAFETY: chunk ranges are disjoint across tids.
                let slot = unsafe { shared.get_mut(i) };
                acc += *slot;
                *slot = acc;
            }
        });
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % 1000
            })
            .collect()
    }

    /// The plain left-to-right running sum the scan must reproduce.
    fn sequential_oracle(values: &[u64]) -> (Vec<u64>, u64) {
        let mut acc = 0u64;
        let out = values
            .iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect();
        (out, acc)
    }

    #[test]
    fn matches_sequential_oracle_across_thread_counts() {
        for n in [0usize, 1, 2, 100, 4096, 4097, 50_000] {
            let input = pseudo_random(n, 7 + n as u64);
            let (expect, expect_total) = sequential_oracle(&input);
            for threads in [1usize, 2, 5, 8, 16] {
                let mut ours = input.clone();
                let t = parallel_inclusive_scan(&mut ours, threads);
                assert_eq!(ours, expect, "n={n} threads={threads}");
                assert_eq!(t, expect_total, "total n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn inclusive_scan_basics() {
        let mut v = vec![2u64; 5];
        let total = parallel_inclusive_scan(&mut v, 3);
        assert_eq!(v, vec![2, 4, 6, 8, 10]);
        assert_eq!(total, 10);
    }

    #[test]
    fn empty_and_singleton() {
        let mut v: Vec<u64> = vec![];
        assert_eq!(parallel_inclusive_scan(&mut v, 8), 0);
        let mut v = vec![9u64];
        assert_eq!(parallel_inclusive_scan(&mut v, 8), 9);
        assert_eq!(v, vec![9]);
    }
}
