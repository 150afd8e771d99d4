//! Parallel stable merge sort.
//!
//! Sorts on the input and scheduling paths — CSR construction's edge pairs
//! and the executor's pre-assigned task ids (§3.3) — use this parallel
//! *stable* merge sort: stability means items with equal keys keep their
//! (already deterministic) buffer order, so the result is independent of the
//! thread count.

use crate::pool::{chunk_ends, chunk_range, run_partitioned};

/// Sorts `items` stably by `key`, using up to `threads` threads.
///
/// Equivalent to `items.sort_by_key(key)` (same output, including stability),
/// but splits the slice into per-thread runs, sorts the runs in parallel, and
/// then merges pairs of runs in parallel rounds.
///
/// # Example
///
/// ```
/// let mut v = vec![(2, 'a'), (1, 'b'), (2, 'c'), (0, 'd')];
/// galois_runtime::sort::parallel_sort_by_key(&mut v, 2, |x| x.0);
/// assert_eq!(v, vec![(0, 'd'), (1, 'b'), (2, 'a'), (2, 'c')]);
/// ```
pub fn parallel_sort_by_key<T, K, F>(items: &mut [T], threads: usize, key: F)
where
    T: Send,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = items.len();
    if n < 2 {
        return;
    }
    // Small inputs or one thread: delegate to std's stable sort.
    let threads = threads.clamp(1, n.div_ceil(4096).max(1));
    if threads == 1 {
        items.sort_by_key(key);
        return;
    }

    // Phase 1: sort per-thread runs in parallel, one contiguous chunk each.
    let ends = chunk_ends(n, threads);
    run_partitioned(items, &ends, |_, run| run.sort_by_key(&key));

    // Phase 2: merge adjacent runs pairwise until one run remains. Each
    // round hands every thread one contiguous group of pairs; a trailing
    // unpaired run waits for the next round. Which thread merges a pair
    // does not change the merged bytes.
    let mut runs: Vec<usize> = std::iter::once(0).chain(ends).collect();
    while runs.len() > 2 {
        let pairs: Vec<(usize, usize, usize)> = runs
            .windows(3)
            .step_by(2)
            .map(|w| (w[0], w[1], w[2]))
            .collect();
        let groups = pairs.len().min(threads);
        let group_ends: Vec<usize> = chunk_ends(pairs.len(), groups)
            .into_iter()
            .map(|end| pairs[end - 1].2)
            .collect();
        let paired = *group_ends.last().expect("at least one pair");
        run_partitioned(&mut items[..paired], &group_ends, |g, part| {
            let mine = &pairs[chunk_range(pairs.len(), groups, g)];
            let base = mine[0].0;
            for &(lo, mid, hi) in mine {
                merge_in_place(&mut part[lo - base..hi - base], mid - lo, &key);
            }
        });
        // Keep every other boundary; an odd run count (an even number of
        // boundaries) keeps the last one too.
        let last = *runs.last().expect("non-empty");
        let odd_runs = runs.len().is_multiple_of(2);
        runs = runs.into_iter().step_by(2).collect();
        if odd_runs {
            runs.push(last);
        }
    }
}

/// Stable merge of the two sorted halves `[0, mid)` and `[mid, len)`.
///
/// Decides the whole merge order first, while every element is still in
/// place, then moves elements without running any caller code: a panicking
/// `key` leaves `slice` untouched instead of half-merged.
#[allow(unsafe_code)]
fn merge_in_place<T, K: Ord>(slice: &mut [T], mid: usize, key: &impl Fn(&T) -> K) {
    if mid == 0 || mid == slice.len() {
        return;
    }
    // Fast path: already ordered across the seam.
    if key(&slice[mid - 1]) <= key(&slice[mid]) {
        return;
    }
    let (left, right) = slice.split_at(mid);
    let mut take_left = Vec::with_capacity(slice.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        // `<=` keeps the merge stable: ties favor the left run.
        let l = key(&left[i]) <= key(&right[j]);
        take_left.push(l);
        if l {
            i += 1;
        } else {
            j += 1;
        }
    }
    let mut scratch: Vec<T> = Vec::with_capacity(mid);
    // SAFETY: the left run is copied into `scratch`, whose length stays 0,
    // so it never drops those elements. Slot `k = i + j` then receives the
    // next left element from `scratch` or the right element at `mid + j`;
    // `k < mid + j` while both runs have elements, and every slot below
    // `mid + j` has been vacated (saved in `scratch` or already moved), so
    // each element lands in exactly one slot. A left-run tail fills the
    // gap that ends at `mid + j`, where the right-run tail already sits.
    unsafe {
        let base = slice.as_mut_ptr();
        let saved = scratch.as_mut_ptr();
        std::ptr::copy_nonoverlapping(base, saved, mid);
        let (mut i, mut j) = (0, 0);
        for (k, &l) in take_left.iter().enumerate() {
            let from = if l {
                i += 1;
                saved.add(i - 1)
            } else {
                j += 1;
                base.add(mid + j - 1)
            };
            std::ptr::copy_nonoverlapping(from, base.add(k), 1);
        }
        std::ptr::copy_nonoverlapping(saved.add(i), base.add(i + j), mid - i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_by_key(|x| x.0);
        v
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<(u64, u64)> {
        // xorshift64* to avoid a dev-dependency cycle.
        let mut s = seed.max(1);
        (0..n as u64)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 97, i)
            })
            .collect()
    }

    #[test]
    fn matches_std_stable_sort() {
        // 30 000 clears the 4 096 clamp at every swept count, so odd run
        // counts (3, 7) carry a trailing run through the merge rounds.
        for n in [0usize, 1, 2, 63, 64, 1000, 10_000, 30_000] {
            for threads in [1usize, 2, 3, 4, 7] {
                let input = pseudo_random(n, 42 + n as u64);
                let mut ours = input.clone();
                parallel_sort_by_key(&mut ours, threads, |x| x.0);
                assert_eq!(ours, reference_sorted(input), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn stability_preserved() {
        // Many duplicate keys; payload records original position.
        let input: Vec<(u64, u64)> = (0..5000).map(|i| (i % 3, i)).collect();
        let mut ours = input.clone();
        parallel_sort_by_key(&mut ours, 4, |x| x.0);
        // Within each key, payloads must be increasing.
        for w in ours.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {w:?}");
            }
        }
    }

    #[test]
    fn works_with_non_copy_payloads() {
        let mut v: Vec<(u32, String)> = (0..300)
            .rev()
            .map(|i| (i % 10, format!("item{i}")))
            .collect();
        let mut expect = v.clone();
        expect.sort_by_key(|x| x.0);
        parallel_sort_by_key(&mut v, 3, |x| x.0);
        assert_eq!(v, expect);
    }

    #[test]
    fn a_panicking_key_drops_every_element_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: [AtomicUsize; 8] = [const { AtomicUsize::new(0) }; 8];
        struct Tracked(usize);
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS[self.0].fetch_add(1, Ordering::Relaxed);
            }
        }
        // Runs [4..8) and [0..4): the seam is out of order, so the merge
        // runs, and the key fails on its third comparison.
        let mut v: Vec<Tracked> = [4, 5, 6, 7, 0, 1, 2, 3].map(Tracked).into();
        let calls = AtomicUsize::new(0);
        let key = |t: &Tracked| {
            if calls.fetch_add(1, Ordering::Relaxed) == 6 {
                panic!("key fails mid-merge");
            }
            t.0
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            merge_in_place(&mut v, 4, &key);
        }));
        assert!(caught.is_err());
        drop(v);
        for (i, d) in DROPS.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), 1, "element {i}");
        }
    }

    #[test]
    fn already_sorted_fast_path() {
        let mut v: Vec<(u64, u64)> = (0..10_000).map(|i| (i, i)).collect();
        let expect = v.clone();
        parallel_sort_by_key(&mut v, 4, |x| x.0);
        assert_eq!(v, expect);
    }

    #[test]
    fn reverse_sorted() {
        let mut v: Vec<(u64, u64)> = (0..8192).rev().map(|i| (i, i)).collect();
        parallel_sort_by_key(&mut v, 5, |x| x.0);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(x.0, i as u64);
        }
    }
}
