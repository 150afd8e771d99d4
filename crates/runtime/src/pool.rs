//! Scoped thread pool.
//!
//! The Galois executors are bulk-synchronous: a parallel phase consists of the
//! same worker closure running once on every thread, with the thread id
//! (`tid`) selecting that thread's share of the work. Every phase goes
//! through one spawn/join path, [`run_parts`]: thread `tid` receives part
//! `tid` *by value*. When the parts are disjoint `&mut` sub-slices
//! ([`run_partitioned`], [`split_at_ends`]), the borrow checker proves each
//! thread owns its share — the static-partition rule the executors rely on,
//! stated in types instead of `unsafe`. [`run_on_threads`] is the unit-part
//! case. It is a thin wrapper over [`std::thread::scope`], so workers may
//! borrow from the caller's stack.

use crate::chaos::ChaosPolicy;

/// Runs `f(tid)` once on each of `threads` threads and waits for all of them.
///
/// Thread ids are `0..threads`. With `threads == 1` the closure runs on the
/// calling thread, which keeps single-threaded runs free of spawn overhead
/// (and makes them easy to profile and trace).
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates the first worker panic — with its
/// original payload — after all workers have been joined.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let sum = AtomicU64::new(0);
/// galois_runtime::pool::run_on_threads(3, |tid| {
///     sum.fetch_add(tid as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 0 + 1 + 2);
/// ```
pub fn run_on_threads<F>(threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    run_on_threads_fault(threads, None, None, f)
}

/// [`run_on_threads`] with an optional per-thread start skew drawn from a
/// [`ChaosPolicy`] and a fault hook that fires *before* a panicking worker
/// starts unwinding out of the pool.
///
/// With a policy installed, each worker burns a drawn spin budget before
/// entering `f`, staggering thread start order adversarially (schedulers that
/// are schedule-invariant must not care which thread reaches the first
/// barrier first).
///
/// Each worker (including tid 0 on the calling thread) runs under
/// [`std::panic::catch_unwind`]; on a panic the pool invokes `on_panic`
/// and then resumes the unwind, so [`std::thread::scope`] still joins
/// every worker and propagates the first panic to the caller.
///
/// The hook is the pool's deadlock escape hatch: executors pass a closure
/// that poisons their [`crate::SenseBarrier`] (or trips a halt flag), so
/// peers blocked waiting for the dead worker release and drain instead of
/// spinning forever. The hook may run concurrently on several threads and
/// must be idempotent.
pub fn run_on_threads_fault<F>(
    threads: usize,
    chaos: Option<&ChaosPolicy>,
    on_panic: Option<&(dyn Fn() + Sync)>,
    f: F,
) where
    F: Fn(usize) + Sync,
{
    run_parts_fault(vec![(); threads], chaos, on_panic, |tid, ()| f(tid));
}

/// Runs `f(tid, part)` once per part, part `tid` moved to thread `tid`,
/// and returns the results in tid order.
///
/// One thread per part; part 0 runs on the calling thread. Parts are owned
/// values, so a thread can only touch what it was handed: feed it disjoint
/// sub-slices from [`split_at_ends`] and no two threads can alias.
///
/// # Panics
///
/// Panics if `parts` is empty, or propagates the first worker panic, like
/// [`run_on_threads`].
///
/// # Example
///
/// ```
/// let v = [1u64, 2, 3, 4, 5];
/// let sums = galois_runtime::pool::run_parts(vec![&v[..2], &v[2..]], |_, part| {
///     part.iter().sum::<u64>()
/// });
/// assert_eq!(sums, vec![3, 12]);
/// ```
pub fn run_parts<P, R, F>(parts: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    run_parts_fault(parts, None, None, f)
}

/// Splits `items` at `ends` and runs `f(tid, part)` with thread `tid`
/// owning `items[ends[tid - 1]..ends[tid]]` (part 0 starts at 0).
///
/// # Panics
///
/// Panics before any thread starts if `ends` is not non-decreasing or does
/// not finish at `items.len()` (see [`split_at_ends`]).
///
/// # Example
///
/// ```
/// use galois_runtime::pool::{chunk_ends, run_partitioned};
/// let mut v = vec![0usize; 10];
/// run_partitioned(&mut v, &chunk_ends(10, 3), |tid, part| part.fill(tid));
/// assert_eq!(v, [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
/// ```
pub fn run_partitioned<T, F>(items: &mut [T], ends: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    run_parts(split_at_ends(items, ends), f);
}

/// Splits `items` into consecutive parts ending at each of `ends`.
///
/// # Panics
///
/// Panics if `ends` is not non-decreasing or its last entry is not
/// `items.len()` (an empty `ends` never matches).
pub fn split_at_ends<'a, T>(items: &'a mut [T], ends: &[usize]) -> Vec<&'a mut [T]> {
    assert_eq!(
        ends.last(),
        Some(&items.len()),
        "part ends must finish at the slice length"
    );
    let mut rest = items;
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            assert!(end >= start, "part ends must be non-decreasing: {ends:?}");
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            rest = tail;
            start = end;
            head
        })
        .collect()
}

/// The one spawn/join path behind every entry point above.
fn run_parts_fault<P, R, F>(
    parts: Vec<P>,
    chaos: Option<&ChaosPolicy>,
    on_panic: Option<&(dyn Fn() + Sync)>,
    f: F,
) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    let guarded = |tid: usize, part: P| -> R {
        if on_panic.is_none() {
            return f(tid, part);
        }
        // AssertUnwindSafe: on panic the closure's borrows are only touched
        // again by the hook/drain path, which treats the run as faulted.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(tid, part))) {
            Ok(r) => r,
            Err(payload) => {
                if let Some(hook) = on_panic {
                    hook();
                }
                std::panic::resume_unwind(payload);
            }
        }
    };
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        panic!("thread count must be positive");
    };
    if parts.len() == 0 {
        return vec![guarded(0, first)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .enumerate()
            .map(|(i, part)| {
                let tid = i + 1;
                let guarded = &guarded;
                scope.spawn(move || {
                    if let Some(c) = chaos {
                        ChaosPolicy::spin(c.start_skew_spins(tid));
                    }
                    guarded(tid, part)
                })
            })
            .collect();
        if let Some(c) = chaos {
            ChaosPolicy::spin(c.start_skew_spins(0));
        }
        let mut results = Vec::with_capacity(handles.len() + 1);
        results.push(guarded(0, first));
        // Join explicitly and re-raise the *original* payload of the first
        // (lowest-tid) faulted worker. Leaving the join to the scope's drop
        // would replace it with the opaque "a scoped thread panicked",
        // destroying the panic message that the fault-containment layer
        // promises to report. All workers are joined before re-raising, so
        // shutdown stays bounded even with several faults in flight.
        let mut first_fault = None;
        for handle in handles {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(payload) => {
                    first_fault.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_fault {
            std::panic::resume_unwind(payload);
        }
        results
    })
}

/// Splits `0..len` into `threads` near-equal contiguous ranges and returns the
/// range owned by `tid`.
///
/// The first `len % threads` ranges are one element longer, so the ranges
/// partition `0..len` exactly. This is the standard static work division used
/// by the bulk-synchronous phases of the deterministic executor; determinism
/// does not depend on it (any partition works), but static division keeps
/// single-thread traces reproducible.
///
/// # Example
///
/// ```
/// use galois_runtime::pool::chunk_range;
/// assert_eq!(chunk_range(10, 3, 0), 0..4);
/// assert_eq!(chunk_range(10, 3, 1), 4..7);
/// assert_eq!(chunk_range(10, 3, 2), 7..10);
/// ```
pub fn chunk_range(len: usize, threads: usize, tid: usize) -> std::ops::Range<usize> {
    assert!(
        tid < threads,
        "tid {tid} out of range for {threads} threads"
    );
    let base = len / threads;
    let extra = len % threads;
    let start = tid * base + tid.min(extra);
    let size = base + usize::from(tid < extra);
    start..(start + size).min(len)
}

/// The ends of the [`chunk_range`] partition of `0..len` into `threads`
/// parts — the `ends` argument of [`run_partitioned`] for that partition.
///
/// ```
/// assert_eq!(galois_runtime::pool::chunk_ends(10, 3), vec![4, 7, 10]);
/// ```
pub fn chunk_ends(len: usize, threads: usize) -> Vec<usize> {
    (0..threads)
        .map(|tid| chunk_range(len, threads, tid).end)
        .collect()
}

/// Hints the hardware prefetcher at `items[index]`'s cache line.
///
/// A pure hint: `index` may be out of range (the address is computed with
/// wrapping arithmetic and never dereferenced), and it is a no-op on
/// non-x86_64 targets.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T>(items: &[T], index: usize) {
    let ptr = items.as_ptr().wrapping_add(index);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint that cannot fault for any address,
    // and computing `ptr` with `wrapping_add` involves no out-of-bounds
    // arithmetic UB.
    unsafe {
        core::arch::x86_64::_mm_prefetch(ptr as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_each_tid_once() {
        let seen = [const { AtomicUsize::new(0) }; 8];
        run_on_threads(8, |tid| {
            seen[tid].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let here = std::thread::current().id();
        run_on_threads(1, |tid| {
            assert_eq!(tid, 0);
            assert_eq!(std::thread::current().id(), here);
        });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_panics() {
        run_on_threads(0, |_| {});
    }

    #[test]
    fn chaos_skew_still_runs_every_tid_once() {
        let chaos = crate::chaos::ChaosPolicy::new(1234);
        let seen = [const { AtomicUsize::new(0) }; 4];
        run_on_threads_fault(4, Some(&chaos), None, |tid| {
            seen[tid].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn fault_hook_fires_before_unwind_propagates() {
        // Once through the unit-part case, once through owned slice parts:
        // both share the one spawn/join path.
        for partitioned in [false, true] {
            let fired = AtomicUsize::new(0);
            let hook = || {
                fired.fetch_add(1, Ordering::Relaxed);
            };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if partitioned {
                    let mut items = vec![0u8; 10];
                    let parts = split_at_ends(&mut items, &chunk_ends(10, 4));
                    run_parts_fault(parts, None, Some(&hook), |tid, part: &mut [u8]| {
                        part.fill(1);
                        if tid == 2 {
                            panic!("worker 2 dies");
                        }
                    });
                } else {
                    run_on_threads_fault(4, None, Some(&hook), |tid| {
                        if tid == 2 {
                            panic!("worker 2 dies");
                        }
                    });
                }
            }));
            let payload = caught.expect_err("the worker panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 2 dies"));
            assert_eq!(fired.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn each_tid_owns_exactly_its_range() {
        // Uneven parts, empty parts, and more parts than elements.
        let cases: [(usize, Vec<usize>); 5] = [
            (10, chunk_ends(10, 3)),
            (10, vec![0, 4, 4, 10]),
            (3, chunk_ends(3, 8)),
            (0, vec![0, 0]),
            (7, vec![7]),
        ];
        for (len, ends) in cases {
            let mut items: Vec<(usize, usize)> = (0..len).map(|i| (i, usize::MAX)).collect();
            let calls = AtomicUsize::new(0);
            run_partitioned(&mut items, &ends, |tid, part| {
                calls.fetch_add(1, Ordering::Relaxed);
                let start = if tid == 0 { 0 } else { ends[tid - 1] };
                let got: Vec<usize> = part.iter().map(|x| x.0).collect();
                assert_eq!(got, (start..ends[tid]).collect::<Vec<_>>(), "tid {tid}");
                part.iter_mut().for_each(|x| x.1 = tid);
            });
            assert_eq!(calls.load(Ordering::Relaxed), ends.len());
            for (i, &(_, owner)) in items.iter().enumerate() {
                let expect = ends.iter().position(|&e| i < e).unwrap();
                assert_eq!(owner, expect, "len {len}, ends {ends:?}, index {i}");
            }
        }
    }

    #[test]
    fn bad_ends_panic_before_any_thread_starts() {
        let bad: [&[usize]; 4] = [&[3, 2, 5], &[2, 4], &[], &[2, 6]];
        for ends in bad {
            let mut items = vec![0u8; 5];
            let started = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_partitioned(&mut items, ends, |_, _| {
                    started.fetch_add(1, Ordering::Relaxed);
                });
            }));
            assert!(caught.is_err(), "ends {ends:?} must be rejected");
            assert_eq!(started.load(Ordering::Relaxed), 0, "ends {ends:?}");
        }
    }

    #[test]
    fn fault_hook_fires_inline_on_one_thread() {
        let fired = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_on_threads_fault(
                1,
                None,
                Some(&|| {
                    fired.fetch_add(1, Ordering::Relaxed);
                }),
                |_| panic!("inline worker dies"),
            );
        }));
        assert!(caught.is_err());
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fault_runner_without_hook_matches_plain_runner() {
        let seen = [const { AtomicUsize::new(0) }; 4];
        run_on_threads_fault(4, None, None, |tid| {
            seen[tid].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn chunks_partition_exactly() {
        for len in [0usize, 1, 5, 16, 17, 1000] {
            for threads in 1..=9 {
                let mut covered = 0;
                let mut prev_end = 0;
                for tid in 0..threads {
                    let r = chunk_range(len, threads, tid);
                    assert_eq!(r.start, prev_end, "ranges must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, len);
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        for len in [10usize, 100, 101, 7] {
            for threads in 1..=8 {
                let sizes: Vec<_> = (0..threads)
                    .map(|tid| chunk_range(len, threads, tid).len())
                    .collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} threads={threads}: {sizes:?}");
            }
        }
    }
}
