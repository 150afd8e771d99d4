//! dmr's mesh kernels allocate a bounded number of times per task.
//!
//! A counting `#[global_allocator]` wraps the system allocator. A
//! deterministic dmr run (1 000 points, seed 2014) at threads 1 and 2 may
//! make at most [`PER_TASK`] allocations per attempted task — the cavity's
//! two presized buffers, the created-triangle list and the continuation are
//! the per-task ones; the executor's own growth is amortized — and the
//! canonical form of the refined mesh is one allocation, not one per
//! triangle.
//!
//! This file deliberately holds a single `#[test]` so no sibling test can
//! allocate concurrently and pollute the counter.

use galois_apps::dmr;
use galois_core::{Executor, Schedule};
use galois_mesh::check;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter is a relaxed
// atomic, so the wrapper adds no allocation or synchronization of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Allocations a dmr run may make per attempted task.
const PER_TASK: f64 = 3.0;

/// `f`'s result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOC_EVENTS.load(Ordering::Relaxed) - before)
}

#[test]
fn dmr_run_and_canonical_form_allocate_little() {
    for threads in [1usize, 2] {
        let mesh = dmr::make_input(1000, 2014);
        let exec = Executor::new()
            .threads(threads)
            .schedule(Schedule::deterministic());
        let (report, allocs) = counted(|| dmr::try_galois(&mesh, &exec).unwrap());
        let attempted = report.stats.committed + report.stats.aborted;
        let per_task = allocs as f64 / attempted as f64;
        assert!(
            attempted > 10_000 && per_task <= PER_TASK,
            "threads={threads}: {allocs} allocations over {attempted} attempted tasks \
             ({per_task:.2} per task, bound {PER_TASK})"
        );

        let (canon, allocs) = counted(|| check::canonical_triangles(&mesh));
        assert!(
            canon.len() > 10_000 && allocs <= 1,
            "threads={threads}: canonical form of {} triangles made {allocs} allocations",
            canon.len()
        );
    }
}
