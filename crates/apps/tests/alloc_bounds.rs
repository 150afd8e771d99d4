//! The real app operators allocate little, counted by a wrapping
//! `#[global_allocator]`:
//!
//! - **bfs and mis rounds allocate nothing once warm.** A deterministic run
//!   of each (7 500 nodes) at threads 1/2/4/8 is probed: the median
//!   steady-state round (index 3 on) makes no heap allocation, and no
//!   round crosses more than 2 barriers. The median keeps rare legitimate
//!   allocation rounds (pass-boundary re-sorts, window high-water growth)
//!   from failing the check while a per-round allocation in the common
//!   case still fails it.
//! - **dmr allocates a bounded number of times per task.** A deterministic
//!   dmr run (1 000 points, seed 2014) at threads 1 and 2 may make at most
//!   [`PER_TASK`] allocations per attempted task — the cavity's two
//!   presized buffers, the created-triangle list and the continuation are
//!   the per-task ones; the executor's own growth is amortized — and the
//!   canonical form of the refined mesh is one allocation, not one per
//!   triangle.
//!
//! This file deliberately holds a single `#[test]` so no sibling test can
//! allocate concurrently and pollute the counter.

use galois_apps::recipe::Input;
use galois_apps::{dmr, App, Variant};
use galois_core::{Executor, Hooks, Probe, RoundRecord, Schedule};
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

/// Snapshots `(round, allocation counter, barriers)` at every round
/// record. Capacity is reserved up front so the probe itself never
/// allocates mid-run.
struct SnapProbe {
    snaps: Vec<(u64, u64, u32)>,
}

impl Probe for SnapProbe {
    // Request nothing optional: the disabled probe paths are the
    // allocation-free ones this check pins down.
    fn wants_conflicts(&self) -> bool {
        false
    }
    fn wants_timing(&self) -> bool {
        false
    }
    fn conflict_top_k(&self) -> usize {
        0
    }
    fn on_round(&mut self, record: RoundRecord) {
        if self.snaps.len() < self.snaps.capacity() {
            let allocs = ALLOC_EVENTS.load(Ordering::Relaxed);
            self.snaps.push((record.round, allocs, record.barriers));
        }
    }
}

/// Checks `app`'s deterministic rounds over `input` at `threads`.
fn check_rounds(app: App, input: &Input, threads: usize) {
    let mut probe = SnapProbe {
        snaps: Vec::with_capacity(1 << 16),
    };
    let exec = app.executor(Schedule::deterministic(), threads);
    let hooks = Hooks {
        probe: Some(&mut probe),
        ..Hooks::default()
    };
    app.run(Variant::Deterministic, &exec, input, hooks)
        .unwrap()
        .unwrap_or_else(|e| panic!("{app} t{threads}: {e}"));

    let barriers = probe.snaps.iter().map(|s| s.2).max().unwrap_or(0);
    assert!(
        barriers <= 2,
        "{app} t{threads}: a round crossed {barriers} barriers (expected <= 2)"
    );
    // Round r's record arrives in round r+1's serial section, so a delta
    // between consecutive snapshots covers exactly one full round. Rounds
    // 0-2 warm the high-water buffers.
    let mut allocs: Vec<u64> = probe
        .snaps
        .windows(2)
        .filter(|w| w[1].0 >= 3)
        .map(|w| w[1].1 - w[0].1)
        .collect();
    assert!(
        allocs.len() >= 8,
        "{app} t{threads}: too few steady-state rounds ({}) to measure",
        allocs.len()
    );
    allocs.sort_unstable();
    assert_eq!(
        allocs[allocs.len() / 2],
        0,
        "{app} t{threads}: median steady-state round allocates (sorted deltas {allocs:?})"
    );
}

#[test]
fn app_runs_allocate_little() {
    for (app, seed) in [(App::Bfs, 0xA5F_2014), (App::Mis, 0xA5F_2015)] {
        let input = app.materialize(7_500, seed, 2, None).0;
        for threads in [1usize, 2, 4, 8] {
            check_rounds(app, &input, threads);
        }
    }

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
