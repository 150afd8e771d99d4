//! Growth rounds of the deterministic scheduler make O(1) heap allocations.
//!
//! A *growth round* carves a window larger than any before it. Per-task
//! round state lives in per-thread arenas, not in the slots, so growing the
//! slot pool is one reallocation and the arenas grow by amortized doubling:
//! the allocation count of a round — and of a pass boundary, which numbers
//! the created tasks straight into the drained pending buffer — is a small
//! constant, whatever the window size.
//!
//! The workload is a binary tree expanded level by level: each pass is one
//! level of disjoint tasks that push two children, so every pass is twice
//! the last and its window doubles through a new high-water mark. A
//! counting `#[global_allocator]` is snapshotted as round records arrive;
//! the delta between consecutive records covers one round's inspect and
//! commit, the leader's merge, any pass boundary and the next carve.
//!
//! This file deliberately holds a single `#[test]` so no sibling test can
//! allocate concurrently and pollute the counter.

use galois_core::{Ctx, Executor, MarkTable, OpResult, Schedule};
use galois_runtime::probe::{Probe, RoundRecord};
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

/// Tree depth: the last level has `2^LEVELS` tasks.
const LEVELS: u32 = 13;

/// Rounds before the window first reaches this size are warm-up: they grow
/// every arena from empty, a few doublings each.
const WARM: u64 = 64;

/// Allocations one round may make per thread (its neighborhood, children
/// and birth arenas each grow at most once when a window doubles) ...
const PER_THREAD: u64 = 3;
/// ... plus the leader's: slot pool, merged children and births, and at a
/// pass boundary the pending buffer, the placement scratch and the flags.
const PER_ROUND: u64 = 8;

/// Records, per round, the allocations since the previous record and the
/// round's window.
#[derive(Default)]
struct GrowthProbe {
    last: Option<u64>,
    /// `(attempted, allocations)` for every round after the first.
    rounds: Vec<(u64, u64)>,
}

impl Probe for GrowthProbe {
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
        let before = ALLOC_EVENTS.load(Ordering::Relaxed);
        if let Some(last) = self.last {
            // Reserved up front, so this push never allocates.
            self.rounds.push((record.attempted, before - last));
        }
        // Snapshot after our own bookkeeping.
        self.last = Some(ALLOC_EVENTS.load(Ordering::Relaxed));
    }
}

#[test]
fn growth_rounds_and_pass_boundaries_allocate_a_constant() {
    let nodes = (1u64 << (LEVELS + 1)) - 1;
    for threads in [1usize, 2, 4] {
        let marks = MarkTable::new(nodes as usize);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire(*t as u32)?;
            ctx.failsafe()?;
            if 2 * *t + 2 < nodes {
                ctx.push(2 * *t + 1);
                ctx.push(2 * *t + 2);
            }
            Ok(())
        };
        let mut probe = GrowthProbe {
            rounds: Vec::with_capacity(1024),
            ..GrowthProbe::default()
        };
        let report = Executor::new()
            .threads(threads)
            .schedule(Schedule::deterministic())
            .iterate(vec![0u64])
            .probe(&mut probe)
            .run(&marks, &op);
        assert_eq!(report.stats.committed, nodes, "threads={threads}");

        let mut high_water = 0;
        let mut growth_rounds = 0;
        for &(attempted, allocs) in &probe.rounds {
            if attempted > high_water {
                high_water = attempted;
                growth_rounds += 1;
            }
            if high_water < WARM {
                continue;
            }
            let bound = PER_THREAD * threads as u64 + PER_ROUND;
            assert!(
                allocs <= bound,
                "a round of window {attempted} made {allocs} allocations \
                 (bound {bound}, threads={threads})"
            );
        }
        assert!(
            growth_rounds >= 10 && high_water >= 1 << (LEVELS - 1),
            "the window must double through several high-water marks \
             (saw {growth_rounds}, largest {high_water}, threads={threads})"
        );
    }
}
