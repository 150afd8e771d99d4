//! Thin rounds — windows of at most 16 tasks — run inline on the leader with
//! zero barrier crossings; wider rounds run on every thread with one
//! contiguous slot range each. Who executes a slot is not an input to the
//! schedule, so everything observable must be identical at 1/2/4/8 threads:
//! commit order, round count, commit/abort counts, the canonical round log,
//! which rounds were inline, and the fault report of a panicking operator.

use galois_core::{Ctx, ExecError, Executor, MarkTable, OpResult, Schedule};
use galois_runtime::simtime::ExecTrace;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Windows this size or smaller run inline (`det.rs`'s private constant).
const INLINE_WINDOW: u64 = 16;
/// Abstract locations; location 0 is the one every "hot" task fights over.
const LOCS: usize = 512;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// What a run exposes of its schedule.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per-location commit logs: commits to one location are serialized by
    /// the schedule, so each log's order is schedule-determined.
    order: Vec<Vec<u64>>,
    /// What a completed run reports, or the fault that stopped it early.
    outcome: Result<Completed, ExecError>,
}

#[derive(Debug, PartialEq)]
struct Completed {
    rounds: u64,
    committed: u64,
    aborted: u64,
    /// Canonical round log bytes.
    log: String,
    /// Each round's `(attempted, committed, failed)`.
    counts: Vec<(u64, u64, u64)>,
    /// Each round's `(window, barriers)`.
    shape: Vec<(u64, u32)>,
}

/// A task list `0..tasks`. Tasks below `hot` all acquire location 0 (at
/// most one commits per round) and push `children` tasks each; every other
/// task acquires a location of its own. `cursed` panics before its failsafe
/// point.
#[derive(Clone, Copy)]
struct Load {
    tasks: u64,
    hot: u64,
    children: u64,
    cursed: Option<u64>,
}

/// 40 tasks that all conflict: the window sits at its floor of 16 from the
/// first round to the last.
const FLOOR: Load = Load {
    tasks: 40,
    hot: 40,
    children: 0,
    cursed: None,
};

/// 20 hot tasks lead 380 disjoint ones: the window starts at 100, shrinks
/// to the floor while the hot tasks drain one per round, and is wide again
/// for the second pass — the 200 disjoint children.
const CROSSING: Load = Load {
    tasks: 400,
    hot: 20,
    children: 10,
    cursed: None,
};

fn observe(load: Load, exec: Executor) -> Observed {
    let logs: Vec<Mutex<Vec<u64>>> = (0..LOCS).map(|_| Mutex::new(Vec::new())).collect();
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        let hot = *t < load.hot;
        let loc = if hot { 0 } else { 1 + *t as usize % (LOCS - 1) };
        ctx.acquire(loc as u32)?;
        if load.cursed == Some(*t) {
            panic!("task {t} is cursed");
        }
        ctx.failsafe()?;
        logs[loc].lock().unwrap().push(*t);
        if hot {
            for k in 0..load.children {
                ctx.push(load.tasks + *t * load.children + k);
            }
        }
        Ok(())
    };
    let marks = MarkTable::new(LOCS);
    let result = exec
        .schedule(Schedule::deterministic())
        .record_rounds(true)
        .iterate((0..load.tasks).collect())
        .try_run(&marks, &op);
    assert!(marks.all_unowned(), "run left marks owned");
    let outcome = result.map(|report| {
        let log = report.round_log().expect("record_rounds was on");
        Completed {
            rounds: report.stats.rounds,
            committed: report.stats.committed,
            aborted: report.stats.aborted,
            log: log.canonical_jsonl(),
            counts: log
                .records()
                .iter()
                .map(|r| (r.attempted, r.committed, r.failed))
                .collect(),
            shape: log
                .records()
                .iter()
                .map(|r| (r.attempted, r.barriers))
                .collect(),
        }
    });
    Observed {
        order: logs.into_iter().map(|l| l.into_inner().unwrap()).collect(),
        outcome,
    }
}

/// Runs `make(threads)` at every thread count and returns the one
/// observation they all agree on.
fn same_at_every_thread_count(make: impl Fn(usize) -> Observed) -> Observed {
    let reference = make(1);
    for threads in &THREADS[1..] {
        assert_eq!(make(*threads), reference, "threads={threads}");
    }
    reference
}

fn completed(o: &Observed) -> &Completed {
    o.outcome.as_ref().expect("run completed")
}

#[test]
fn all_conflicting_tasks_stay_at_the_window_floor_and_never_cross_a_barrier() {
    let o = same_at_every_thread_count(|t| observe(FLOOR, Executor::new().threads(t)));
    let run = completed(&o);
    assert_eq!(run.committed, 40);
    assert!(run.rounds >= 40, "one commit per round");
    assert!(
        run.shape.iter().all(|&(w, b)| w <= INLINE_WINDOW && b == 0),
        "every round is thin: {:?}",
        run.shape
    );
}

#[test]
fn window_crossing_the_constant_both_ways_keeps_the_schedule() {
    let o = same_at_every_thread_count(|t| observe(CROSSING, Executor::new().threads(t)));
    let run = completed(&o);
    assert_eq!(run.committed, 600);
    let barriers: Vec<u32> = run.shape.iter().map(|&(_, b)| b).collect();
    for &(w, b) in &run.shape {
        assert_eq!(b, if w <= INLINE_WINDOW { 0 } else { 2 }, "window {w}");
    }
    let first_thin = barriers.iter().position(|&b| b == 0).expect("a thin round");
    assert!(first_thin > 0, "the run starts wide: {barriers:?}");
    assert!(
        barriers[first_thin..].contains(&2),
        "the window grows back past the constant: {barriers:?}"
    );
}

#[test]
fn operator_panic_inside_an_inline_round_reports_identically() {
    // Every round is inline; task 30 first enters a window in round 15 and
    // panics in its inspect run there, having out-marked its round-mates.
    let load = Load {
        cursed: Some(30),
        ..FLOOR
    };
    let o = same_at_every_thread_count(|t| observe(load, Executor::new().threads(t)));
    assert_eq!(
        o.outcome,
        Err(ExecError::OperatorPanic {
            task_id: 30,
            message: "task 30 is cursed".into(),
            round: 15,
        })
    );
    assert_eq!(
        o.order[0].len(),
        15,
        "one commit per round before the fault"
    );
}

#[test]
fn chaos_seeds_perturb_nothing_in_thin_or_wide_rounds() {
    let calm = observe(CROSSING, Executor::new().threads(1));
    for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
        let o = same_at_every_thread_count(|t| {
            observe(CROSSING, Executor::new().threads(t).chaos(seed))
        });
        assert_eq!(o, calm, "seed={seed}");
    }
    // Injected panics are pure in (seed, task id): same report everywhere.
    let mut faulted = 0;
    for seed in 1u64..=6 {
        let o = same_at_every_thread_count(|t| {
            observe(CROSSING, Executor::new().threads(t).chaos_panics(seed))
        });
        faulted += usize::from(matches!(o.outcome, Err(ExecError::OperatorPanic { .. })));
    }
    assert!(faulted > 0, "no seed ever injected a panic");
}

#[test]
fn inline_round_after_a_parallel_round_counts_only_its_own_commits() {
    // Round records are built from the per-thread out-buffers: an inline
    // round that found a worker's previous round still in its buffer would
    // report more commits than it attempted.
    let o = observe(CROSSING, Executor::new().threads(4));
    let run = completed(&o);
    assert!(run
        .counts
        .windows(2)
        .any(|w| w[0].0 > INLINE_WINDOW && w[1].0 <= INLINE_WINDOW));
    for (round, &(attempted, committed, failed)) in run.counts.iter().enumerate() {
        assert_eq!(committed + failed, attempted, "round {round}");
    }
    let total: u64 = run.counts.iter().map(|c| c.1).sum();
    assert_eq!(total, 600);
    assert_eq!(run.committed, 600);
}

#[test]
fn inline_rounds_time_their_phases_and_keep_operator_time_out_of_the_serial_tail() {
    // Every round is inline and every operator call burns 20 µs, so the
    // phase timers must hold (at least) that and the serial tail must not.
    let burn = Duration::from_micros(20);
    let marks = MarkTable::new(LOCS);
    let op = |_: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        ctx.acquire(0u32)?;
        let t0 = Instant::now();
        while t0.elapsed() < burn {
            std::hint::spin_loop();
        }
        ctx.failsafe()?;
        Ok(())
    };
    let report = Executor::new()
        .threads(2)
        .schedule(Schedule::deterministic())
        .record_rounds(true)
        .record_trace(true)
        .iterate((0..40u64).collect())
        .run(&marks, &op);
    let burn_ns = burn.as_nanos() as f64;
    let records = report.round_log().expect("record_rounds was on").records();
    for r in records {
        assert!(r.attempted <= INLINE_WINDOW);
        assert!(r.inspect_ns >= burn_ns * r.attempted as f64, "{r:?}");
        assert!(r.commit_ns >= burn_ns * r.committed as f64, "{r:?}");
    }
    let operator_ns: f64 = records.iter().map(|r| r.inspect_ns + r.commit_ns).sum();
    let serial_ns: f64 = records.iter().map(|r| r.serial_ns).sum();
    assert!(
        serial_ns < operator_ns / 2.0,
        "serial tail {serial_ns} ns was billed operator time ({operator_ns} ns)"
    );
    assert!(records.iter().all(|r| r.barriers == 0), "{records:?}");
    // The model replays these very records.
    let Some(ExecTrace::Rounds(trace)) = &report.trace else {
        panic!("deterministic run must record a rounds trace");
    };
    assert_eq!(trace.records(), records);
}
