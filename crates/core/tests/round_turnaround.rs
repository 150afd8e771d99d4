//! Round-turnaround properties of the epoch-tagged DIG scheduler.
//!
//! The scheduler retires each round's marks and abort flags with two epoch
//! bumps instead of per-location release CASes, and the workers — not the
//! leader — fill the window from the pending buffer. These tests pin down
//! the two properties that refactor must not disturb:
//!
//! 1. **Portability**: the committed order *and* the round geometry (window
//!    sizes, round count) are bit-identical across thread counts.
//! 2. **On-demand determinism**: deterministic and speculative executions
//!    interleave over one shared [`MarkTable`] — stale deterministic marks
//!    are invisible to speculative acquisition and vice versa.
//!
//! Plus the turnaround acceptance criterion itself: deterministic rounds
//! perform **zero** per-location release CASes.

use galois_core::{Ctx, Executor, MarkTable, OpResult, RunReport, Schedule};
use galois_runtime::simtime::ExecTrace;
use std::sync::Mutex;

const LOCS: usize = 16;

/// Conflict-heavy operator: task `t` acquires `{t mod L, (3t+1) mod L}` and
/// appends itself to both locations' logs; tasks below 40 push a child.
fn run_det(tasks: &[u64], threads: usize) -> (Vec<Vec<u64>>, RunReport) {
    let logs: Vec<Mutex<Vec<u64>>> = (0..LOCS).map(|_| Mutex::new(Vec::new())).collect();
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        let a = (*t % LOCS as u64) as u32;
        let b = ((3 * *t + 1) % LOCS as u64) as u32;
        ctx.acquire(a)?;
        ctx.acquire(b)?;
        ctx.failsafe()?;
        logs[a as usize].lock().unwrap().push(*t);
        if b != a {
            logs[b as usize].lock().unwrap().push(*t);
        }
        if *t < 40 {
            ctx.push(*t + 500);
        }
        Ok(())
    };
    let marks = MarkTable::new(LOCS);
    let report = Executor::new()
        .threads(threads)
        .schedule(Schedule::deterministic())
        .record_trace(true)
        .iterate(tasks.to_vec())
        .run(&marks, &op);
    assert!(marks.all_unowned(), "threads={threads} left marks owned");
    (
        logs.into_iter().map(|m| m.into_inner().unwrap()).collect(),
        report,
    )
}

/// Per-round window sizes, read off the recorded round trace.
fn window_sizes(report: &RunReport) -> Vec<u64> {
    match report.trace.as_ref().expect("trace requested") {
        ExecTrace::Rounds(log) => log.records().iter().map(|r| r.attempted).collect(),
        other => panic!("expected rounds trace, got {other:?}"),
    }
}

#[test]
fn committed_order_and_round_geometry_identical_across_thread_counts() {
    let tasks: Vec<u64> = (0..160).collect();
    let (ref_logs, ref_report) = run_det(&tasks, 1);
    let ref_windows = window_sizes(&ref_report);
    assert!(ref_report.stats.rounds > 1, "workload must span rounds");
    for threads in [2usize, 4, 8] {
        let (logs, report) = run_det(&tasks, threads);
        assert_eq!(logs, ref_logs, "threads={threads} changed the commit order");
        assert_eq!(
            window_sizes(&report),
            ref_windows,
            "threads={threads} changed the round geometry"
        );
        assert_eq!(report.stats.rounds, ref_report.stats.rounds);
        assert_eq!(report.stats.committed, ref_report.stats.committed);
        assert_eq!(report.stats.aborted, ref_report.stats.aborted);
    }
}

#[test]
fn deterministic_rounds_issue_zero_release_cases() {
    // The acceptance criterion of the epoch-mark protocol: the commit phase
    // performs no per-location release CAS at all; the avoided count equals
    // one per neighborhood location per attempt under the old protocol.
    let tasks: Vec<u64> = (0..200).collect();
    for threads in [1usize, 2, 4, 8] {
        let (_, report) = run_det(&tasks, threads);
        assert_eq!(
            report.stats.mark_releases, 0,
            "threads={threads}: deterministic rounds must not CAS-release"
        );
        assert!(
            report.stats.releases_avoided >= report.stats.committed,
            "threads={threads}: every attempt covers >= 1 location"
        );
    }
}

#[test]
fn speculative_runs_still_count_their_release_cases() {
    let marks = MarkTable::new(LOCS);
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        ctx.acquire((*t % LOCS as u64) as u32)?;
        ctx.failsafe()?;
        Ok(())
    };
    let report = Executor::new()
        .threads(2)
        .schedule(Schedule::Speculative)
        .iterate((0..300u64).collect())
        .run(&marks, &op);
    assert_eq!(report.stats.committed, 300);
    assert!(
        report.stats.mark_releases >= 300,
        "speculative executor keeps the per-location release protocol"
    );
    assert_eq!(report.stats.releases_avoided, 0);
}

#[test]
fn on_demand_schedulers_share_one_mark_table() {
    // §1's on-demand promise: one program, one mark table, scheduler chosen
    // per loop. Run deterministic → speculative → deterministic over the
    // same table; stale epoch-retired marks must be invisible to the
    // speculative CAS protocol and speculative raw zeros to the epoch one.
    let marks = MarkTable::new(LOCS);
    let sum = std::sync::atomic::AtomicU64::new(0);
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        ctx.acquire((*t % LOCS as u64) as u32)?;
        ctx.failsafe()?;
        sum.fetch_add(*t, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    };
    let det = Executor::new()
        .threads(4)
        .schedule(Schedule::deterministic());
    let spec = Executor::new().threads(4).schedule(Schedule::Speculative);

    let r1 = det.iterate((0..100u64).collect()).run(&marks, &op);
    assert_eq!(r1.stats.committed, 100);
    assert!(marks.all_unowned());

    let r2 = spec.iterate((100..200u64).collect()).run(&marks, &op);
    assert_eq!(r2.stats.committed, 100);
    assert!(marks.all_unowned());

    let r3 = det.iterate((200..300u64).collect()).run(&marks, &op);
    assert_eq!(r3.stats.committed, 100);
    assert!(marks.all_unowned());

    assert_eq!(
        sum.load(std::sync::atomic::Ordering::Relaxed),
        (0..300u64).sum::<u64>()
    );
}

#[test]
fn dedup_dropped_surfaces_preassigned_id_collisions() {
    // `run_with_ids` deduplicates equal-id initial tasks by contract; the
    // count of silently dropped tasks must be observable so callers can tell
    // intentional dedup from an id-function bug.
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        ctx.acquire((*t % 32) as u32)?;
        ctx.failsafe()?;
        Ok(())
    };
    let marks = MarkTable::new(32);
    let mut tasks: Vec<u64> = (0..32).collect();
    tasks.extend(0..16u64); // 16 duplicate ids
    let report = Executor::new()
        .threads(2)
        .schedule(Schedule::deterministic())
        .iterate(tasks)
        .with_ids(|t| *t, 32)
        .run(&marks, &op);
    assert_eq!(report.stats.committed, 32);
    assert_eq!(report.stats.dedup_dropped, 16, "dropped tasks are counted");

    // Collision-free ids report zero.
    let marks = MarkTable::new(32);
    let report = Executor::new()
        .threads(2)
        .schedule(Schedule::deterministic())
        .iterate((0..32u64).collect())
        .with_ids(|t| *t, 32)
        .run(&marks, &op);
    assert_eq!(report.stats.committed, 32);
    assert_eq!(report.stats.dedup_dropped, 0);

    // The plain `run` path never dedups: equal payloads get distinct ids.
    let marks = MarkTable::new(32);
    let mut tasks: Vec<u64> = (0..32).collect();
    tasks.extend(0..16u64);
    let report = Executor::new()
        .threads(2)
        .schedule(Schedule::deterministic())
        .iterate(tasks)
        .run(&marks, &op);
    assert_eq!(report.stats.committed, 48);
    assert_eq!(report.stats.dedup_dropped, 0);
}

#[test]
fn preassigned_ids_keep_the_first_task_of_each_id_in_input_order() {
    // `(payload, id)` tasks: 6 000 distinct payloads in permuted order over
    // 2 000 hashed ids, so most ids repeat a different number of times. The
    // dedup contract is "the first task of each id in input order
    // survives"; only a stable id sort keeps it.
    const N: u64 = 6_000;
    const IDS: u64 = 2_000;
    let tasks: Vec<(u64, u64)> = (0..N)
        .map(|i| {
            let payload = i.wrapping_mul(2_654_435_761) % N;
            let id = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % IDS;
            (payload, id)
        })
        .collect();
    let mut first: Vec<Option<u64>> = vec![None; IDS as usize];
    for &(payload, id) in &tasks {
        first[id as usize].get_or_insert(payload);
    }
    let distinct = first.iter().flatten().count() as u64;
    assert!(
        distinct < N && distinct > IDS / 2,
        "{distinct} distinct ids"
    );

    for threads in [1usize, 2, 3] {
        let committed: Vec<Mutex<Option<u64>>> = (0..IDS).map(|_| Mutex::new(None)).collect();
        let op = |t: &(u64, u64), ctx: &mut Ctx<'_, (u64, u64)>| -> OpResult {
            ctx.acquire(t.1 as u32)?;
            ctx.failsafe()?;
            let mut slot = committed[t.1 as usize].lock().unwrap();
            assert!(slot.is_none(), "id {} committed twice", t.1);
            *slot = Some(t.0);
            Ok(())
        };
        let marks = MarkTable::new(IDS as usize);
        let report = Executor::new()
            .threads(threads)
            .schedule(Schedule::deterministic())
            .iterate(tasks.clone())
            .with_ids(|t| t.1, IDS as usize)
            .run(&marks, &op);
        assert_eq!(report.stats.committed, distinct, "threads={threads}");
        assert_eq!(
            report.stats.dedup_dropped,
            N - distinct,
            "threads={threads}"
        );
        let got: Vec<Option<u64>> = committed
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        assert_eq!(got, first, "threads={threads}: a later duplicate survived");
    }
}
