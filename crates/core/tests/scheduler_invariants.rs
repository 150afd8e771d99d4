//! Invariants of the schedulers, tested through the public API.

use galois_core::{
    Ctx, DetOptions, Executor, MarkTable, OpResult, Schedule, WindowPolicy, WorklistPolicy,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tasks contend on `locs` locations; half push one child each.
fn contended_op<'a>(
    locs: u64,
    sum: &'a AtomicU64,
) -> impl Fn(&u64, &mut Ctx<'_, u64>) -> OpResult + Sync + 'a {
    move |t: &u64, ctx: &mut Ctx<'_, u64>| {
        ctx.acquire((*t % locs) as u32)?;
        ctx.acquire(((*t + 1) % locs) as u32)?;
        ctx.failsafe()?;
        sum.fetch_add(*t, Ordering::Relaxed);
        if *t >= 1000 && *t < 1000 + locs / 2 {
            ctx.push(*t - 1000);
        }
        Ok(())
    }
}

#[test]
fn det_inspected_equals_attempts_and_marks_end_clean() {
    let locs = 32u64;
    let sum = AtomicU64::new(0);
    let marks = MarkTable::new(locs as usize);
    let op = contended_op(locs, &sum);
    let tasks: Vec<u64> = (1000..1000 + 2 * locs).collect();
    let report = Executor::new()
        .threads(3)
        .schedule(Schedule::deterministic())
        .iterate(tasks)
        .run(&marks, &op);
    // Every attempted task is inspected exactly once per round it appears in.
    assert_eq!(
        report.stats.inspected,
        report.stats.committed + report.stats.aborted
    );
    assert!(marks.all_unowned(), "all marks released");
    // 2*locs initial + locs/2 children.
    assert_eq!(report.stats.committed, 2 * locs + locs / 2);
}

#[test]
fn spec_commits_initial_plus_children() {
    let locs = 32u64;
    let sum = AtomicU64::new(0);
    let marks = MarkTable::new(locs as usize);
    let op = contended_op(locs, &sum);
    let tasks: Vec<u64> = (1000..1000 + 2 * locs).collect();
    let report = Executor::new()
        .threads(4)
        .schedule(Schedule::Speculative)
        .iterate(tasks)
        .run(&marks, &op);
    assert_eq!(report.stats.committed, 2 * locs + locs / 2);
    assert!(marks.all_unowned());
}

#[test]
fn all_schedules_compute_the_same_commutative_sum() {
    let locs = 16u64;
    let tasks: Vec<u64> = (1000..1600).collect();
    let mut sums = Vec::new();
    for schedule in [
        Schedule::Serial,
        Schedule::Speculative,
        Schedule::deterministic(),
    ] {
        let sum = AtomicU64::new(0);
        let marks = MarkTable::new(locs as usize);
        let op = contended_op(locs, &sum);
        Executor::new()
            .threads(2)
            .schedule(schedule)
            .iterate(tasks.clone())
            .run(&marks, &op);
        sums.push(sum.load(Ordering::Relaxed));
    }
    assert_eq!(sums[0], sums[1]);
    assert_eq!(sums[0], sums[2]);
}

#[test]
fn every_round_commits_at_least_one_task() {
    // All tasks share a single location: total serialization, so the round
    // count equals the task count — and never exceeds it (progress).
    let marks = MarkTable::new(1);
    let log = Mutex::new(Vec::new());
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        ctx.acquire(0u32)?;
        ctx.failsafe()?;
        log.lock().unwrap().push(*t);
        Ok(())
    };
    let n = 50u64;
    let report = Executor::new()
        .threads(2)
        .schedule(Schedule::deterministic())
        .iterate((0..n).collect())
        .run(&marks, &op);
    assert_eq!(report.stats.committed, n);
    assert!(report.stats.rounds <= n, "progress guarantee");
}

#[test]
fn tiny_window_policy_still_terminates_with_same_output() {
    // The window constants are part of the algorithm; any valid constants
    // must still terminate and commit everything (though the schedule — and
    // for order-sensitive operators the output — may differ).
    let run = |policy: WindowPolicy| {
        let marks = MarkTable::new(8);
        let count = AtomicU64::new(0);
        let op = |_t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire(0u32)?;
            ctx.failsafe()?;
            count.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let report = Executor::new()
            .schedule(Schedule::Deterministic(DetOptions {
                window: policy,
                ..Default::default()
            }))
            .iterate((0..200u64).collect())
            .run(&marks, &op);
        (
            count.load(Ordering::Relaxed),
            report.stats.committed,
            report.stats.rounds,
        )
    };
    let tiny = run(WindowPolicy {
        min_window: 1,
        max_window: 2,
        ..Default::default()
    });
    let huge = run(WindowPolicy {
        min_window: 100_000,
        max_window: 1 << 20,
        ..Default::default()
    });
    assert_eq!(tiny.0, 200);
    assert_eq!(huge.0, 200);
    assert!(
        tiny.2 >= huge.2,
        "smaller windows mean at least as many rounds"
    );
}

#[test]
fn preassigned_ids_give_node_order_priority() {
    // With pre-assigned ids and a single shared location, the LOWEST id
    // never commits first... rather: each round the max id in the window
    // commits. With window >= all tasks, order is highest-first.
    let marks = MarkTable::new(1);
    let log = Mutex::new(Vec::new());
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        ctx.acquire(0u32)?;
        ctx.failsafe()?;
        log.lock().unwrap().push(*t);
        Ok(())
    };
    let report = Executor::new()
        .schedule(Schedule::Deterministic(DetOptions {
            window: WindowPolicy {
                min_window: 64,
                max_window: 64,
                ..Default::default()
            },
            ..Default::default()
        }))
        .iterate((0..20u64).collect())
        .with_ids(|t| *t, 20)
        .run(&marks, &op);
    assert_eq!(report.stats.committed, 20);
    let order = log.into_inner().unwrap();
    assert_eq!(
        order,
        (0..20u64).rev().collect::<Vec<_>>(),
        "single-location contention commits the round's max id first"
    );
}

#[test]
fn worklist_policy_does_not_change_speculative_totals() {
    for policy in [WorklistPolicy::Lifo, WorklistPolicy::Fifo] {
        let marks = MarkTable::new(64);
        let count = AtomicU64::new(0);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire((*t % 64) as u32)?;
            ctx.failsafe()?;
            count.fetch_add(1, Ordering::Relaxed);
            if *t < 100 {
                ctx.push(*t + 1000);
            }
            Ok(())
        };
        let report = Executor::new()
            .threads(3)
            .schedule(Schedule::Speculative)
            .worklist(policy)
            .iterate((0..100u64).collect())
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 200, "{policy:?}");
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }
}

#[test]
fn nested_generations_keep_deterministic_order() {
    // Three generations of task creation with conflicts. Determinism is
    // per-location: tasks sharing a location serialize in a deterministic
    // order, so each location's commit log must be identical across thread
    // counts. (A single global log would also record the *wall-clock*
    // interleaving of independent tasks, which no scheduler specifies.)
    let run = |threads: usize| {
        let marks = MarkTable::new(4);
        let logs: Vec<Mutex<Vec<u64>>> = (0..4).map(|_| Mutex::new(Vec::new())).collect();
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            let l = (*t % 4) as u32;
            ctx.acquire(l)?;
            ctx.failsafe()?;
            logs[l as usize].lock().unwrap().push(*t);
            if *t < 100 {
                ctx.push(*t + 100);
                ctx.push(*t + 200);
            } else if *t < 300 {
                ctx.push(*t + 1000);
            }
            Ok(())
        };
        Executor::new()
            .threads(threads)
            .schedule(Schedule::deterministic())
            .iterate((0..20u64).collect())
            .run(&marks, &op);
        logs.into_iter()
            .map(|l| l.into_inner().unwrap())
            .collect::<Vec<_>>()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.iter().map(|l| l.len()).sum::<usize>(), 20 + 40 + 40);
    assert_eq!(a, b);
}

#[test]
fn trace_and_access_recording_compose() {
    // One thread records one ordered stream: each round's inspect reads,
    // then, per committed task, its commit-time reads followed by its
    // writes. Every task acquires two distinct locations, so a commit's
    // writes must be exactly the two locations it just read — its own
    // inspect-time neighborhood, never more of the thread's arena.
    let marks = MarkTable::new(16);
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        ctx.acquire((*t % 16) as u32)?;
        ctx.acquire(((*t + 1) % 16) as u32)?;
        ctx.failsafe()?;
        Ok(())
    };
    let report = Executor::new()
        .threads(1)
        .schedule(Schedule::deterministic())
        .record_trace(true)
        .record_access(true)
        .iterate((0..64u64).collect())
        .run(&marks, &op);
    assert!(report.trace.is_some());
    let stats = &report.stats;
    assert_eq!(stats.committed, 64);
    assert!(
        stats.aborted > 0,
        "neighborhoods overlap, so rounds conflict"
    );
    let accesses = report.accesses.unwrap();
    assert_eq!(accesses.len(), 1, "one stream per thread");
    let stream = &accesses[0];
    assert_eq!(
        stream.len() as u64,
        2 * stats.inspected + 4 * stats.committed,
        "two reads per inspect; two reads and two writes per commit"
    );
    let mut groups = 0;
    let mut i = 0;
    while i < stream.len() {
        if !stream[i].write {
            i += 1;
            continue;
        }
        let end = (i..stream.len())
            .find(|&j| !stream[j].write)
            .unwrap_or(stream.len());
        assert!(i >= 2, "writes at {i} follow no commit reads");
        let reads: Vec<u32> = stream[i - 2..i].iter().map(|a| a.loc).collect();
        let writes: Vec<u32> = stream[i..end].iter().map(|a| a.loc).collect();
        assert!(stream[i - 2..i].iter().all(|a| !a.write));
        assert_eq!(writes, reads, "commit writes at {i} are not the task's own");
        groups += 1;
        i = end;
    }
    assert_eq!(groups, 64, "one write group per committed task");
}

/// Tree expansion with overlapping neighborhoods. Each task pushes its first
/// child *before* its failsafe point — a buffered push is not a shared
/// write, so a cautious operator may — and its second child after, so an
/// attempt that aborts or panics at the failsafe has already created a
/// child the executor must discard.
fn retry_op<'a>(
    nodes: u64,
    ran: &'a Mutex<Vec<u64>>,
    committed: &'a Mutex<Vec<u64>>,
) -> impl Fn(&u64, &mut Ctx<'_, u64>) -> OpResult + Sync + 'a {
    move |t: &u64, ctx: &mut Ctx<'_, u64>| {
        ran.lock().unwrap().push(*t);
        ctx.acquire((*t % 24) as u32)?;
        ctx.acquire((*t / 2 % 24) as u32)?;
        let children = 2 * *t + 2 < nodes;
        if children {
            ctx.push(2 * *t + 1);
        }
        ctx.failsafe()?;
        if children {
            ctx.push(2 * *t + 2);
        }
        committed.lock().unwrap().push(*t);
        Ok(())
    }
}

#[test]
fn chaos_retries_discard_the_children_of_failed_attempts() {
    const NODES: u64 = 1023;
    let run = |threads: usize, chaos: Option<u64>, panics: bool| {
        let ran = Mutex::new(Vec::new());
        let committed = Mutex::new(Vec::new());
        let marks = MarkTable::new(24);
        let op = retry_op(NODES, &ran, &committed);
        let mut exec = Executor::new()
            .threads(threads)
            .schedule(Schedule::deterministic())
            .record_rounds(true);
        exec = match chaos {
            Some(seed) if panics => exec.chaos_panics(seed),
            Some(seed) => exec.chaos(seed),
            None => exec,
        };
        let outcome = exec.iterate(vec![0u64]).try_run(&marks, &op);
        drop(op);
        let mut committed = committed.into_inner().unwrap();
        committed.sort_unstable();
        (outcome, ran.into_inner().unwrap(), committed)
    };

    let (clean, _, clean_tasks) = run(1, None, false);
    let clean = clean.expect("the chaos-free run completes");
    assert_eq!(clean_tasks, (0..NODES).collect::<Vec<_>>());
    let clean_log = clean
        .round_log()
        .expect("rounds recorded")
        .canonical_jsonl();

    // Injected aborts retry in place: same commits, same created tasks,
    // same rounds — the aborted attempts' early children are gone.
    let mut injected = 0;
    for threads in [1usize, 2, 3, 4] {
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            let (report, _, tasks) = run(threads, Some(seed), false);
            let report = report.expect("injected aborts are not faults");
            let tag = format!("threads={threads} seed={seed}");
            assert_eq!(report.stats.committed, NODES, "{tag}");
            assert_eq!(tasks, clean_tasks, "{tag}: created tasks differ");
            let log = report
                .round_log()
                .expect("rounds recorded")
                .canonical_jsonl();
            assert_eq!(log, clean_log, "{tag}: round log differs");
            injected += report.stats.injected_aborts;
        }
    }
    assert!(injected > 0, "chaos never injected an abort");

    // Injected panics quarantine: the fault report is the same at every
    // thread count, and no child of a quarantined attempt ever runs.
    let mut faulted = 0;
    for seed in [1u64, 2, 3, 7] {
        let (reference, _, _) = run(1, Some(seed), true);
        let reference = reference.err();
        faulted += usize::from(reference.is_some());
        for threads in [1usize, 2, 3, 4] {
            let (outcome, ran, committed) = run(threads, Some(seed), true);
            assert_eq!(outcome.err(), reference, "threads={threads} seed={seed}");
            for t in ran.into_iter().filter(|&t| t > 0) {
                assert!(
                    committed.binary_search(&((t - 1) / 2)).is_ok(),
                    "task {t} ran, but its parent never committed \
                     (threads={threads} seed={seed})"
                );
            }
        }
    }
    assert!(faulted > 0, "chaos never injected a panic");
}
