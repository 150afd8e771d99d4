//! The non-deterministic speculative executor (Figure 1b).
//!
//! Worker threads repeatedly pull an arbitrary task from a chunked bag, run
//! the operator while acquiring marks with compare-and-set, and either commit
//! (releasing marks and enqueueing created tasks) or roll back on conflict
//! (releasing marks and re-enqueueing the task). Because operators are
//! cautious, rollback never has to undo shared-state writes — this is the
//! lightweight dining-philosophers synchronization of §2.1.
//!
//! The speculative executor has no rounds, so an attached probe or recorder
//! sees no `on_round` calls — only `on_finish` with the run's statistics.

use crate::ctx::{Abort, Access, Ctx, Mode};
use crate::error::{contain_panic, panic_message, ExecError, QUARANTINE_CAP};
use crate::executor::WorklistPolicy;
use crate::executor::{Executor, RunReport};
use crate::marks::MarkTable;
use crate::ops::Operator;
use galois_runtime::pool::run_on_threads_fault;
use galois_runtime::simtime::ExecTrace;
use galois_runtime::stats::{ExecStats, ThreadStats};
use galois_runtime::worklist::{ChunkedBag, ChunkedFifo, Terminator};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Second opinion before the stall watchdog declares a livelock. An abort
/// streak alone is not proof: spinning contenders can rack up thousands of
/// conflicts in the time a descheduled mark-holder waits for a CPU slice.
/// Yielding repeatedly hands that holder the processor — if the commit
/// counter is still frozen after every peer had ample chance to run, no
/// retry anywhere can succeed and the stall is real.
fn stall_confirmed(committed: &AtomicU64, snapshot: &mut u64) -> bool {
    let before = committed.load(Ordering::Relaxed);
    if before != *snapshot {
        *snapshot = before;
        return false;
    }
    for _ in 0..256 {
        std::thread::yield_now();
        let now = committed.load(Ordering::Relaxed);
        if now != before {
            *snapshot = now;
            return false;
        }
    }
    true
}

/// Static dispatch over the two worklist policies.
enum AnyBag<T> {
    Lifo(ChunkedBag<T>),
    Fifo(ChunkedFifo<T>),
}

impl<T: Send> AnyBag<T> {
    fn push(&self, tid: usize, item: T) {
        match self {
            AnyBag::Lifo(b) => b.push(tid, item),
            AnyBag::Fifo(q) => q.push(tid, item),
        }
    }

    fn pop(&self, tid: usize) -> Option<T> {
        match self {
            AnyBag::Lifo(b) => b.pop(tid),
            AnyBag::Fifo(q) => q.pop(tid),
        }
    }
}

pub(crate) fn run<T, O>(
    cfg: &Executor,
    marks: &MarkTable,
    tasks: Vec<T>,
    op: &O,
) -> (RunReport, Option<ExecError>)
where
    T: Send,
    O: Operator<T>,
{
    let threads = cfg.threads;
    let start = Instant::now();
    let bag: AnyBag<T> = match cfg.worklist {
        WorklistPolicy::Lifo => AnyBag::Lifo(ChunkedBag::with_chaos(threads, cfg.chaos.clone())),
        WorklistPolicy::Fifo => AnyBag::Fifo(ChunkedFifo::with_chaos(threads, cfg.chaos.clone())),
    };
    let terminator = Terminator::new();
    terminator.register(tasks.len());
    for (i, t) in tasks.into_iter().enumerate() {
        bag.push(i % threads, t);
    }

    let collected: Mutex<Vec<(ThreadStats, Vec<Access>)>> = Mutex::new(Vec::new());

    // Fault containment state. `halt` drains the pool early on terminal
    // faults (overflow, stall) and when an *escaping* panic — an internal
    // bug, since operator panics are caught below — unwinds a worker; the
    // fault hook raises it so peers stop polling the bag instead of
    // spinning on a terminator that can no longer reach zero.
    let halt = AtomicBool::new(false);
    let committed_global = AtomicU64::new(0);
    let quarantined_total = AtomicU64::new(0);
    // First operator panic a worker happened to observe: reported if the
    // drain otherwise completes. Non-canonical by design (spec mode is
    // honestly nondeterministic); det mode is the reproducible surface.
    let first_panic: Mutex<Option<ExecError>> = Mutex::new(None);
    // Terminal faults that stop the run take precedence over a recorded
    // first panic when both occur.
    let terminal: Mutex<Option<ExecError>> = Mutex::new(None);

    run_on_threads_fault(
        threads,
        cfg.chaos.as_deref(),
        Some(&|| halt.store(true, Ordering::Relaxed)),
        |tid| {
            let mut stats = ThreadStats::default();
            let mut accesses: Vec<Access> = Vec::new();
            let mut neighborhood: Vec<crate::marks::LockId> = Vec::new();
            let mut pushes: Vec<T> = Vec::new();
            let mut stash = None;
            // Per-attempt unique ids: (tid+1) above bit 32, counter below. Ids
            // need only be unique and nonzero for the CAS protocol (§2.1), but
            // they must fit the mark word's 40-bit id field so the epoch tag in
            // the high bits stays intact.
            let mut attempt: u64 = 0;
            let mut idle_spins = 0u32;
            // Stall watchdog bookkeeping: consecutive real-conflict aborts on
            // this worker, reset whenever anyone commits. Counted in attempts
            // (the speculative analogue of rounds), never wall-clock.
            let mut abort_streak: u64 = 0;
            let mut commit_snapshot: u64 = 0;

            loop {
                if halt.load(Ordering::Relaxed) {
                    break;
                }
                let Some(task) = bag.pop(tid) else {
                    if terminator.is_done() {
                        break;
                    }
                    idle_spins += 1;
                    if idle_spins > 16 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                    continue;
                };
                idle_spins = 0;
                attempt += 1;
                debug_assert!(attempt < 1 << 32, "attempt counter overflows the id split");
                let mark_value = ((tid as u64 + 1) << 32) | attempt;
                debug_assert!(
                    mark_value <= crate::marks::MAX_ID,
                    "speculative id must fit the 40-bit mark field"
                );
                neighborhood.clear();
                pushes.clear();
                // Chaos: a pure draw keyed on the per-attempt id decides whether
                // this attempt is forced to abort at its failsafe point. Keying
                // on the attempt (not the task) guarantees termination: the
                // retry gets a fresh id and, almost surely, a non-aborting draw.
                let inject = cfg
                    .chaos
                    .as_deref()
                    .is_some_and(|c| c.inject_spec_abort(mark_value));
                let inject_panic = cfg
                    .chaos
                    .as_deref()
                    .is_some_and(|c| c.inject_spec_panic(mark_value));
                let result = {
                    let mut ctx = Ctx {
                        mode: Mode::Speculative,
                        mark_value,
                        tid,
                        marks,
                        neighborhood: &mut neighborhood,
                        pushes: &mut pushes,
                        flags: None,
                        stash: &mut stash,
                        allow_stash: false,
                        stats: &mut stats,
                        recorder: cfg.record_access.then_some(&mut accesses),
                        conflicts: None,
                        past_failsafe: false,
                        inject_abort: inject,
                        inject_panic: inject_panic.then_some(mark_value),
                    };
                    // Contain operator panics like conflicts: the cautious
                    // contract means nothing shared was written pre-failsafe, so
                    // releasing the marks below is a complete rollback.
                    contain_panic(|| {
                        let r = op.run(&task, &mut ctx);
                        if r.is_ok() {
                            ctx.record_neighborhood_writes();
                        }
                        r
                    })
                };
                // Both paths release the whole neighborhood (Figure 1b resets
                // marks whether the task committed or conflicted). Unlike the
                // deterministic scheduler there is no round boundary to hang an
                // epoch bump on, so the per-location CAS protocol stays.
                for &loc in neighborhood.iter() {
                    marks.release(loc, mark_value);
                }
                stats.mark_releases += neighborhood.len() as u64;
                match result {
                    Ok(Ok(())) => {
                        stats.committed += 1;
                        committed_global.fetch_add(1, Ordering::Relaxed);
                        abort_streak = 0;
                        let n = pushes.len();
                        if n > 0 {
                            terminator.register(n);
                            for p in pushes.drain(..) {
                                bag.push(tid, p);
                            }
                        }
                        terminator.finish_one();
                    }
                    Ok(Err(Abort::Injected)) => {
                        // Spurious abort forced by the chaos policy: re-enqueue
                        // like a conflict, but the real-conflict counter (and so
                        // the Figure 4 abort ratio) must not move.
                        bag.push(tid, task);
                        std::hint::spin_loop();
                    }
                    Ok(Err(_)) => {
                        stats.aborted += 1;
                        bag.push(tid, task);
                        // Stall watchdog: a long unbroken streak of real
                        // conflicts on this worker, with the global commit
                        // counter frozen across the whole streak, means every
                        // retry is losing to nobody — the operator livelocks
                        // (e.g. it returns a conflict abort unconditionally).
                        abort_streak += 1;
                        if abort_streak == 1 {
                            commit_snapshot = committed_global.load(Ordering::Relaxed);
                        }
                        if abort_streak >= cfg.max_stalled_rounds {
                            if stall_confirmed(&committed_global, &mut commit_snapshot) {
                                *terminal.lock().unwrap() = Some(ExecError::Stalled {
                                    rounds: abort_streak,
                                });
                                halt.store(true, Ordering::Relaxed);
                                break;
                            }
                            // Someone committed: real contention, not a
                            // livelock. Restart the streak against the new
                            // commit level.
                            abort_streak = 0;
                        }
                        // Brief backoff so the conflicting owner can finish.
                        std::hint::spin_loop();
                    }
                    Err(payload) => {
                        // Operator panic: quarantine the attempt. The task is
                        // consumed (never retried — a panic is not a conflict),
                        // so the terminator still reaches zero and the drain
                        // completes; the fault is reported after the run.
                        stats.quarantined += 1;
                        terminator.finish_one();
                        {
                            let mut slot = first_panic.lock().unwrap();
                            if slot.is_none() {
                                *slot = Some(ExecError::OperatorPanic {
                                    task_id: mark_value,
                                    message: panic_message(payload),
                                    round: 0,
                                });
                            }
                        }
                        if quarantined_total.fetch_add(1, Ordering::Relaxed) + 1 > QUARANTINE_CAP {
                            *terminal.lock().unwrap() = Some(ExecError::QuarantineOverflow {
                                quarantined: quarantined_total.load(Ordering::Relaxed),
                                limit: QUARANTINE_CAP,
                            });
                            halt.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            }
            collected.lock().unwrap().push((stats, accesses));
        },
    );

    let elapsed = start.elapsed();
    let per_thread = collected.into_inner().unwrap();
    let mut agg = ExecStats::from_threads(per_thread.iter().map(|(s, _)| s));
    agg.elapsed = elapsed;
    agg.threads = threads;

    let trace = cfg.record_trace.then(|| {
        // Aggregate timing: per-task Instant pairs would add tens of
        // nanoseconds to tasks that are themselves ~100ns, distorting the
        // model. Total loop wall time divided by committed tasks already
        // includes the scheduler overhead per task (clean at one thread,
        // where traces are recorded).
        let committed = agg.committed.max(1);
        let avg = elapsed.as_nanos() as f64 * threads as f64 / committed as f64;
        ExecTrace::Async {
            task_ns: vec![avg; committed as usize],
            overhead_ns: 0.0,
        }
    });
    let accesses = cfg
        .record_access
        .then(|| per_thread.into_iter().map(|(_, a)| a).collect());

    debug_assert!(
        marks.all_unowned(),
        "speculative run must release all marks"
    );
    let fault = terminal
        .into_inner()
        .unwrap()
        .or(first_panic.into_inner().unwrap());
    (
        RunReport {
            stats: agg,
            trace,
            accesses,
            round_log: None,
            replay: false,
        },
        fault,
    )
}

#[cfg(test)]
mod tests {
    use crate::executor::{Executor, Schedule};
    use crate::marks::MarkTable;
    use crate::{Ctx, OpResult};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Histogram increments guarded by per-bucket locks: contended enough to
    /// exercise conflicts but with a deterministic total.
    fn histogram_op(
        buckets: &[AtomicU64],
    ) -> impl Fn(&u64, &mut Ctx<'_, u64>) -> OpResult + Sync + '_ {
        move |t: &u64, ctx: &mut Ctx<'_, u64>| {
            let b = (*t % buckets.len() as u64) as u32;
            ctx.acquire(b)?;
            ctx.failsafe()?;
            // Non-atomic read-modify-write made safe by the abstract lock.
            let cur = buckets[b as usize].load(Ordering::Relaxed);
            buckets[b as usize].store(cur + *t, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn all_tasks_commit_exactly_once() {
        for threads in [1usize, 2, 4] {
            let buckets: Vec<AtomicU64> = (0..7).map(|_| AtomicU64::new(0)).collect();
            let marks = MarkTable::new(7);
            let op = histogram_op(&buckets);
            let report = Executor::new()
                .threads(threads)
                .schedule(Schedule::Speculative)
                .iterate((0..1000u64).collect())
                .run(&marks, &op);
            assert_eq!(report.stats.committed, 1000, "threads={threads}");
            let total: u64 = buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
            assert_eq!(total, (0..1000u64).sum::<u64>(), "threads={threads}");
            assert!(marks.all_unowned());
        }
    }

    #[test]
    fn chaos_injection_preserves_output_and_real_abort_count() {
        let buckets: Vec<AtomicU64> = (0..7).map(|_| AtomicU64::new(0)).collect();
        let marks = MarkTable::new(7);
        let op = histogram_op(&buckets);
        let report = Executor::new()
            .threads(2)
            .schedule(Schedule::Speculative)
            .chaos(42)
            .iterate((0..1000u64).collect())
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 1000);
        let total: u64 = buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(total, (0..1000u64).sum::<u64>());
        // With ~1/4 of attempts force-aborted, injections must have fired
        // and must be counted apart from real conflicts.
        assert!(report.stats.injected_aborts > 0);
        assert!(marks.all_unowned());
    }

    #[test]
    fn probes_see_no_rounds_and_one_finish() {
        // The speculative scheduler has no rounds: an attached probe and the
        // executor's own round log get the final stats and nothing else.
        #[derive(Default)]
        struct Counting {
            rounds: usize,
            finishes: usize,
        }
        impl galois_runtime::probe::Probe for Counting {
            fn on_round(&mut self, _record: galois_runtime::probe::RoundRecord) {
                self.rounds += 1;
            }
            fn on_finish(&mut self, _stats: &galois_runtime::stats::ExecStats) {
                self.finishes += 1;
            }
        }
        let buckets: Vec<AtomicU64> = (0..7).map(|_| AtomicU64::new(0)).collect();
        let marks = MarkTable::new(7);
        let op = histogram_op(&buckets);
        let mut probe = Counting::default();
        let report = Executor::new()
            .threads(2)
            .schedule(Schedule::Speculative)
            .record_rounds(true)
            .iterate((0..3000u64).collect())
            .probe(&mut probe)
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 3000);
        assert_eq!((probe.rounds, probe.finishes), (0, 1));
        let log = report.round_log().expect("record_rounds was on");
        assert!(log.is_empty());
        assert_eq!(log.final_stats().map(|s| s.committed), Some(3000));
    }

    #[test]
    fn pushes_are_executed() {
        // Chain: task n pushes n-1 until 0; starting from 100 yields 101 commits.
        let marks = MarkTable::new(1);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.failsafe()?;
            if *t > 0 {
                ctx.push(*t - 1);
            }
            Ok(())
        };
        let report = Executor::new()
            .threads(2)
            .schedule(Schedule::Speculative)
            .iterate(vec![100])
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 101);
    }

    #[test]
    fn conflicts_are_counted_and_retried() {
        // Every task needs the single location: heavy conflicts, but all
        // must eventually commit.
        let marks = MarkTable::new(1);
        let counter = AtomicU64::new(0);
        let op = |_t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire(0u32)?;
            ctx.failsafe()?;
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let report = Executor::new()
            .threads(4)
            .schedule(Schedule::Speculative)
            .iterate((0..200u64).collect())
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 200);
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        // Atomic updates include one CAS per acquire attempt.
        assert!(report.stats.atomic_updates >= 200);
    }

    #[test]
    fn operator_panic_quarantines_and_the_drain_completes() {
        // One poisoned task out of 500: the run must neither deadlock nor
        // lose the other 499 commits, and try_run reports the fault.
        let committed = AtomicU64::new(0);
        let marks = MarkTable::new(7);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire((*t % 7) as u32)?;
            if *t == 250 {
                panic!("bad task {t}");
            }
            ctx.failsafe()?;
            committed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let err = Executor::new()
            .threads(4)
            .schedule(Schedule::Speculative)
            .iterate((0..500u64).collect())
            .try_run(&marks, &op)
            .expect_err("poisoned task faults");
        match err {
            crate::ExecError::OperatorPanic { message, round, .. } => {
                assert_eq!(message, "bad task 250");
                assert_eq!(round, 0, "speculative runs have no rounds");
            }
            other => panic!("expected OperatorPanic, got {other:?}"),
        }
        assert_eq!(committed.load(Ordering::Relaxed), 499);
        assert!(marks.all_unowned(), "quarantine must not leak marks");
    }

    #[test]
    fn livelock_operator_trips_the_stall_watchdog() {
        // An operator that always reports a conflict can never commit: the
        // classic retry loop spins forever. The watchdog must turn that
        // into ExecError::Stalled instead of a hang.
        let marks = MarkTable::new(1);
        let op = |_t: &u64, _ctx: &mut Ctx<'_, u64>| -> OpResult { Err(crate::Abort::Conflict) };
        let err = Executor::new()
            .threads(2)
            .schedule(Schedule::Speculative)
            .max_stalled_rounds(64)
            .iterate((0..8u64).collect())
            .try_run(&marks, &op)
            .expect_err("livelock must be detected");
        match err {
            crate::ExecError::Stalled { rounds } => assert!(rounds >= 64),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn systemic_panics_overflow_the_quarantine() {
        // Every task panics: once more than QUARANTINE_CAP attempts have
        // been quarantined the run halts with the overflow verdict rather
        // than grinding through the rest.
        let marks = MarkTable::new(1);
        let op = |_t: &u64, _ctx: &mut Ctx<'_, u64>| -> OpResult { panic!("all bad") };
        let err = Executor::new()
            .threads(4)
            .schedule(Schedule::Speculative)
            .iterate((0..(2 * crate::QUARANTINE_CAP)).collect())
            .try_run(&marks, &op)
            .expect_err("systemic fault");
        assert!(
            matches!(err, crate::ExecError::QuarantineOverflow { .. }),
            "expected QuarantineOverflow, got {err:?}"
        );
    }

    #[test]
    fn chaos_panic_injection_faults_and_still_terminates() {
        // Spec mode makes no canonicity promise about the fault report, but
        // injected panics must still quarantine-and-drain, never deadlock.
        let marks = MarkTable::new(7);
        let committed = AtomicU64::new(0);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire((*t % 7) as u32)?;
            ctx.failsafe()?;
            committed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let result = Executor::new()
            .threads(2)
            .schedule(Schedule::Speculative)
            .chaos_panics(9)
            .iterate((0..2000u64).collect())
            .try_run(&marks, &op);
        match result {
            Err(crate::ExecError::OperatorPanic { message, .. }) => {
                assert!(message.starts_with(crate::INJECTED_PANIC_PREFIX));
                // Quarantined attempts are consumed; everything else commits.
                assert!(committed.load(Ordering::Relaxed) < 2000);
            }
            Err(other) => panic!("expected OperatorPanic, got {other:?}"),
            Ok(_) => panic!("a 2000-task run at 1/64 panic odds should fault"),
        }
        assert!(marks.all_unowned());
    }

    #[test]
    fn trace_recording_produces_async_trace() {
        let marks = MarkTable::new(1);
        let op = |_t: &u64, _ctx: &mut Ctx<'_, u64>| -> OpResult { Ok(()) };
        let report = Executor::new()
            .threads(1)
            .schedule(Schedule::Speculative)
            .record_trace(true)
            .iterate((0..50u64).collect())
            .run(&marks, &op);
        match report.trace {
            Some(galois_runtime::simtime::ExecTrace::Async {
                task_ns,
                overhead_ns,
            }) => {
                assert_eq!(task_ns.len(), 50);
                assert!(overhead_ns >= 0.0);
            }
            other => panic!("expected async trace, got {other:?}"),
        }
    }
}
