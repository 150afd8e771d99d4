//! Serial reference executor.
//!
//! Executes the task pool on the calling thread in FIFO order, with no marks
//! and no conflicts. This is the semantic baseline: any correct parallel
//! schedule must be serializable to *some* such order (§2), and tests compare
//! parallel outputs against serial ones.

use crate::ctx::{Ctx, Mode};
use crate::executor::{Executor, RunReport};
use crate::marks::MarkTable;
use crate::ops::Operator;
use galois_runtime::simtime::ExecTrace;
use galois_runtime::stats::{ExecStats, ThreadStats};
use std::collections::VecDeque;
use std::time::Instant;

pub(crate) fn run<T, O>(cfg: &Executor, marks: &MarkTable, tasks: Vec<T>, op: &O) -> RunReport
where
    T: Send,
    O: Operator<T>,
{
    let start = Instant::now();
    let mut queue: VecDeque<T> = tasks.into();
    let mut stats = ThreadStats::default();
    let mut accesses = Vec::new();
    let mut neighborhood = Vec::new();
    let mut pushes = Vec::new();
    let mut stash = None;
    let mut total_ns = 0.0f64;

    while let Some(task) = queue.pop_front() {
        neighborhood.clear();
        pushes.clear();
        let task_start = cfg.record_trace.then(Instant::now);
        let mut ctx = Ctx {
            mode: Mode::Serial,
            mark_value: 1,
            tid: 0,
            marks,
            neighborhood: &mut neighborhood,
            nb_start: 0,
            pushes: &mut pushes,
            flags: None,
            stash: &mut stash,
            allow_stash: false,
            stats: &mut stats,
            recorder: cfg.record_access.then_some(&mut accesses),
            conflicts: None,
            past_failsafe: false,
            // The serial executor is the chaos-free oracle: never inject.
            inject_abort: false,
            inject_panic: None,
        };
        op.run(&task, &mut ctx)
            .expect("serial execution cannot abort");
        ctx.record_neighborhood_writes();
        if let Some(t0) = task_start {
            total_ns += t0.elapsed().as_nanos() as f64;
        }
        stats.committed += 1;
        queue.extend(pushes.drain(..));
    }

    let mut agg = ExecStats::from_threads([&stats]);
    agg.elapsed = start.elapsed();
    agg.threads = 1;
    RunReport {
        stats: agg,
        trace: cfg
            .record_trace
            .then_some(ExecTrace::Sequential { total_ns }),
        accesses: cfg.record_access.then(|| vec![accesses]),
        round_log: None,
        replay: false,
    }
}

#[cfg(test)]
mod tests {
    use crate::executor::{Executor, Schedule};
    use crate::marks::MarkTable;
    use crate::{Ctx, OpResult};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn serial_runs_fifo_including_pushes() {
        // Each task < 3 pushes task*2+1 and task*2+2; record visit order.
        let order = std::sync::Mutex::new(Vec::new());
        let op = |t: &u32, ctx: &mut Ctx<'_, u32>| -> OpResult {
            ctx.failsafe()?;
            order.lock().unwrap().push(*t);
            if *t < 3 {
                ctx.push(*t * 2 + 1);
                ctx.push(*t * 2 + 2);
            }
            Ok(())
        };
        let marks = MarkTable::new(1);
        let report = Executor::new()
            .schedule(Schedule::Serial)
            .iterate(vec![0])
            .run(&marks, &op);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(report.stats.committed, 7);
        assert_eq!(report.stats.aborted, 0);
        assert_eq!(report.stats.atomic_updates, 0);
    }

    #[test]
    fn serial_trace_is_sequential() {
        let seen = AtomicU32::new(0);
        let op = |_t: &u32, _ctx: &mut Ctx<'_, u32>| -> OpResult {
            seen.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let marks = MarkTable::new(1);
        let report = Executor::new()
            .schedule(Schedule::Serial)
            .record_trace(true)
            .iterate(vec![1, 2, 3])
            .run(&marks, &op);
        match report.trace {
            Some(galois_runtime::simtime::ExecTrace::Sequential { total_ns }) => {
                assert!(total_ns >= 0.0);
            }
            other => panic!("expected sequential trace, got {other:?}"),
        }
        assert_eq!(seen.load(Ordering::Relaxed), 3);
    }
}
