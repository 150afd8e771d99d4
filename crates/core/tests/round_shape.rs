//! Count-based shape invariants of the deterministic round protocol —
//! the CI perf-smoke checks. Wall-clock is too noisy for CI; the counts
//! behind the hot-path campaign are exact:
//!
//! - a DIG round whose window holds more than 16 tasks crosses exactly **2**
//!   barriers (the fused commit/prepare crossing plus the inspect barrier),
//!   and a thinner one crosses **0** — the leader runs it inline (see
//!   DESIGN.md "Hot paths"),
//! - the barrier count is a function of the window size alone, so it is
//!   identical at every thread count (it is part of the portable schedule's
//!   shape, not a tuning knob).

use galois_core::{Ctx, Executor, MarkTable, OpResult, Schedule};
use galois_runtime::simtime::ExecTrace;

#[test]
fn deterministic_rounds_cross_two_barriers_or_none_by_window_size_alone() {
    let mut reference: Option<Vec<(u64, u32)>> = None;
    for threads in [1usize, 2, 4, 8] {
        let marks = MarkTable::new(64);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire((*t % 64) as u32)?;
            ctx.failsafe()?;
            Ok(())
        };
        let report = Executor::new()
            .threads(threads)
            .schedule(Schedule::deterministic())
            .record_trace(true)
            .iterate((0..520u64).collect())
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 520);
        let Some(ExecTrace::Rounds(log)) = &report.trace else {
            panic!("deterministic run must record a rounds trace");
        };
        let shape: Vec<(u64, u32)> = log
            .records()
            .iter()
            .map(|r| (r.attempted, r.barriers))
            .collect();
        for (i, &(window, barriers)) in shape.iter().enumerate() {
            assert_eq!(
                barriers,
                if window <= 16 { 0 } else { 2 },
                "round {i} (window {window}) crossed {barriers} barriers (threads={threads})"
            );
        }
        for kind in [0, 2] {
            assert!(
                shape.iter().any(|&(_, b)| b == kind),
                "need a {kind}-barrier round to make the claim meaningful: {shape:?}"
            );
        }
        match &reference {
            None => reference = Some(shape),
            Some(r) => assert_eq!(&shape, r, "threads={threads} changed the round shape"),
        }
    }
}
