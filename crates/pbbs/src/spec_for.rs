//! Deterministic reservations: the PBBS `speculative_for` loop.
//!
//! The one deterministic-reservations loop of the workspace: the pbbs
//! variants of mis, mm, dt and dmr are [`Step`]s run here. (bfs's pbbs
//! variant is PBBS's level-synchronous BFS, not a reservations loop.)
//!
//! Runs a list of items with the semantics of the *sequential* loop in list
//! order, in bulk-synchronous rounds. An item's priority is its position in
//! the list. Each round a prefix of the remaining items runs
//! [`Step::reserve`] in parallel (priority-writing into
//! [`crate::Reservations`] slots and returning a plan), then
//! [`Step::commit`] in parallel on those plans; items whose commit fails
//! retry in later rounds with their priority, ahead of the untouched rest.
//! Items a commit creates are appended after the round with fresh
//! priorities, in slot order. Because priorities are fixed and priority
//! writes are order-insensitive, every round's composition — and the final
//! state — is the same for any thread count.
//!
//! The prefix is [`Step::prefix`]: a per-application rule over the
//! remaining and finished counts, never the thread count. It is a tuning
//! parameter: PBBS-style determinism is portable but **not**
//! parameter-free (changing the prefix changes performance, though not the
//! output *for race-free steps*; the paper contrasts this with the adaptive
//! DIG window).

use galois_runtime::pool::{chunk_range, run_parts};
use galois_runtime::probe::{Probe, RoundLog, RoundRecord};
use std::collections::VecDeque;
use std::time::Instant;

/// One speculative step of a deterministic-reservations loop.
pub trait Step: Sync {
    /// A unit of work: a node, an edge, a point, a triangle.
    type Item: Copy + Send + Sync;
    /// What an item's [`Step::reserve`] hands its [`Step::commit`].
    type Plan: Send;

    /// How many of the `remaining` items run this round, when `done` slots
    /// (committed or dropped) finished in earlier rounds. The loop clamps
    /// the answer to `1..=remaining`.
    fn prefix(&self, remaining: usize, done: u64) -> usize;

    /// Reservation phase for `item`, whose priority is `priority`.
    ///
    /// Must only issue priority writes and read state that earlier rounds
    /// committed. Returns the plan its commit applies, or `None` when the
    /// item has nothing to do: it is dropped without a commit.
    fn reserve(&self, priority: u64, item: Self::Item) -> Option<Self::Plan>;

    /// Priority writes [`Step::reserve`] issued to make `plan`, for
    /// [`SpecForStats::priority_writes`].
    fn priority_writes(&self, _plan: &Self::Plan) -> u64 {
        0
    }

    /// Commit phase: applies `plan` if its reservations held, pushing the
    /// items it creates onto `created`. Returns `true` when the item is
    /// done, `false` (having created nothing) to retry it next round.
    fn commit(
        &self,
        priority: u64,
        item: Self::Item,
        plan: Self::Plan,
        created: &mut Vec<Self::Item>,
    ) -> bool;
}

/// Statistics of one [`speculative_for`] execution.
///
/// The pbbs recipe reports `priority_writes` as every app's atomic updates.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpecForStats {
    /// Bulk-synchronous rounds executed.
    pub rounds: u64,
    /// Commit-phase successes.
    pub committed: u64,
    /// Commit-phase failures (retries).
    pub aborted: u64,
    /// Priority writes issued by the reserve phases, as each step reports
    /// them through [`Step::priority_writes`].
    pub priority_writes: u64,
    /// The run's rounds for the virtual-time model, when requested.
    pub round_log: RoundLog,
}

/// One thread's share of a round: the plans its reserve phase made for its
/// chunk of the prefix, in slot order, then what its commit phase left.
/// Lanes outlive rounds, so their buffers are reused.
struct Lane<I, P> {
    plans: Vec<Option<P>>,
    retry: Vec<(u64, I)>,
    created: Vec<I>,
    committed: u64,
    priority_writes: u64,
}

/// Runs `step` over `items` deterministically on `threads` threads. See
/// the module docs.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn speculative_for<S: Step>(
    step: &S,
    items: impl IntoIterator<Item = S::Item>,
    threads: usize,
    record_trace: bool,
) -> SpecForStats {
    assert!(threads > 0);
    // The list in priority order, less the slots of the round in flight.
    let mut remaining: VecDeque<(u64, S::Item)> = (0u64..).zip(items).collect();
    let mut round: Vec<(u64, S::Item)> = Vec::new();
    let mut next_priority = remaining.len() as u64;
    let mut lanes: Vec<Lane<S::Item, S::Plan>> = (0..threads)
        .map(|_| Lane {
            plans: Vec::new(),
            retry: Vec::new(),
            created: Vec::new(),
            committed: 0,
            priority_writes: 0,
        })
        .collect();
    let mut stats = SpecForStats::default();
    let mut done = 0u64;

    while !remaining.is_empty() {
        let prefix = step.prefix(remaining.len(), done).clamp(1, remaining.len());
        round.clear();
        round.extend(remaining.drain(..prefix));
        let t0 = record_trace.then(Instant::now);

        // Reserve phase.
        run_parts(lanes.iter_mut().collect(), |tid, lane| {
            for &(priority, item) in &round[chunk_range(prefix, threads, tid)] {
                let plan = step.reserve(priority, item);
                if let Some(plan) = &plan {
                    lane.priority_writes += step.priority_writes(plan);
                }
                lane.plans.push(plan);
            }
        });
        let reserve_ns = t0.map(|t| t.elapsed().as_nanos() as f64);
        let t1 = record_trace.then(Instant::now);

        // Commit phase, over the same chunks.
        run_parts(lanes.iter_mut().collect(), |tid, lane| {
            let slots = &round[chunk_range(prefix, threads, tid)];
            for (&(priority, item), plan) in slots.iter().zip(lane.plans.drain(..)) {
                let Some(plan) = plan else {
                    continue; // dropped
                };
                if step.commit(priority, item, plan, &mut lane.created) {
                    lane.committed += 1;
                } else {
                    lane.retry.push((priority, item));
                }
            }
        });
        let commit_ns = t1.map(|t| t.elapsed().as_nanos() as f64);
        let t2 = record_trace.then(Instant::now);

        // Retries go back to the front in slot order, ahead of the
        // untouched rest; created items join the back with fresh
        // priorities, in slot order.
        let (mut committed_round, mut failed) = (0u64, 0u64);
        for lane in lanes.iter_mut().rev() {
            committed_round += std::mem::take(&mut lane.committed);
            failed += lane.retry.len() as u64;
            for slot in lane.retry.drain(..).rev() {
                remaining.push_front(slot);
            }
        }
        for lane in &mut lanes {
            for item in lane.created.drain(..) {
                remaining.push_back((next_priority, item));
                next_priority += 1;
            }
        }
        done += prefix as u64 - failed;

        stats.rounds += 1;
        stats.committed += committed_round;
        stats.aborted += failed;
        if let (Some(r), Some(c), Some(t2)) = (reserve_ns, commit_ns, t2) {
            let flatten_ns = t2.elapsed().as_nanos() as f64;
            stats.round_log.on_round(RoundRecord::bulk(
                stats.rounds - 1,
                prefix as u64,
                committed_round,
                failed,
                [r, c, flatten_ns],
            ));
        }
    }
    stats.priority_writes = lanes.iter().map(|lane| lane.priority_writes).sum();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reservations;
    use std::sync::atomic::{AtomicU64 as Slot, Ordering};
    use std::sync::Mutex;

    /// Each item claims bucket `i % 8`; sequential semantics: the lowest
    /// index claims each bucket.
    struct Buckets {
        r: Reservations,
        owner: Vec<Slot>,
    }

    impl Step for Buckets {
        type Item = u64;
        type Plan = ();
        fn prefix(&self, remaining: usize, _done: u64) -> usize {
            remaining.div_ceil(4)
        }
        fn reserve(&self, p: u64, i: u64) -> Option<()> {
            self.r.reserve(i as usize % 8, p);
            Some(())
        }
        fn priority_writes(&self, _: &()) -> u64 {
            1
        }
        fn commit(&self, p: u64, i: u64, _: (), _: &mut Vec<u64>) -> bool {
            if self.r.check(i as usize % 8, p) {
                self.owner[i as usize % 8].store(i + 1, Ordering::Relaxed);
            }
            // A loser lost to a lower index, which always commits: done.
            true
        }
    }

    #[test]
    fn lowest_index_wins_each_bucket() {
        for threads in [1usize, 2, 4] {
            let step = Buckets {
                r: Reservations::new(8),
                owner: (0..8).map(|_| Slot::new(0)).collect(),
            };
            let stats = speculative_for(&step, 0..64, threads, false);
            assert_eq!(stats.committed, 64, "threads={threads}");
            assert_eq!(stats.priority_writes, 64);
            for (b, o) in step.owner.iter().enumerate() {
                assert_eq!(o.load(Ordering::Relaxed), b as u64 + 1, "bucket {b}");
            }
        }
    }

    /// Items that `keep` refuses are dropped at reserve; the rest commit.
    /// The prefix is the rule it holds.
    struct Nop(fn(usize, u64) -> usize, fn(u64) -> bool);

    impl Step for Nop {
        type Item = u64;
        type Plan = ();
        fn prefix(&self, remaining: usize, done: u64) -> usize {
            (self.0)(remaining, done)
        }
        fn reserve(&self, _p: u64, i: u64) -> Option<()> {
            (self.1)(i).then_some(())
        }
        fn commit(&self, _p: u64, _i: u64, _: (), _: &mut Vec<u64>) -> bool {
            true
        }
    }

    #[test]
    fn reserve_none_drops_items() {
        let skip = Nop(|remaining, _| remaining.div_ceil(4), |i| i % 2 == 0);
        let stats = speculative_for(&skip, 0..100, 2, true);
        assert_eq!((stats.committed, stats.aborted), (50, 0));
        // Every item is reserved exactly once.
        let reserved: u64 = stats.round_log.records().iter().map(|r| r.window).sum();
        assert_eq!(reserved, 100);
    }

    #[test]
    fn prefix_sees_the_finished_count() {
        // One more than the finished count: 1, 2, 4, 8, with dropped
        // items counted as finished.
        let doubling = Nop(|_, done| done as usize + 1, |i| i != 0);
        let stats = speculative_for(&doubling, 0..15, 2, true);
        let windows: Vec<u64> = stats.round_log.records().iter().map(|r| r.window).collect();
        assert_eq!(windows, [1, 2, 4, 8]);
        assert_eq!((stats.rounds, stats.committed), (4, 14));
    }

    #[test]
    fn trace_recording_counts_rounds() {
        let nop = Nop(|remaining, _| remaining.div_ceil(4), |_| true);
        let stats = speculative_for(&nop, 0..100, 1, true);
        assert_eq!(stats.round_log.len() as u64, stats.rounds);
    }

    #[test]
    fn empty_range() {
        let stats = speculative_for(&Nop(|remaining, _| remaining, |_| true), 0..0, 2, false);
        assert_eq!((stats.rounds, stats.committed), (0, 0));
    }

    #[test]
    fn created_items_take_fresh_priorities_in_slot_order() {
        // Items 0..16 run in one round. Even items commit and create
        // 100 + i; odd items fail once (a retry), then do the same.
        struct Spawn {
            tried: Vec<Slot>,
            log: Mutex<Vec<(u64, u64)>>,
        }
        impl Step for Spawn {
            type Item = u64;
            type Plan = ();
            fn prefix(&self, remaining: usize, _done: u64) -> usize {
                remaining
            }
            fn reserve(&self, _p: u64, _i: u64) -> Option<()> {
                Some(())
            }
            fn commit(&self, p: u64, i: u64, _: (), created: &mut Vec<u64>) -> bool {
                if i < 16 {
                    if i % 2 == 1 && self.tried[i as usize].fetch_add(1, Ordering::Relaxed) == 0 {
                        return false;
                    }
                    created.push(100 + i);
                }
                self.log.lock().unwrap().push((i, p));
                true
            }
        }
        // Round 0 creates the even children (priorities 16..24, slot
        // order); round 1 retries the odd parents ahead of those children
        // and creates the odd children (24..32); round 2 runs those.
        let mut expect: Vec<(u64, u64)> = (0..16).map(|i| (i, i)).collect();
        expect.extend((0..8).map(|k| (100 + 2 * k, 16 + k)));
        expect.extend((0..8).map(|k| (101 + 2 * k, 24 + k)));
        expect.sort_unstable();
        for threads in [1usize, 2, 3] {
            let step = Spawn {
                tried: (0..16).map(|_| Slot::new(0)).collect(),
                log: Mutex::new(Vec::new()),
            };
            let stats = speculative_for(&step, 0..16, threads, true);
            let mut log = step.log.into_inner().unwrap();
            log.sort_unstable();
            assert_eq!(log, expect, "threads={threads}");
            assert_eq!(
                (stats.rounds, stats.committed, stats.aborted),
                (3, 32, 8),
                "threads={threads}"
            );
            let windows: Vec<u64> = stats.round_log.records().iter().map(|r| r.window).collect();
            assert_eq!(windows, [16, 16, 8], "threads={threads}");
        }
    }
}
