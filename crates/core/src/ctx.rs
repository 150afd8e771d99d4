//! The operator context: how tasks interact with the runtime.
//!
//! A Galois operator is a *cautious* function over a task: it must read
//! (acquire) every abstract location in its neighborhood before writing any
//! of them (§2). The point between the last acquire and the first write is
//! the **failsafe point**. Operators express this protocol through [`Ctx`]:
//!
//! ```ignore
//! |task: &Node, ctx: &mut Ctx<'_, Node>| {
//!     ctx.acquire(lock_of(*task))?;           // neighborhood reads
//!     for n in neighbors(*task) { ctx.acquire(lock_of(n))?; }
//!     ctx.failsafe()?;                        // last acquire ... first write
//!     update(*task);                          // writes to acquired locations
//!     ctx.push(successor(*task));             // create new tasks
//!     Ok(())
//! }
//! ```
//!
//! The same operator runs under every scheduler; only the semantics of
//! `acquire`/`failsafe` change (Figure 1b vs Figures 2–3):
//!
//! | mode      | `acquire`                            | `failsafe`        |
//! |-----------|--------------------------------------|-------------------|
//! | serial    | no-op                                | `Ok`              |
//! | speculative | CAS mark; conflict ⇒ `Err`         | `Ok`              |
//! | inspect   | `writeMarkMax`; never fails          | `Err(Inspected)`  |
//! | commit    | verify mark (debug)                  | `Ok`              |

use crate::flags::AbortFlags;
use crate::marks::{LockId, MarkTable, UNOWNED};
use galois_runtime::stats::ThreadStats;
use std::any::Any;

/// Why an operator invocation stopped before completing.
///
/// Operators propagate this with `?`; they never construct it directly
/// except when returning early from helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// A neighborhood location is owned by another task (speculative mode).
    Conflict,
    /// The inspect phase reached the failsafe point; the neighborhood is now
    /// known and execution stops by design (deterministic mode).
    Inspected,
    /// A chaos policy forced a spurious abort at the failsafe point (test
    /// machinery; never produced without a
    /// [`ChaosPolicy`](galois_runtime::chaos::ChaosPolicy) installed).
    Injected,
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Abort::Conflict => write!(f, "task aborted: neighborhood conflict"),
            Abort::Inspected => write!(f, "task paused at failsafe point (inspect phase)"),
            Abort::Injected => write!(f, "task aborted: chaos-injected spurious abort"),
        }
    }
}

impl std::error::Error for Abort {}

/// Result type returned by operators.
pub type OpResult = Result<(), Abort>;

/// Execution mode of one operator invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Serial,
    Speculative,
    Inspect,
    Commit,
}

/// One recorded abstract-memory access, for the locality study (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The abstract location.
    pub loc: u32,
    /// Whether this models a write (commit-time) or a read (acquire-time).
    pub write: bool,
}

/// The per-invocation context handed to operators.
///
/// `T` is the task type; pushes create new `T`s.
pub struct Ctx<'a, T> {
    pub(crate) mode: Mode,
    /// Mark value of this task: pass-local id + 1 (so 0 stays UNOWNED).
    pub(crate) mark_value: u64,
    pub(crate) tid: usize,
    pub(crate) marks: &'a MarkTable,
    /// Neighborhood buffer; this invocation's locations are
    /// `neighborhood[nb_start..]` (the deterministic executor shares one
    /// arena among a thread's tasks, the others pass a private buffer and 0).
    pub(crate) neighborhood: &'a mut Vec<LockId>,
    pub(crate) nb_start: usize,
    pub(crate) pushes: &'a mut Vec<T>,
    /// Abort flags of the current deterministic round (inspect mode only).
    pub(crate) flags: Option<&'a AbortFlags>,
    /// Continuation storage (§3.3 first optimization).
    pub(crate) stash: &'a mut Option<Box<dyn Any + Send>>,
    /// Whether the continuation optimization is enabled; when disabled the
    /// commit phase re-executes the operator prefix (the baseline scheduler).
    pub(crate) allow_stash: bool,
    pub(crate) stats: &'a mut ThreadStats,
    pub(crate) recorder: Option<&'a mut Vec<Access>>,
    /// Collector of conflicting abstract locations for abort attribution
    /// (probe layer). `None` unless a probe requesting conflicts is attached,
    /// so the disabled path costs one branch on a plain pointer-sized field —
    /// no atomics.
    pub(crate) conflicts: Option<&'a mut Vec<u32>>,
    /// Set once `failsafe`/`checkpoint` has been crossed; used to detect
    /// operators that violate the cautious contract.
    pub(crate) past_failsafe: bool,
    /// Chaos hook: when set, the first `failsafe`/`checkpoint` crossing
    /// returns [`Abort::Injected`] instead of proceeding. By the cautious
    /// contract no shared state has been written at that point, so the forced
    /// abort is a free rollback — exactly like a real conflict, minus the
    /// conflict. Executors arm this per attempt from their
    /// [`ChaosPolicy`](galois_runtime::chaos::ChaosPolicy); it is never set
    /// in serial or inspect invocations (inspect must mark deterministically).
    pub(crate) inject_abort: bool,
    /// Chaos hook: when `Some(id)`, the first `failsafe`/`checkpoint`
    /// crossing *panics* with a canonical message naming `id`, exercising
    /// the fault-containment layer. By the cautious contract the panic
    /// happens before any shared write, so containment quarantines the task
    /// with a free rollback. In det mode `id` is the canonical task id, so
    /// the panic message is byte-identical at any thread count; never set
    /// in serial or inspect invocations.
    pub(crate) inject_panic: Option<u64>,
}

/// Prefix of every chaos-injected panic message (see
/// [`ChaosPolicy::with_panics`](galois_runtime::chaos::ChaosPolicy::with_panics)).
/// Harnesses use it to tell injected faults from genuine operator bugs.
pub const INJECTED_PANIC_PREFIX: &str = "chaos-injected operator panic: task ";

impl<T> std::fmt::Debug for Ctx<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("mode", &self.mode)
            .field("mark_value", &self.mark_value)
            .field("tid", &self.tid)
            .field("neighborhood_len", &self.own_neighborhood().len())
            .finish()
    }
}

impl<'a, T> Ctx<'a, T> {
    /// Acquires the abstract location `loc` into this task's neighborhood.
    ///
    /// Call once per location read or written; duplicate acquires are free.
    /// Must precede [`failsafe`](Self::failsafe).
    ///
    /// # Errors
    ///
    /// Returns [`Abort::Conflict`] in speculative mode when another task owns
    /// `loc`. Deterministic inspect never errors here: per §3.2, a task must
    /// attempt *all* its mark writes even after losing one, or the computed
    /// maxima (and hence the schedule) would be non-deterministic.
    #[inline]
    pub fn acquire(&mut self, loc: impl Into<LockId>) -> OpResult {
        debug_assert!(
            !self.past_failsafe || self.mode == Mode::Commit,
            "operator is not cautious: acquire after the failsafe point"
        );
        let loc = loc.into();
        match self.mode {
            Mode::Serial => {
                if !self.own_neighborhood().contains(&loc) {
                    self.neighborhood.push(loc);
                    self.record(loc, false);
                }
                Ok(())
            }
            Mode::Speculative => {
                if self.own_neighborhood().contains(&loc) {
                    return Ok(());
                }
                self.stats.atomic_updates += 1;
                self.record(loc, false);
                if self.marks.try_acquire(loc, self.mark_value) {
                    self.neighborhood.push(loc);
                    Ok(())
                } else {
                    if let Some(c) = self.conflicts.as_deref_mut() {
                        c.push(loc.0);
                    }
                    Err(Abort::Conflict)
                }
            }
            Mode::Inspect => {
                if self.own_neighborhood().contains(&loc) {
                    return Ok(());
                }
                self.neighborhood.push(loc);
                self.stats.atomic_updates += 1;
                self.record(loc, false);
                let prev = self.marks.write_max(loc, self.mark_value);
                let flags = self.flags.expect("inspect mode always carries abort flags");
                if prev > self.mark_value {
                    // A higher-priority task owns `loc`: this task cannot be
                    // in the independent set. Keep marking the rest anyway.
                    flags.set((self.mark_value - 1) as usize);
                    if let Some(c) = self.conflicts.as_deref_mut() {
                        c.push(loc.0);
                    }
                } else if prev != UNOWNED && prev != self.mark_value {
                    // We displaced task `prev - 1`; it must not commit.
                    flags.set((prev - 1) as usize);
                    if let Some(c) = self.conflicts.as_deref_mut() {
                        c.push(loc.0);
                    }
                }
                Ok(())
            }
            Mode::Commit => {
                debug_assert_eq!(
                    self.marks.load(loc),
                    self.mark_value,
                    "commit-phase acquire of a location not owned by this task"
                );
                self.record(loc, false);
                Ok(())
            }
        }
    }

    /// Marks the failsafe point: all neighborhood acquires are complete and
    /// writes may begin.
    ///
    /// # Errors
    ///
    /// Returns [`Abort::Inspected`] in the deterministic inspect phase, which
    /// ends the invocation — by the cautious contract no shared state has
    /// been written yet, so stopping here is a free rollback. Returns
    /// [`Abort::Injected`] when a chaos policy armed this invocation.
    #[inline]
    pub fn failsafe(&mut self) -> OpResult {
        self.past_failsafe = true;
        match self.mode {
            Mode::Inspect => Err(Abort::Inspected),
            _ => {
                if self.inject_abort {
                    self.inject_abort = false;
                    self.stats.injected_aborts += 1;
                    return Err(Abort::Injected);
                }
                if let Some(id) = self.inject_panic.take() {
                    panic!("{INJECTED_PANIC_PREFIX}{id}");
                }
                Ok(())
            }
        }
    }

    /// Saves inspect-phase state and crosses the failsafe point in one step
    /// (the continuation optimization, §3.3).
    ///
    /// - Inspect mode: stores `v` for the commit phase (when the optimization
    ///   is enabled) and returns `Err(Inspected)`.
    /// - All other modes: returns `Ok(v)` unchanged.
    ///
    /// Pair with [`take`](Self::take):
    ///
    /// ```ignore
    /// let cavity = match ctx.take::<Cavity>() {
    ///     Some(c) => c,                    // commit resumes here
    ///     None => {
    ///         let c = grow_cavity(task, ctx)?; // acquires
    ///         ctx.checkpoint(c)?               // inspect stops here
    ///     }
    /// };
    /// apply(cavity);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Abort::Inspected`] in inspect mode (by design).
    pub fn checkpoint<V: Any + Send>(&mut self, v: V) -> Result<V, Abort> {
        self.past_failsafe = true;
        if self.mode == Mode::Inspect {
            if self.allow_stash {
                *self.stash = Some(Box::new(v));
            }
            Err(Abort::Inspected)
        } else if self.inject_abort {
            self.inject_abort = false;
            self.stats.injected_aborts += 1;
            Err(Abort::Injected)
        } else if let Some(id) = self.inject_panic.take() {
            panic!("{INJECTED_PANIC_PREFIX}{id}");
        } else {
            Ok(v)
        }
    }

    /// Recalls state saved by [`checkpoint`](Self::checkpoint) during this
    /// task's inspect phase.
    ///
    /// Returns `Some` only in the commit phase of a deterministic round whose
    /// inspect phase checkpointed a `V`; otherwise `None`, and the operator
    /// recomputes (which is exactly the baseline scheduler of §3.2).
    pub fn take<V: Any + Send>(&mut self) -> Option<V> {
        if self.mode != Mode::Commit {
            return None;
        }
        let boxed = self.stash.take()?;
        match boxed.downcast::<V>() {
            Ok(v) => Some(*v),
            Err(other) => {
                // Type mismatch: put it back so a later take of the right
                // type still works, and report none.
                *self.stash = Some(other);
                None
            }
        }
    }

    /// Creates a new task (Figure 1a `enqueue(S(t))`).
    ///
    /// Call after [`failsafe`](Self::failsafe). Pushes during the inspect
    /// phase are discarded: the commit phase re-issues them.
    #[inline]
    pub fn push(&mut self, task: T) {
        if self.mode != Mode::Inspect {
            self.pushes.push(task);
        }
    }

    /// The worker thread running this invocation (`0..threads`).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Records `n` application-level atomic updates for the Figure 5
    /// accounting (e.g. a CAS the application performs on its own data).
    #[inline]
    pub fn count_atomics(&mut self, n: u64) {
        self.stats.atomic_updates += n;
    }

    /// The locations this invocation has acquired so far.
    #[inline]
    fn own_neighborhood(&self) -> &[LockId] {
        &self.neighborhood[self.nb_start..]
    }

    #[inline]
    fn record(&mut self, loc: LockId, write: bool) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.push(Access { loc: loc.0, write });
        }
    }

    /// Records commit-time writes for the whole neighborhood (serial and
    /// speculative executors; the deterministic one records its slot's
    /// inspect-time range instead, since commit acquires append nothing).
    pub(crate) fn record_neighborhood_writes(&mut self) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.extend(record_writes(&self.neighborhood[self.nb_start..]));
        }
    }
}

/// Commit-time write records for `locs`, in order.
pub(crate) fn record_writes(locs: &[LockId]) -> impl Iterator<Item = Access> + '_ {
    locs.iter().map(|l| Access {
        loc: l.0,
        write: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn fresh<'a>(
        mode: Mode,
        mark_value: u64,
        marks: &'a MarkTable,
        neighborhood: &'a mut Vec<LockId>,
        pushes: &'a mut Vec<u32>,
        flags: Option<&'a AbortFlags>,
        stash: &'a mut Option<Box<dyn Any + Send>>,
        stats: &'a mut ThreadStats,
    ) -> Ctx<'a, u32> {
        Ctx {
            mode,
            mark_value,
            tid: 0,
            marks,
            neighborhood,
            nb_start: 0,
            pushes,
            flags,
            stash,
            allow_stash: true,
            stats,
            recorder: None,
            conflicts: None,
            past_failsafe: false,
            inject_abort: false,
            inject_panic: None,
        }
    }

    #[test]
    fn injected_abort_fires_once_and_counts_separately() {
        let marks = MarkTable::new(2);
        let mut stats = ThreadStats::default();
        let (mut nb, mut ps, mut st) = (vec![], vec![], None);
        let mut ctx = Ctx {
            inject_abort: true,
            inject_panic: None,
            ..fresh(
                Mode::Speculative,
                1,
                &marks,
                &mut nb,
                &mut ps,
                None,
                &mut st,
                &mut stats,
            )
        };
        assert_eq!(ctx.acquire(LockId(0)), Ok(()), "acquires are untouched");
        assert_eq!(ctx.failsafe(), Err(Abort::Injected));
        assert_eq!(ctx.failsafe(), Ok(()), "the armed abort fires only once");
        assert_eq!(stats.injected_aborts, 1);
        assert_eq!(stats.aborted, 0, "injected aborts are not real conflicts");
    }

    #[test]
    fn injected_abort_fires_at_checkpoint_too() {
        let marks = MarkTable::new(1);
        let mut stats = ThreadStats::default();
        let (mut nb, mut ps, mut st) = (vec![], vec![], None);
        let mut ctx = Ctx {
            inject_abort: true,
            inject_panic: None,
            ..fresh(
                Mode::Commit,
                1,
                &marks,
                &mut nb,
                &mut ps,
                None,
                &mut st,
                &mut stats,
            )
        };
        assert_eq!(ctx.checkpoint(5u8).unwrap_err(), Abort::Injected);
        assert_eq!(ctx.checkpoint(5u8), Ok(5));
        assert_eq!(stats.injected_aborts, 1);
    }

    #[test]
    fn conflicts_collected_when_requested() {
        // Inspect: loser and displacer both record the contested location.
        let marks = MarkTable::new(2);
        let flags = AbortFlags::new(10);
        let mut stats = ThreadStats::default();
        let mut locs: Vec<u32> = Vec::new();
        let (mut nb, mut ps, mut st) = (vec![], vec![], None);
        {
            let mut ctx = fresh(
                Mode::Inspect,
                8,
                &marks,
                &mut nb,
                &mut ps,
                Some(&flags),
                &mut st,
                &mut stats,
            );
            ctx.conflicts = Some(&mut locs);
            ctx.acquire(LockId(0)).unwrap(); // first toucher: no conflict
        }
        assert!(locs.is_empty());
        let (mut nb2, mut ps2, mut st2) = (vec![], vec![], None);
        {
            let mut ctx = fresh(
                Mode::Inspect,
                4,
                &marks,
                &mut nb2,
                &mut ps2,
                Some(&flags),
                &mut st2,
                &mut stats,
            );
            ctx.conflicts = Some(&mut locs);
            ctx.acquire(LockId(0)).unwrap(); // loses to mark 8: one event
            ctx.acquire(LockId(1)).unwrap(); // uncontested: no event
        }
        assert_eq!(locs, vec![0]);
        // Speculative: a failed try_acquire records the location too.
        let smarks = MarkTable::new(2);
        smarks.try_acquire(LockId(1), 99);
        let (mut nb3, mut ps3, mut st3) = (vec![], vec![], None);
        {
            let mut ctx = fresh(
                Mode::Speculative,
                5,
                &smarks,
                &mut nb3,
                &mut ps3,
                None,
                &mut st3,
                &mut stats,
            );
            ctx.conflicts = Some(&mut locs);
            assert_eq!(ctx.acquire(LockId(1)), Err(Abort::Conflict));
        }
        assert_eq!(locs, vec![0, 1]);
    }

    #[test]
    fn dedup_sees_only_this_invocations_range() {
        // A shared arena already holds an earlier task's neighborhood: a
        // location that task acquired must still be marked by this one.
        let marks = MarkTable::new(2);
        let flags = AbortFlags::new(10);
        let mut stats = ThreadStats::default();
        let (mut nb, mut ps, mut st) = (vec![LockId(0)], vec![], None);
        let mut ctx = Ctx {
            nb_start: 1,
            ..fresh(
                Mode::Inspect,
                4,
                &marks,
                &mut nb,
                &mut ps,
                Some(&flags),
                &mut st,
                &mut stats,
            )
        };
        ctx.acquire(LockId(0)).unwrap();
        ctx.acquire(LockId(0)).unwrap();
        assert!(format!("{ctx:?}").contains("neighborhood_len: 1"));
        assert_eq!(nb, vec![LockId(0), LockId(0)]);
        assert_eq!(marks.load(LockId(0)), 4, "marked despite the arena");
        assert_eq!(stats.atomic_updates, 1, "the repeat is still free");
    }

    #[test]
    fn speculative_acquire_conflicts() {
        let marks = MarkTable::new(4);
        marks.try_acquire(LockId(1), 99);
        let (mut nb, mut ps, mut st) = (vec![], vec![], None);
        let mut stats = ThreadStats::default();
        let mut ctx = fresh(
            Mode::Speculative,
            5,
            &marks,
            &mut nb,
            &mut ps,
            None,
            &mut st,
            &mut stats,
        );
        assert_eq!(ctx.acquire(LockId(0)), Ok(()));
        assert_eq!(ctx.acquire(LockId(0)), Ok(()), "duplicate acquire is free");
        assert_eq!(ctx.acquire(LockId(1)), Err(Abort::Conflict));
        assert_eq!(nb, vec![LockId(0)]);
        assert_eq!(stats.atomic_updates, 2, "dup acquire costs nothing");
    }

    #[test]
    fn inspect_never_fails_and_flags_loser() {
        let marks = MarkTable::new(2);
        let flags = AbortFlags::new(10);
        let (mut nb, mut ps, mut st) = (vec![], vec![], None);
        let mut stats = ThreadStats::default();
        // Task id 7 (mark value 8) marks loc 0.
        {
            let mut ctx = fresh(
                Mode::Inspect,
                8,
                &marks,
                &mut nb,
                &mut ps,
                Some(&flags),
                &mut st,
                &mut stats,
            );
            assert_eq!(ctx.acquire(LockId(0)), Ok(()));
            assert_eq!(ctx.failsafe(), Err(Abort::Inspected));
        }
        // Task id 3 (mark value 4) also touches loc 0 and loses, but acquire
        // still returns Ok so it continues marking loc 1.
        let (mut nb2, mut ps2, mut st2) = (vec![], vec![], None);
        let mut stats2 = ThreadStats::default();
        {
            let mut ctx = fresh(
                Mode::Inspect,
                4,
                &marks,
                &mut nb2,
                &mut ps2,
                Some(&flags),
                &mut st2,
                &mut stats2,
            );
            assert_eq!(ctx.acquire(LockId(0)), Ok(()));
            assert_eq!(ctx.acquire(LockId(1)), Ok(()));
        }
        assert!(flags.get(3), "losing task flags itself");
        assert!(!flags.get(7), "winner not flagged");
        assert_eq!(marks.load(LockId(0)), 8);
        assert_eq!(marks.load(LockId(1)), 4);
    }

    #[test]
    fn inspect_flags_displaced_task() {
        let marks = MarkTable::new(1);
        let flags = AbortFlags::new(10);
        let mut stats = ThreadStats::default();
        // Low-id task 2 marks first...
        let (mut nb, mut ps, mut st) = (vec![], vec![], None);
        {
            let mut ctx = fresh(
                Mode::Inspect,
                3,
                &marks,
                &mut nb,
                &mut ps,
                Some(&flags),
                &mut st,
                &mut stats,
            );
            ctx.acquire(LockId(0)).unwrap();
        }
        // ...then high-id task 6 displaces it.
        let (mut nb2, mut ps2, mut st2) = (vec![], vec![], None);
        {
            let mut ctx = fresh(
                Mode::Inspect,
                7,
                &marks,
                &mut nb2,
                &mut ps2,
                Some(&flags),
                &mut st2,
                &mut stats,
            );
            ctx.acquire(LockId(0)).unwrap();
        }
        assert!(flags.get(2), "displaced task is flagged by the displacer");
        assert!(!flags.get(6));
    }

    #[test]
    fn checkpoint_roundtrip_through_commit() {
        let marks = MarkTable::new(1);
        let mut stats = ThreadStats::default();
        let mut stash: Option<Box<dyn Any + Send>> = None;
        let flags = AbortFlags::new(4);
        // Inspect: checkpoint stores and aborts.
        {
            let (mut nb, mut ps) = (vec![], vec![]);
            let mut ctx = fresh(
                Mode::Inspect,
                1,
                &marks,
                &mut nb,
                &mut ps,
                Some(&flags),
                &mut stash,
                &mut stats,
            );
            assert_eq!(
                ctx.checkpoint(vec![1u32, 2, 3]).unwrap_err(),
                Abort::Inspected
            );
        }
        assert!(stash.is_some());
        // Commit: take returns it.
        {
            let (mut nb, mut ps) = (vec![], vec![]);
            let mut ctx = fresh(
                Mode::Commit,
                1,
                &marks,
                &mut nb,
                &mut ps,
                None,
                &mut stash,
                &mut stats,
            );
            assert_eq!(ctx.take::<Vec<u32>>(), Some(vec![1, 2, 3]));
            assert_eq!(ctx.take::<Vec<u32>>(), None, "take consumes");
        }
    }

    #[test]
    fn take_wrong_type_preserves_stash() {
        let marks = MarkTable::new(1);
        let mut stats = ThreadStats::default();
        let mut stash: Option<Box<dyn Any + Send>> = Some(Box::new(42u64));
        let (mut nb, mut ps) = (vec![], vec![]);
        let mut ctx = fresh(
            Mode::Commit,
            1,
            &marks,
            &mut nb,
            &mut ps,
            None,
            &mut stash,
            &mut stats,
        );
        assert_eq!(ctx.take::<String>(), None);
        assert_eq!(ctx.take::<u64>(), Some(42));
    }

    #[test]
    fn stash_disabled_models_baseline() {
        let marks = MarkTable::new(1);
        let mut stats = ThreadStats::default();
        let mut stash: Option<Box<dyn Any + Send>> = None;
        let flags = AbortFlags::new(4);
        let (mut nb, mut ps) = (vec![], vec![]);
        let mut ctx: Ctx<'_, u32> = Ctx {
            allow_stash: false,
            ..fresh(
                Mode::Inspect,
                1,
                &marks,
                &mut nb,
                &mut ps,
                Some(&flags),
                &mut stash,
                &mut stats,
            )
        };
        assert!(ctx.checkpoint(7u8).is_err());
        assert!(stash.is_none(), "baseline never stores continuations");
    }

    #[test]
    fn pushes_ignored_during_inspect() {
        let marks = MarkTable::new(1);
        let mut stats = ThreadStats::default();
        let mut stash = None;
        let flags = AbortFlags::new(4);
        let (mut nb, mut ps) = (vec![], vec![]);
        {
            let mut ctx = fresh(
                Mode::Inspect,
                1,
                &marks,
                &mut nb,
                &mut ps,
                Some(&flags),
                &mut stash,
                &mut stats,
            );
            ctx.push(11);
        }
        assert!(ps.is_empty());
        let (mut nb2, mut ps2) = (vec![], vec![]);
        {
            let mut ctx = fresh(
                Mode::Commit,
                1,
                &marks,
                &mut nb2,
                &mut ps2,
                None,
                &mut stash,
                &mut stats,
            );
            ctx.push(11);
        }
        assert_eq!(ps2, vec![11]);
    }

    #[test]
    #[should_panic(expected = "not cautious")]
    #[cfg(debug_assertions)]
    fn acquire_after_failsafe_is_detected() {
        let marks = MarkTable::new(2);
        let mut stats = ThreadStats::default();
        let (mut nb, mut ps, mut st) = (vec![], vec![], None);
        let mut ctx = fresh(
            Mode::Speculative,
            1,
            &marks,
            &mut nb,
            &mut ps,
            None,
            &mut st,
            &mut stats,
        );
        ctx.acquire(LockId(0)).unwrap();
        ctx.failsafe().unwrap();
        let _ = ctx.acquire(LockId(1)); // write-phase acquire: contract bug
    }

    #[test]
    fn serial_mode_tracks_neighborhood_without_atomics() {
        let marks = MarkTable::new(4);
        let mut stats = ThreadStats::default();
        let mut stash = None;
        let (mut nb, mut ps) = (vec![], vec![]);
        let mut ctx = fresh(
            Mode::Serial,
            1,
            &marks,
            &mut nb,
            &mut ps,
            None,
            &mut stash,
            &mut stats,
        );
        ctx.acquire(LockId(2)).unwrap();
        ctx.acquire(LockId(2)).unwrap();
        ctx.failsafe().unwrap();
        assert_eq!(stats.atomic_updates, 0);
        assert_eq!(nb, vec![LockId(2)]);
        assert!(marks.all_unowned());
    }
}
