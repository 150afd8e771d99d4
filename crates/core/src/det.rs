//! The deterministic DIG scheduler (Figures 2–3).
//!
//! Tasks execute in bulk-synchronous **rounds**. Each round:
//!
//! 1. **prepare** (one thread): retire the previous round's marks and abort
//!    flags by bumping their epochs (two counter increments — see below),
//!    then carve a window-sized index range of the deterministically ordered
//!    pending buffer; adapt the window from the previous round's commit
//!    ratio.
//! 2. **inspect** (all threads): each thread walks its contiguous share
//!    `chunk_range(window, threads, tid)` of the window, pulls each slot's
//!    task out of the pending buffer (the *workers* fill the window, not the
//!    leader), and runs it up to its failsafe point, marking its
//!    neighborhood with `writeMarkMax` into its thread's neighborhood arena.
//!    The cumulative marks implicitly build the round's interference graph;
//!    abort flags record which tasks lost an edge to a higher id.
//! 3. **commit** (all threads): tasks whose flag is clear form the unique
//!    deterministic independent set; they re-execute (or resume from their
//!    checkpointed continuation) and commit. Each thread walks the *same*
//!    slot range it inspected and appends its committed tasks' children to
//!    a per-thread arena, with one `(parent, count)` birth record per
//!    parent, and its failed tasks to a per-thread buffer, so concatenating
//!    the buffers in thread order reproduces slot order — the leader's
//!    stitch is O(threads) bookkeeping plus buffer moves, never a per-task
//!    scan.
//!
//! Passes (Figure 2's outer loop) drain the pending sequence; created tasks
//! accumulate in `todo` and become the next pass after deterministic id
//! assignment: a counting placement ([`place_children`]) numbers them by
//! `(parent, rank)` and writes each straight to its locality-spread position
//! in the drained pending buffer. Every structure that influences the
//! schedule — window sizes, ids, independent sets — is a pure function of
//! committed-task history, so the schedule is identical for every thread
//! count (**portability**).
//!
//! # Thread-owned lanes, at most two barriers per round
//!
//! A round has **one** slot→thread map: `chunk_range(window, threads, tid)`
//! in both phases. Thread `tid` owns a [`Lane`]: its share of the window's
//! slots and the arenas its slots write — the neighborhood inspect records
//! is a range of the lane's `nbs`, and the children commit creates go to
//! its `children` — the private workspace of Aviram and Ford's
//! deterministic consistency, merged in an order the program fixes. The
//! thread that inspects a slot is the thread that reads its range back,
//! commits and frees it, so no per-task state crosses cores inside a round
//! (the original Galois DIG executor blocks the window the same way).
//!
//! Ownership is stated in types, not argued: each lane sits behind its own
//! `Mutex`, which its thread locks after the fused crossing and releases
//! before it arrives at the next one, and which the leader locks only in
//! that crossing's serial tail, where every worker is parked. The pending
//! buffer is a `Mutex` each worker holds just long enough to move its share
//! into its lane, and the abort flags sit behind an `RwLock` the phases only
//! read. No lock is ever waited on for longer than that move.
//!
//! A naive phase split costs three crossings per round (prepare → inspect →
//! commit → prepare…). Workers are completely quiescent between the end of
//! commit and the start of the next inspect — all inter-round work is the
//! leader's — so the commit barrier and the prepare barrier fuse into one:
//! [`SenseBarrier::wait_serial_checked`] lets the leader run the entire
//! serial section (merge per-thread outputs, bump epochs, carve the next
//! window, emit probe records) in the *tail* of the commit crossing, while
//! workers spin on the sense word. A parallel round therefore pays exactly
//! **two** crossings: the fused commit/prepare barrier and the inspect
//! barrier.
//!
//! A **thin** round — one whose carved window holds at most
//! `INLINE_WINDOW` tasks — pays **zero**: still inside that serial tail,
//! the leader fills its own lane 0 with the whole window, runs the same two
//! lane walks the workers call, and loops straight back into the next
//! prepare. Workers stay parked at the one crossing they are already in, so
//! a thin round is exactly a `threads == 1` round. Who executes a slot is
//! not an input to the schedule, so nothing observable moves; the threshold
//! is a fixed private constant compared against the window size alone,
//! never a knob and never a function of the thread count. See DESIGN.md
//! "Hot paths" for the lane/lock handoff.
//!
//! # O(threads) round turnaround
//!
//! The serial work the leader does between rounds is independent of both the
//! window size and neighborhood sizes:
//!
//! - **Marks** are epoch-tagged ([`MarkTable::bump_epoch`]): one increment
//!   retires every mark of the round, replacing the per-task release sweep
//!   (one CAS per neighborhood location). The tally of CASes this avoids is
//!   reported as `releases_avoided`; deterministic rounds perform **zero**
//!   per-location release CASes.
//! - **Abort flags** are epoch-stamped ([`AbortFlags::advance`]): one
//!   increment clears all flags, and the array is grown in place at pass
//!   boundaries instead of reallocated.
//! - **Window refill** is distributed: the leader only publishes the range
//!   `[fill_base, fill_base + window)` of the pending buffer; each thread
//!   moves the tasks of its own slot range into its lane. Failed tasks
//!   are written back *in slot order* immediately before the untried
//!   remainder, so round membership — and therefore the schedule — is
//!   exactly what the serial pop-and-refill produced.
//!
//! A pass boundary costs O(pass + max parent id): one counting pass over
//! the births, a prefix sum and one scatter into the reused pending buffer.
//! It is the leader's alone, so the probe counts it in `serial_ns`.

use crate::ctx::{record_writes, Abort, Access, Ctx, Mode};
use crate::error::{contain_panic, panic_message, ExecError, QUARANTINE_CAP};
use crate::executor::{DetOptions, Executor, ProbeHub, RunReport};
use crate::flags::AbortFlags;
use crate::marks::{LockId, MarkTable};
use crate::ops::Operator;
use crate::task::{place_children, spread_for_locality, TaskId, WorkItem};
use crate::window::AdaptiveWindow;
use galois_runtime::padded::PerThread;
use galois_runtime::pool::{chunk_range, run_on_threads_fault};
use galois_runtime::probe::{attribute_conflicts, RoundRecord};
use galois_runtime::stats::{ExecStats, ThreadStats};
use galois_runtime::SenseBarrier;
use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Largest window the leader runs inline (see the module docs). Fixed and
/// private: it is compared against the carved window size only, so which
/// rounds are inline is part of the portable schedule's shape and identical
/// at every thread count.
const INLINE_WINDOW: usize = 16;

/// Per-task round state, in its owner thread's lane for a whole round
/// (inspect and commit). A slot owns no buffer: its neighborhood is a range
/// of the lane's `nbs` arena and its children go to the lane's `children`.
struct Slot<T> {
    item: Option<WorkItem<T>>,
    stash: Option<Box<dyn Any + Send>>,
    /// This task's neighborhood: `nbs[nb.0..nb.1]` of the lane's arena,
    /// written by inspect and read back by commit.
    nb: (usize, usize),
    /// Captured panic message when the operator faulted on this slot
    /// (inspect or commit phase); the task is quarantined, never retried.
    fault: Option<String>,
}

/// One thread's lane: its share of the round's slots and its outputs.
/// Locked by its thread for a parallel round and by the leader inside the
/// fused crossing's serial tail, never by both at once (see the module
/// docs), so the lock is never contended.
struct Lane<T> {
    /// High-water slot pool: it grows only when a share outgrows every
    /// earlier one on this lane and never shrinks, so the steady state
    /// allocates nothing. The first `live` slots are this round's share of
    /// the window, in slot order: local slot `i` is global slot
    /// `chunk_range(window, threads, tid).start + i`.
    slots: Vec<Slot<T>>,
    live: usize,
    out: ThreadOut<T>,
}

impl<T> Lane<T> {
    /// Moves this round's share of the window out of the pending buffer.
    /// Filling on the slots' owner keeps the leader's serial turnaround
    /// O(threads) instead of O(window).
    fn fill(&mut self, share: &mut [Option<WorkItem<T>>]) {
        if self.slots.len() < share.len() {
            self.slots.resize_with(share.len(), || Slot {
                item: None,
                stash: None,
                nb: (0, 0),
                fault: None,
            });
        }
        self.live = share.len();
        for (slot, entry) in self.slots.iter_mut().zip(share) {
            slot.item = entry.take();
            slot.stash = None;
            slot.fault = None;
        }
    }
}

/// Per-thread round workspace and outputs, written by exactly one thread
/// per round and merged — then reset — by the leader between rounds, plus
/// the thread's run-long counters. The buffers keep their capacity, so a
/// round allocates only when it outgrows every earlier round on this
/// thread.
struct ThreadOut<T> {
    /// Neighborhood arena: the concatenated neighborhoods of the slots this
    /// thread inspected this round (each slot's `nb` range).
    nbs: Vec<LockId>,
    /// Children of this thread's committed slots, in slot order and, per
    /// slot, in push order.
    children: Vec<T>,
    /// One `(parent, child count)` per committed slot that created
    /// children, aligned with `children`.
    births: Vec<(TaskId, usize)>,
    /// Failed tasks from this thread's slot range, in slot order.
    failed: Vec<WorkItem<T>>,
    /// Commits in this thread's range.
    committed: u64,
    /// This round's phase times on this thread and their largest per-task
    /// block means (when timing; see [`RoundRecord`]).
    inspect_ns: f64,
    inspect_max_ns: f64,
    commit_ns: f64,
    commit_max_ns: f64,
    /// Conflicting abstract locations seen during this thread's inspect
    /// range (when a probe wants attribution); drained by the leader.
    conflicts: Vec<u32>,
    /// Quarantined tasks from this thread's slot range, in slot order:
    /// the payload (held until the leader reports the fault) and the
    /// captured panic message.
    quarantined: Vec<(WorkItem<T>, String)>,
    /// Run-long counters, summed once the run ends.
    stats: ThreadStats,
    /// Run-long access trace (when recording accesses).
    accesses: Vec<Access>,
}

impl<T> ThreadOut<T> {
    fn new() -> Self {
        ThreadOut {
            nbs: Vec::new(),
            children: Vec::new(),
            births: Vec::new(),
            failed: Vec::new(),
            committed: 0,
            inspect_ns: 0.0,
            inspect_max_ns: 0.0,
            commit_ns: 0.0,
            commit_max_ns: 0.0,
            conflicts: Vec::new(),
            quarantined: Vec::new(),
            stats: ThreadStats::default(),
            accesses: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.children.clear();
        self.births.clear();
        self.failed.clear();
        self.committed = 0;
        self.inspect_ns = 0.0;
        self.inspect_max_ns = 0.0;
        self.commit_ns = 0.0;
        self.commit_max_ns = 0.0;
        self.conflicts.clear();
        self.quarantined.clear();
    }
}

/// Round state shared between the preparing leader and the phase workers.
struct RoundState<T> {
    /// One lane per thread, cache-line padded so one worker's bookkeeping
    /// never false-shares with its neighbor's.
    lanes: PerThread<Mutex<Lane<T>>>,
    /// Number of active slots this round (the carved window size). Written
    /// by the leader inside the fused barrier's serial section, read by
    /// workers after the crossing.
    live: AtomicUsize,
    /// The current pass's ordered task buffer. Consumed left to right;
    /// workers move the entries of their share of the published window
    /// into their lanes, and the leader writes failed tasks back just
    /// before the unconsumed remainder.
    pending: Mutex<Vec<Option<WorkItem<T>>>>,
    /// First pending index of the current window: slot `i` holds (after its
    /// owner fills it) `pending[fill_base + i]`.
    fill_base: AtomicUsize,
    /// Read by both phases; written only by the serial tail, which grows
    /// it at a pass boundary.
    flags: RwLock<AbortFlags>,
    done: AtomicBool,
    /// Probe gates, fixed for the whole run (plain bools: workers only read
    /// them, so the disabled probe path adds no atomics). `probing` is set
    /// when a probe is attached or the run records its trace, and builds a
    /// [`RoundRecord`] per round.
    probing: bool,
    collect_conflicts: bool,
    time_phases: bool,
    conflict_top_k: usize,
}

/// What the leader hands back when the run ends: total rounds and the fault
/// (if any) that stopped the run.
type LeaderOut = (u64, Option<ExecError>);

/// Leader-only bookkeeping across rounds and passes.
struct LeaderState<T> {
    /// Next unconsumed index into the shared pending buffer.
    head: usize,
    /// The pass's created tasks and their `(parent, count)` births, merged
    /// from the threads round by round (the `todo` set of Figure 2).
    children: Vec<T>,
    births: Vec<(TaskId, usize)>,
    /// Placement scratch: first id per parent, kept across passes.
    first_ids: Vec<usize>,
    window: AdaptiveWindow,
    rounds: u64,
    started: bool,
    /// Adaptive window size at the last carve, before clamping to the
    /// remaining pending tasks — what the probe reports as `window`.
    carved_window: u64,
    /// Record of the just-closed round, built in `prepare_round` and emitted
    /// by the caller once the leader-serial time is known.
    pending_record: Option<RoundRecord>,
    /// Scratch buffer for per-round conflict attribution.
    conflict_scratch: Vec<u32>,
    /// Terminal fault: set once, then `done` is raised and the run drains.
    fault: Option<ExecError>,
}

/// Pre-assigned id source: the id function and the id space bound (§3.3).
pub(crate) type Preassigned<'a, T> = Option<(&'a (dyn Fn(&T) -> u64 + Sync), usize)>;

pub(crate) fn run<T, O>(
    cfg: &Executor,
    opts: &DetOptions,
    marks: &MarkTable,
    tasks: Vec<T>,
    op: &O,
    preassigned: Preassigned<'_, T>,
    hub: &mut ProbeHub<'_>,
) -> (RunReport, Option<ExecError>)
where
    T: Send,
    O: Operator<T>,
{
    let threads = cfg.threads;
    let probing = hub.active();
    let collect_conflicts = probing && hub.wants_conflicts();
    let time_phases = probing && hub.wants_timing();
    let conflict_top_k = hub.conflict_top_k();
    let start = Instant::now();

    // Initial pass: ids in iteration order (§3.2), or pre-assigned (§3.3).
    let mut dedup_dropped = 0u64;
    let initial: Vec<WorkItem<T>> = match &preassigned {
        None => tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| WorkItem {
                task: t,
                id: i as u64,
            })
            .collect(),
        Some((id_of, id_space)) => {
            let mut v: Vec<WorkItem<T>> = tasks
                .into_iter()
                .map(|t| {
                    let id = id_of(&t);
                    assert!(
                        (id as usize) < *id_space,
                        "pre-assigned id {id} outside id space {id_space}"
                    );
                    WorkItem { task: t, id }
                })
                .collect();
            // Stable: equal ids keep their input order for the dedup below.
            v.sort_by_key(|w| w.id);
            // Equal ids would make the schedule ambiguous, so only the first
            // task of each id survives (the documented `run_with_ids`
            // contract). This drops the later duplicates *silently* as far
            // as execution goes — the count is surfaced in
            // `ExecStats::dedup_dropped` so callers can detect unintended
            // id collisions instead of losing work without a trace.
            let before = v.len();
            v.dedup_by(|a, b| a.id == b.id);
            dedup_dropped = (before - v.len()) as u64;
            v
        }
    };
    let flag_space_of = |pass_size: usize| match &preassigned {
        None => pass_size,
        // Created tasks are renumbered densely (see `run_with_ids` docs), so
        // a pass of created tasks can exceed the initial id space; size the
        // flags for whichever is larger.
        Some((_, id_space)) => (*id_space).max(pass_size),
    };

    let pending: Vec<Option<WorkItem<T>>> = spread_for_locality(initial, opts.locality_spread)
        .into_iter()
        .map(Some)
        .collect();
    let pass_size = pending.len();
    let state: RoundState<T> = RoundState {
        lanes: PerThread::new(threads, |_| {
            Mutex::new(Lane {
                slots: Vec::new(),
                live: 0,
                out: ThreadOut::new(),
            })
        }),
        live: AtomicUsize::new(0),
        pending: Mutex::new(pending),
        fill_base: AtomicUsize::new(0),
        flags: RwLock::new(AbortFlags::new(flag_space_of(pass_size))),
        done: AtomicBool::new(false),
        probing,
        collect_conflicts,
        time_phases,
        conflict_top_k,
    };
    let phases = Phases {
        state: &state,
        marks,
        opts,
        cfg,
        op,
    };
    let barrier = SenseBarrier::with_chaos(threads, cfg.chaos.clone());
    let leader_out: Mutex<Option<LeaderOut>> = Mutex::new(None);
    // The leader takes the probe hub at thread start and is the only thread
    // to ever touch it (between barriers), so probe callbacks see rounds
    // strictly in order.
    let hub_cell: Mutex<Option<&mut ProbeHub<'_>>> = Mutex::new(probing.then_some(hub));

    // Workers run under a fault hook: an *escaping* panic (operator panics
    // are caught and quarantined below — this only fires on scheduler
    // invariant violations) poisons the barrier so peers drain instead of
    // spinning forever, then propagates at join.
    run_on_threads_fault(
        threads,
        cfg.chaos.as_deref(),
        Some(&|| barrier.poison()),
        |tid| {
            let mut probe: Option<&mut ProbeHub<'_>> = (tid == 0)
                .then(|| hub_cell.lock().unwrap().take())
                .flatten();
            let mut leader: Option<LeaderState<T>> = (tid == 0).then(|| LeaderState {
                head: 0,
                children: Vec::new(),
                births: Vec::new(),
                first_ids: Vec::new(),
                window: AdaptiveWindow::for_pass(opts.window, pass_size),
                rounds: 0,
                started: false,
                carved_window: 0,
                pending_record: None,
                conflict_scratch: Vec::new(),
                fault: None,
            });
            // The leader's guards over every lane, taken at the start of
            // each serial tail and released at its end; the capacity is
            // reserved once so a tail allocates nothing.
            let mut lanes: Vec<MutexGuard<'_, Lane<T>>> =
                Vec::with_capacity(if leader.is_some() { threads } else { 0 });

            loop {
                // Fused commit/prepare barrier: workers arrive here straight
                // from the commit walk, their lanes unlocked; the leader runs
                // the whole inter-round serial section — merge, carve, probe
                // callbacks — inside the tail of this single crossing instead
                // of paying a separate release barrier first.
                let crossed = if let Some(leader) = leader.as_mut() {
                    barrier
                        .wait_serial_checked(|| {
                            lanes.extend(state.lanes.iter().map(|l| l.lock().unwrap()));
                            let mut pending = state.pending.lock().unwrap();
                            let mut flags = state.flags.write().unwrap();
                            loop {
                                let t0 = state.time_phases.then(Instant::now);
                                let place_ns = prepare_round(
                                    leader,
                                    &phases,
                                    &mut lanes,
                                    &mut pending,
                                    &mut flags,
                                    flag_space_of,
                                );
                                if let Some(mut rec) = leader.pending_record.take() {
                                    // The merge/carve work belongs to the round
                                    // it closed. The leader places alone while
                                    // workers park, so all of it is serial
                                    // tail; the model splits the placement.
                                    if let Some(t0) = t0 {
                                        rec.serial_ns = t0.elapsed().as_nanos() as f64;
                                        rec.place_ns = place_ns;
                                    }
                                    if let Some(p) = probe.as_mut() {
                                        p.on_round(rec);
                                    }
                                }
                                // A thin round runs right here, on the
                                // leader's lane, with the workers still parked
                                // at this crossing: zero crossings, and its
                                // operator time lands in the phase timers
                                // (outside `t0`), never in `serial_ns`.
                                let n = state.live.load(Ordering::Relaxed);
                                if state.done.load(Ordering::Relaxed) || n > INLINE_WINDOW {
                                    break;
                                }
                                let base = state.fill_base.load(Ordering::Relaxed);
                                let lane = &mut lanes[0];
                                lane.fill(&mut pending[base..base + n]);
                                inspect_lane(&phases, 0, lane, &flags);
                                commit_lane(&phases, 0, lane, &flags);
                            }
                            lanes.clear();
                        })
                        .is_ok()
                } else {
                    barrier.wait_checked().is_ok()
                };
                if !crossed || state.done.load(Ordering::Acquire) {
                    break;
                }
                // Only the first `live` slots are this round's window; this
                // thread owns one contiguous share of them for both phases,
                // so its outputs concatenate to slot order and no slot
                // changes cores inside the round. The lane stays locked
                // until the end of this iteration, before the next crossing.
                let range = chunk_range(state.live.load(Ordering::Relaxed), threads, tid);
                let base = state.fill_base.load(Ordering::Relaxed);
                let mut lane = state.lanes.get(tid).lock().unwrap();
                lane.fill(&mut state.pending.lock().unwrap()[base + range.start..base + range.end]);
                let flags = state.flags.read().unwrap();
                inspect_lane(&phases, tid, &mut lane, &flags);
                if barrier.wait_checked().is_err() {
                    break;
                }
                commit_lane(&phases, tid, &mut lane, &flags);
                // No commit-end barrier: the loop-top fused crossing doubles
                // as the commit barrier, so a parallel round costs exactly
                // two crossings (fused commit/prepare + inspect).
            }

            if let Some(mut leader) = leader {
                *leader_out.lock().unwrap() = Some((leader.rounds, leader.fault.take()));
            }
        },
    );

    let elapsed = start.elapsed();
    let mut lanes = state.lanes;
    let mut outs: Vec<&mut ThreadOut<T>> = lanes
        .iter_mut()
        .map(|lane| &mut lane.get_mut().unwrap().out)
        .collect();
    let mut agg = ExecStats::from_threads(outs.iter().map(|out| &out.stats));
    let (rounds, fault) = leader_out.into_inner().unwrap().expect("leader ran");
    agg.rounds = rounds;
    agg.elapsed = elapsed;
    agg.threads = threads;
    agg.dedup_dropped = dedup_dropped;

    debug_assert!(
        marks.all_unowned(),
        "deterministic run must release all marks"
    );
    debug_assert_eq!(
        agg.mark_releases, 0,
        "deterministic rounds retire marks by epoch, never by per-location CAS"
    );
    let report = RunReport {
        stats: agg,
        // The trace is the round records, which the executor collects.
        trace: None,
        accesses: cfg.record_access.then(|| {
            outs.iter_mut()
                .map(|out| std::mem::take(&mut out.accesses))
                .collect()
        }),
        round_log: None,
        replay: false,
    };
    (report, fault)
}

/// Leader work between rounds: merge (and reset) per-thread outputs, advance
/// passes, carve the next window. Runs strictly inside the fused crossing's
/// serial section. Returns the pass-boundary placement time (when timing).
///
/// Everything here is O(threads) per round (plus buffer moves for failed /
/// created tasks): marks and flags retire by epoch bump, and the window is
/// published as an index range that the workers fill themselves.
fn prepare_round<T: Send, O>(
    leader: &mut LeaderState<T>,
    ph: &Phases<'_, T, O>,
    lanes: &mut [MutexGuard<'_, Lane<T>>],
    pending: &mut Vec<Option<WorkItem<T>>>,
    flags: &mut AbortFlags,
    flag_space_of: impl Fn(usize) -> usize,
) -> f64 {
    let Phases {
        state, marks, opts, ..
    } = *ph;
    if !leader.started {
        leader.started = true;
    } else {
        // Retire the closed round's marks and abort flags: two counter
        // increments replace the old per-task release sweep and per-task
        // flag clears. Workers are parked at the barrier, so the quiescence
        // contract of both calls holds.
        marks.bump_epoch();
        flags.advance();

        // Merge the finished round's per-thread outputs: O(threads) plus
        // buffer moves; the per-task work happened on the workers.
        let attempted = state.live.load(Ordering::Relaxed);
        let mut committed = 0usize;
        let mut nfailed = 0usize;
        let mut quarantined = 0usize;
        let mut inspect_ns = 0.0f64;
        let mut commit_ns = 0.0f64;
        let (mut inspect_max_ns, mut commit_max_ns) = (0.0f64, 0.0f64);
        for lane in lanes.iter_mut() {
            let out = &mut lane.out;
            committed += out.committed as usize;
            nfailed += out.failed.len();
            quarantined += out.quarantined.len();
            inspect_ns += out.inspect_ns;
            commit_ns += out.commit_ns;
            inspect_max_ns = inspect_max_ns.max(out.inspect_max_ns);
            commit_max_ns = commit_max_ns.max(out.commit_max_ns);
            if state.collect_conflicts {
                leader.conflict_scratch.append(&mut out.conflicts);
            }
        }
        if state.probing {
            // Per-round per-location conflict counts are schedule-
            // deterministic (k round-mates on a location ⇒ exactly k-1 mark
            // losses), so this attribution is thread-count independent.
            let conflicts = attribute_conflicts(&mut leader.conflict_scratch, state.conflict_top_k);
            leader.conflict_scratch.clear();
            leader.pending_record = Some(RoundRecord {
                round: leader.rounds,
                window: leader.carved_window,
                attempted: attempted as u64,
                committed: committed as u64,
                failed: nfailed as u64,
                conflicts,
                inspect_ns,
                commit_ns,
                inspect_max_ns,
                commit_max_ns,
                // A function of the window size alone, like the inline rule
                // itself, so identical at every thread count.
                barriers: if attempted <= INLINE_WINDOW { 0 } else { 2 },
                ..RoundRecord::default()
            });
        }
        // Failed tasks precede the untried remainder (Figure 2 line 19) in
        // slot order: write them back into the tail of the just-consumed
        // window range (those entries were taken by the workers) and move
        // the head cursor over them. Walking threads forward reproduces slot
        // order because slot ranges are contiguous ascending.
        //
        // Every lane leaves this loop reset: the next round may be an
        // inline one that only lane 0 takes part in, and must not
        // re-count what a worker reported for this round.
        let mut w_idx = leader.head - nfailed;
        // Lowest-id quarantined task of the round and its message.
        let mut first_fault: Option<(u64, String)> = None;
        for lane in lanes.iter_mut() {
            let out = &mut lane.out;
            for item in out.failed.drain(..) {
                debug_assert!(pending[w_idx].is_none(), "window entries were consumed");
                pending[w_idx] = Some(item);
                w_idx += 1;
            }
            leader.children.append(&mut out.children);
            leader.births.append(&mut out.births);
            for (item, msg) in out.quarantined.drain(..) {
                if first_fault.as_ref().is_none_or(|(id, _)| item.id < *id) {
                    first_fault = Some((item.id, msg));
                }
            }
            out.reset();
        }
        debug_assert_eq!(w_idx, leader.head);
        leader.head -= nfailed;
        let closing_round = leader.rounds;
        leader.rounds += 1;
        leader.window.update(attempted, committed);
        // A deterministic round cannot stall: the highest id of a window
        // owns its whole neighbourhood, so every round selects a task, and a
        // selected task commits, is quarantined, or ends the run with the
        // "commits unconditionally" panic.
        debug_assert!(
            attempted == 0 || committed + quarantined > 0,
            "a round with attempted tasks commits or quarantines one of them"
        );

        if quarantined > 0 {
            // The run stops at the end of the first faulting round and
            // reports its lowest-id quarantined task. Round membership and
            // the independent set are pure functions of committed history,
            // so this report — id, message and round — is byte-identical
            // at every thread count.
            let (task_id, message) = first_fault.expect("quarantined > 0");
            leader.fault = Some(if quarantined as u64 > QUARANTINE_CAP {
                ExecError::QuarantineOverflow {
                    quarantined: quarantined as u64,
                    limit: QUARANTINE_CAP,
                }
            } else {
                ExecError::OperatorPanic {
                    task_id,
                    message,
                    round: closing_round,
                }
            });
            state.done.store(true, Ordering::Release);
            return 0.0;
        }
    }

    // Pass boundary: the ordered sequence is drained; number and order
    // `todo` (Figure 2 lines 3-6) straight into the drained pending buffer.
    // Every buffer involved is drained, never dropped, so a boundary below
    // the run's high water allocates nothing.
    let mut place_ns = 0.0;
    if leader.head == pending.len() && !leader.children.is_empty() {
        let t_place = state.time_phases.then(Instant::now);
        place_children(
            &leader.births,
            leader.children.drain(..),
            opts.locality_spread,
            &mut leader.first_ids,
            pending,
        );
        leader.births.clear();
        let pass_size = pending.len();
        leader.head = 0;
        if let Some(t) = t_place {
            place_ns = t.elapsed().as_nanos() as f64;
        }
        flags.grow(flag_space_of(pass_size));
        leader.window = AdaptiveWindow::for_pass(opts.window, pass_size);
    }

    if leader.head == pending.len() {
        state.done.store(true, Ordering::Release);
        return place_ns;
    }

    // Carve the window (Figure 2 `getWindowOfTasks`): publishing its size
    // and first pending index is all a carve does; the workers fill their
    // lanes from it.
    leader.carved_window = leader.window.size() as u64;
    let w = leader.window.size().min(pending.len() - leader.head);
    state.live.store(w, Ordering::Relaxed);
    state.fill_base.store(leader.head, Ordering::Relaxed);
    leader.head += w;
    place_ns
}

/// Run-constant inputs of the two phase walks.
struct Phases<'a, T, O> {
    state: &'a RoundState<T>,
    marks: &'a MarkTable,
    opts: &'a DetOptions,
    cfg: &'a Executor,
    op: &'a O,
}

/// `range` cut into consecutive blocks of at most `size` slots.
fn blocks(range: Range<usize>, size: usize) -> impl Iterator<Item = Range<usize>> {
    let end = range.end;
    range.step_by(size).map(move |lo| lo..(lo + size).min(end))
}

/// Adds a block of `tasks` tasks timed from `t0` to a phase's total and to
/// its largest per-task mean.
fn add_block(total_ns: &mut f64, max_ns: &mut f64, t0: Instant, tasks: u64) {
    let ns = t0.elapsed().as_nanos() as f64;
    *total_ns += ns;
    if tasks > 0 {
        *max_ns = max_ns.max(ns / tasks as f64);
    }
}

/// Inspect walk: run each task of the lane's filled share up to its
/// failsafe point.
fn inspect_lane<T: Send, O: Operator<T>>(
    ph: &Phases<'_, T, O>,
    tid: usize,
    lane: &mut Lane<T>,
    flags: &AbortFlags,
) {
    let Lane { slots, live, out } = lane;
    out.nbs.clear();
    // Timing amortized per block so tiny tasks are not inflated by timers.
    for block in blocks(0..*live, 8) {
        let t0 = ph.state.time_phases.then(Instant::now);
        let len = block.len() as u64;
        for slot in &mut slots[block] {
            inspect_slot(ph, tid, slot, flags, out);
        }
        if let Some(t0) = t0 {
            add_block(&mut out.inspect_ns, &mut out.inspect_max_ns, t0, len);
        }
    }
}

/// Select-and-execute walk over the lane's share: commit the independent
/// set and sort every slot's task into the lane's committed / failed /
/// quarantined outputs, in slot order.
fn commit_lane<T: Send, O: Operator<T>>(
    ph: &Phases<'_, T, O>,
    tid: usize,
    lane: &mut Lane<T>,
    flags: &AbortFlags,
) {
    let Lane { slots, live, out } = lane;
    for block in blocks(0..*live, 64) {
        let t0 = ph.state.time_phases.then(Instant::now);
        let mut block_committed = 0u64;
        for slot in &mut slots[block] {
            let committed = commit_slot(ph, tid, slot, flags, out);
            let item = slot.item.take().expect("slot carries a task");
            if committed {
                block_committed += 1;
            } else if let Some(msg) = slot.fault.take() {
                // Quarantined: keep the payload and message for the
                // leader's fault report; never re-enqueued.
                out.quarantined.push((item, msg));
            } else {
                out.failed.push(item);
            }
        }
        out.committed += block_committed;
        if let Some(t0) = t0 {
            // Count only commits; abort-check time still lands in the phase
            // total (it is real commit-phase work).
            add_block(
                &mut out.commit_ns,
                &mut out.commit_max_ns,
                t0,
                block_committed,
            );
        }
    }
}

fn inspect_slot<T: Send, O: Operator<T>>(
    ph: &Phases<'_, T, O>,
    tid: usize,
    slot: &mut Slot<T>,
    flags: &AbortFlags,
    out: &mut ThreadOut<T>,
) {
    let Phases {
        marks,
        opts,
        cfg,
        op,
        ..
    } = *ph;
    let nb_start = out.nbs.len();
    let result = {
        // Destructure for field-precise borrows: `item` stays shared while
        // the context mutably borrows the stash and the thread's arenas.
        let Slot { item, stash, .. } = slot;
        let item = item.as_ref().expect("slot carries a task");
        let mut ctx = Ctx {
            mode: Mode::Inspect,
            mark_value: item.id + 1,
            tid,
            marks,
            neighborhood: &mut out.nbs,
            nb_start,
            // Inspect-phase pushes are discarded by `Ctx::push`.
            pushes: &mut out.children,
            flags: Some(flags),
            stash,
            allow_stash: opts.continuation,
            stats: &mut out.stats,
            recorder: cfg.record_access.then_some(&mut out.accesses),
            conflicts: ph.state.collect_conflicts.then_some(&mut out.conflicts),
            past_failsafe: false,
            // Never inject during inspect: marking must be a pure function
            // of the round's membership or the schedule itself would change.
            inject_abort: false,
            inject_panic: None,
        };
        // A panic here is pre-failsafe by the cautious contract, so it is
        // contained exactly like an abort: the marks already placed retire
        // with the round's epoch bump, and the task is quarantined. The
        // fault set of a round is therefore a pure function of round
        // membership — thread-count independent like the schedule.
        contain_panic(|| op.run(&item.task, &mut ctx))
    };
    slot.nb = (nb_start, out.nbs.len());
    out.stats.inspected += 1;
    match result {
        // `Ok(Ok(()))` means the operator completed without a failsafe call
        // (a read-only task); its pushes were discarded and the commit phase
        // re-issues them.
        Ok(r) => {
            debug_assert_ne!(
                r,
                Err(Abort::Conflict),
                "inspect-phase acquire cannot conflict (writeMarksMax never fails)"
            );
        }
        Err(payload) => {
            slot.fault = Some(panic_message(payload));
            slot.stash = None;
        }
    }
}

/// Commits `slot` if it is in the round's independent set; returns whether
/// it committed.
fn commit_slot<T: Send, O: Operator<T>>(
    ph: &Phases<'_, T, O>,
    tid: usize,
    slot: &mut Slot<T>,
    flags: &AbortFlags,
    out: &mut ThreadOut<T>,
) -> bool {
    let Phases { marks, cfg, op, .. } = *ph;
    let task_id = slot.item.as_ref().expect("slot carries a task").id;
    let mark_value = task_id + 1;
    let nb_len = (slot.nb.1 - slot.nb.0) as u64;
    if slot.fault.is_some() {
        // The inspect run panicked: quarantine. The marks it placed retire
        // with the round's epoch bump — no per-location release needed —
        // and the task never re-enters the pending buffer.
        out.stats.quarantined += 1;
        out.stats.releases_avoided += nb_len;
        return false;
    }
    if flags.get(task_id as usize) {
        // A higher-priority neighbor in the interference graph owns part of
        // this task's neighborhood; retry in a later round.
        out.stats.aborted += 1;
        out.stats.releases_avoided += nb_len;
        return false;
    }
    {
        // Chaos: force at most one spurious abort at this task's failsafe
        // point, then retry *in place* until the commit goes through. The
        // retry is schedule-invisible: the cautious contract guarantees no
        // shared writes happened before the failsafe, the round's marks are
        // still owned by this task, and the round log only sees the final
        // committed outcome — so no chaos seed can perturb the schedule.
        //
        // Tasks carrying a checkpointed continuation are exempt: `take()`
        // consumes the stash *before* the failsafe crossing, so a forced
        // abort there would retry by re-growing the neighborhood against a
        // mesh other commits already changed — not a free rollback.
        let mut inject = slot.stash.is_none()
            && cfg
                .chaos
                .as_deref()
                .is_some_and(|c| c.inject_det_abort(task_id));
        // Chaos panic injection fires at the failsafe crossing of the commit
        // run. Purity in (seed, task_id) plus the schedule-invariance of
        // round membership makes the resulting fault report byte-identical
        // at every thread count. Stash-carrying tasks are exempt for the
        // same reason as injected aborts: their failsafe already passed.
        let inject_panic = slot.stash.is_none()
            && cfg
                .chaos
                .as_deref()
                .is_some_and(|c| c.inject_det_panic(task_id));
        // Children of a failed attempt are cut back to here.
        let mark = out.children.len();
        loop {
            let result = {
                let Slot { item, stash, .. } = slot;
                let item = item.as_ref().expect("slot carries a task");
                let mut ctx = Ctx {
                    mode: Mode::Commit,
                    mark_value,
                    tid,
                    marks,
                    // Commit acquires only verify: the neighborhood is the
                    // slot's inspect-time range, and the empty tail
                    // `nbs[nbs.len()..]` stands in for this context's own.
                    nb_start: out.nbs.len(),
                    neighborhood: &mut out.nbs,
                    pushes: &mut out.children,
                    flags: None,
                    stash,
                    allow_stash: false,
                    stats: &mut out.stats,
                    recorder: cfg.record_access.then_some(&mut out.accesses),
                    conflicts: None,
                    past_failsafe: false,
                    inject_abort: inject,
                    inject_panic: inject_panic.then_some(task_id),
                };
                contain_panic(|| op.run(&item.task, &mut ctx))
            };
            match result {
                Ok(Ok(())) => break,
                Ok(Err(Abort::Injected)) => {
                    inject = false;
                    out.children.truncate(mark);
                }
                Ok(Err(other)) => {
                    // Scheduler invariant violation, not an operator fault:
                    // let it escape so the pool's poison hook fires.
                    panic!("a selected task commits unconditionally: {other}")
                }
                Err(payload) => {
                    // Pre-failsafe panic during the commit run (cautious
                    // contract): no shared writes happened, the round's
                    // marks retire by epoch — quarantine instead of commit.
                    slot.fault = Some(panic_message(payload));
                    out.children.truncate(mark);
                    out.stats.quarantined += 1;
                    out.stats.releases_avoided += nb_len;
                    return false;
                }
            }
        }
        if cfg.record_access {
            out.accesses
                .extend(record_writes(&out.nbs[slot.nb.0..slot.nb.1]));
        }
        // The children's `(parent, rank)` keys are this birth record plus
        // their order in the arena (§3.2 id assignment).
        let born = out.children.len() - mark;
        if born > 0 {
            out.births.push((task_id, born));
        }
        out.stats.committed += 1;
    }
    // No per-location release and no flag clear happen here: the leader
    // retires the whole round's marks and flags with two epoch bumps in
    // `prepare_round`. Tally the CASes the old sweep would have issued (every
    // task released its entire neighborhood, committed or not).
    out.stats.releases_avoided += nb_len;
    true
}

#[cfg(test)]
mod tests {
    use crate::executor::{DetOptions, Executor, Schedule};
    use crate::marks::MarkTable;
    use crate::{Ctx, OpResult};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn det() -> Schedule {
        Schedule::deterministic()
    }

    /// Order-sensitive reduction: tasks append their payload to a bucket
    /// sequence; the final sequences expose the schedule.
    fn trace_op(log: &Mutex<Vec<u64>>) -> impl Fn(&u64, &mut Ctx<'_, u64>) -> OpResult + Sync + '_ {
        move |t: &u64, ctx: &mut Ctx<'_, u64>| {
            ctx.acquire(0u32)?; // single shared location: total order
            ctx.failsafe()?;
            log.lock().unwrap().push(*t);
            Ok(())
        }
    }
    use std::sync::Mutex;

    #[test]
    fn single_shared_location_executes_in_id_order_per_round() {
        // All tasks conflict; each round commits exactly the max id of its
        // window... which means overall order is deterministic and identical
        // across thread counts.
        let reference: Option<Vec<u64>> = None;
        let mut reference = reference;
        for threads in [1usize, 2, 4] {
            let log = Mutex::new(Vec::new());
            let marks = MarkTable::new(1);
            let op = trace_op(&log);
            let report = Executor::new()
                .threads(threads)
                .schedule(det())
                .iterate((0..40u64).collect())
                .run(&marks, &op);
            assert_eq!(report.stats.committed, 40);
            assert!(report.stats.rounds >= 40, "all-conflicting tasks serialize");
            drop(op);
            let got = log.into_inner().unwrap();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "threads={threads} changed the schedule"),
            }
        }
    }

    #[test]
    fn chaos_never_perturbs_the_deterministic_schedule() {
        // The invariance contract: a chaos seed may skew thread starts,
        // jitter barriers, shuffle worklist chunks and force spurious
        // commit-phase aborts, but the committed schedule — and therefore
        // the output, the round count and the commit count — must be
        // byte-identical to the chaos-free run.
        let run_with = |threads: usize, chaos: Option<u64>| {
            let log = Mutex::new(Vec::new());
            let marks = MarkTable::new(1);
            let op = trace_op(&log);
            let mut exec = Executor::new().threads(threads).schedule(det());
            if let Some(seed) = chaos {
                exec = exec.chaos(seed);
            }
            let report = exec.iterate((0..40u64).collect()).run(&marks, &op);
            drop(op);
            (log.into_inner().unwrap(), report.stats)
        };
        let (ref_log, ref_stats) = run_with(1, None);
        let mut saw_injection = false;
        for threads in [1usize, 2, 4] {
            for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
                let (log, stats) = run_with(threads, Some(seed));
                assert_eq!(log, ref_log, "threads={threads} seed={seed}");
                assert_eq!(
                    stats.rounds, ref_stats.rounds,
                    "threads={threads} seed={seed}"
                );
                assert_eq!(stats.committed, ref_stats.committed);
                assert_eq!(stats.aborted, ref_stats.aborted, "injected aborts leaked");
                saw_injection |= stats.injected_aborts > 0;
            }
        }
        assert!(saw_injection, "chaos never actually fired an abort");
    }

    #[test]
    #[should_panic(expected = "a selected task commits unconditionally")]
    fn an_always_conflicting_operator_panics_instead_of_stalling() {
        // Why the deterministic scheduler needs no stall watchdog: the
        // highest id of every window is selected, and a selected task that
        // still conflicts is a broken operator, not a livelock to count.
        let marks = MarkTable::new(1);
        let op = |_t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire(0u32)?;
            ctx.failsafe()?;
            Err(crate::Abort::Conflict)
        };
        let _ = Executor::new()
            .threads(2)
            .schedule(det())
            .iterate((0..64u64).collect())
            .try_run(&marks, &op);
    }

    #[test]
    fn disjoint_tasks_commit_in_one_round() {
        let marks = MarkTable::new(64);
        let hits = AtomicU64::new(0);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire(*t as u32)?;
            ctx.failsafe()?;
            hits.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let report = Executor::new()
            .threads(2)
            .schedule(det())
            .iterate((0..64u64).collect())
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 64);
        assert_eq!(report.stats.aborted, 0);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        // 64 disjoint tasks, initial window = 16 (pass/4), doubling: 16+32+16.
        assert!(report.stats.rounds <= 4, "rounds = {}", report.stats.rounds);
    }

    #[test]
    fn created_tasks_run_in_later_passes_deterministically() {
        // Tree expansion: task t < 8 pushes 2t+1, 2t+2 into a shared counter
        // cell; final count is the full tree size.
        let marks = MarkTable::new(16);
        let count = AtomicU64::new(0);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire((*t % 16) as u32)?;
            ctx.failsafe()?;
            count.fetch_add(1, Ordering::Relaxed);
            if *t < 8 {
                ctx.push(2 * *t + 1);
                ctx.push(2 * *t + 2);
            }
            Ok(())
        };
        let report = Executor::new()
            .threads(3)
            .schedule(det())
            .iterate(vec![0])
            .run(&marks, &op);
        // Nodes reachable from 0 with t<8 expanding: 0,1,2,...: nodes 0..=7
        // push children up to 16; total nodes = 0..=16 → but only those
        // reachable: 0;1,2;3,4,5,6;7..14 from 3..6; 15,16 from 7. Count:
        // 0,1,2,3,4,5,6 (expand) and 7..16 pushed w/ 7 expanding → 15,16.
        assert_eq!(count.load(Ordering::Relaxed), 17);
        assert_eq!(report.stats.committed, 17);
    }

    #[test]
    fn output_identical_across_thread_counts_with_conflicts() {
        // Chained neighborhood overlap: task i acquires {i, i+1}, appends to
        // a per-location log. Heavy conflicts; output must be thread-count
        // independent.
        let run_with = |threads: usize| -> Vec<Vec<u64>> {
            let logs: Vec<Mutex<Vec<u64>>> = (0..65).map(|_| Mutex::new(Vec::new())).collect();
            let marks = MarkTable::new(65);
            let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
                ctx.acquire(*t as u32)?;
                ctx.acquire(*t as u32 + 1)?;
                ctx.failsafe()?;
                logs[*t as usize].lock().unwrap().push(*t);
                logs[*t as usize + 1].lock().unwrap().push(*t);
                Ok(())
            };
            Executor::new()
                .threads(threads)
                .schedule(det())
                .iterate((0..64u64).collect())
                .run(&marks, &op);
            logs.into_iter().map(|l| l.into_inner().unwrap()).collect()
        };
        let a = run_with(1);
        let b = run_with(2);
        let c = run_with(5);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn continuation_checkpoint_skips_recompute() {
        use std::sync::atomic::AtomicU64;
        let marks = MarkTable::new(8);
        let expensive_calls = AtomicU64::new(0);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            let value = match ctx.take::<u64>() {
                Some(v) => v,
                None => {
                    ctx.acquire(*t as u32)?;
                    expensive_calls.fetch_add(1, Ordering::Relaxed);
                    ctx.checkpoint(*t * 10)?
                }
            };
            assert_eq!(value, *t * 10);
            Ok(())
        };
        let report = Executor::new()
            .threads(1)
            .schedule(det())
            .iterate((0..8u64).collect())
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 8);
        // With continuations each committed task computes once (inspect);
        // aborted attempts recompute on retry but these tasks are disjoint.
        assert_eq!(expensive_calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn disabling_continuation_recomputes_prefix() {
        let marks = MarkTable::new(8);
        let expensive_calls = AtomicU64::new(0);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            let _value = match ctx.take::<u64>() {
                Some(v) => v,
                None => {
                    ctx.acquire(*t as u32)?;
                    expensive_calls.fetch_add(1, Ordering::Relaxed);
                    ctx.checkpoint(*t * 10)?
                }
            };
            Ok(())
        };
        let report = Executor::new()
            .threads(1)
            .schedule(Schedule::Deterministic(DetOptions {
                continuation: false,
                ..DetOptions::default()
            }))
            .iterate((0..8u64).collect())
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 8);
        // Baseline: inspect + commit each compute → exactly twice per task.
        assert_eq!(expensive_calls.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn preassigned_ids_dedup_and_schedule() {
        // Tasks are node ids 0..32 with duplicates; payload == id.
        let marks = MarkTable::new(32);
        let count = AtomicU64::new(0);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire(*t as u32)?;
            ctx.failsafe()?;
            count.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let mut tasks: Vec<u64> = (0..32).collect();
        tasks.extend(0..16u64); // duplicates
        let report = Executor::new()
            .threads(2)
            .schedule(det())
            .iterate(tasks)
            .with_ids(|t| *t, 32)
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 32, "duplicates deduplicated");
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn locality_spread_changes_schedule_but_not_totals() {
        let run_spread = |spread: usize| {
            let marks = MarkTable::new(65);
            let count = AtomicU64::new(0);
            let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
                ctx.acquire(*t as u32)?;
                ctx.acquire(*t as u32 + 1)?;
                ctx.failsafe()?;
                count.fetch_add(1, Ordering::Relaxed);
                Ok(())
            };
            let report = Executor::new()
                .threads(2)
                .schedule(Schedule::Deterministic(DetOptions {
                    locality_spread: spread,
                    ..DetOptions::default()
                }))
                .iterate((0..64u64).collect())
                .run(&marks, &op);
            (report.stats.committed, report.stats.aborted)
        };
        let (c1, a1) = run_spread(1);
        let (c2, a2) = run_spread(16);
        assert_eq!(c1, 64);
        assert_eq!(c2, 64);
        // Adjacent tasks conflict; spreading them across rounds reduces aborts.
        assert!(a2 <= a1, "spread should not increase aborts ({a2} vs {a1})");
    }

    #[test]
    fn rounds_counted_and_trace_recorded() {
        let marks = MarkTable::new(4);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire((*t % 4) as u32)?;
            ctx.failsafe()?;
            Ok(())
        };
        let run = |rounds: bool| {
            Executor::new()
                .threads(1)
                .schedule(det())
                .record_trace(true)
                .record_rounds(rounds)
                .iterate((0..100u64).collect())
                .run(&marks, &op)
        };
        let report = run(false);
        assert!(report.stats.rounds > 0);
        match report.trace {
            Some(galois_runtime::simtime::ExecTrace::Rounds(log)) => {
                assert_eq!(log.len() as u64, report.stats.rounds);
                let committed: u64 = log.records().iter().map(|r| r.committed).sum();
                assert_eq!(committed, report.stats.committed);
                // A trace alone collects no conflict locations: the model
                // never reads them.
                assert!(log.records().iter().all(|r| r.conflicts.is_empty()));
            }
            other => panic!("expected rounds trace, got {other:?}"),
        }
        // The same run with a round log does attribute its conflicts.
        let logged = run(true).round_log.expect("round log recorded");
        assert!(logged.records().iter().any(|r| !r.conflicts.is_empty()));
    }

    #[test]
    fn operator_panic_quarantines_lowest_id_byte_identical_across_threads() {
        // Tasks 13 and 27 panic before their failsafe; everything else
        // commits. The fault report — task id, message, round — must be
        // byte-identical at every thread count (the tentpole invariant).
        let run_with = |threads: usize| {
            let marks = MarkTable::new(64);
            let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
                ctx.acquire((*t % 64) as u32)?;
                if *t == 13 || *t == 27 {
                    panic!("task {t} is cursed");
                }
                ctx.failsafe()?;
                Ok(())
            };
            Executor::new()
                .threads(threads)
                .schedule(det())
                .iterate((0..64u64).collect())
                .try_run(&marks, &op)
        };
        let reference = run_with(1).expect_err("faulting run must error");
        match &reference {
            crate::ExecError::OperatorPanic {
                task_id, message, ..
            } => {
                assert_eq!(*task_id, 13, "lowest faulted id of the window");
                assert_eq!(message, "task 13 is cursed");
            }
            other => panic!("expected OperatorPanic, got {other:?}"),
        }
        for threads in [2usize, 4, 8, 16] {
            let err = run_with(threads).expect_err("faulting run must error");
            assert_eq!(err, reference, "threads={threads}");
        }
    }

    #[test]
    fn quarantined_tasks_never_rerun_and_marks_release() {
        // The panicking task's partial marks must retire with the round so
        // later runs on the same table see a clean slate.
        let marks = MarkTable::new(8);
        let calls = AtomicU64::new(0);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire((*t % 8) as u32)?;
            if *t == 3 {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("boom");
            }
            ctx.failsafe()?;
            Ok(())
        };
        let err = Executor::new()
            .threads(2)
            .schedule(det())
            .iterate((0..8u64).collect())
            .try_run(&marks, &op)
            .expect_err("task 3 faults");
        assert!(matches!(
            err,
            crate::ExecError::OperatorPanic { task_id: 3, .. }
        ));
        // Inspect runs once; the quarantined slot is never committed or
        // retried, so the operator saw the task exactly once.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(marks.all_unowned(), "quarantine must not leak marks");
    }

    #[test]
    fn quarantine_overflow_when_a_whole_round_faults() {
        // 20_000 always-panicking tasks: the initial window (pass/4 = 5000)
        // exceeds QUARANTINE_CAP, so the first round overflows.
        let marks = MarkTable::new(1);
        let op = |_t: &u64, _ctx: &mut Ctx<'_, u64>| -> OpResult { panic!("all bad") };
        let err = Executor::new()
            .threads(4)
            .schedule(det())
            .iterate((0..20_000u64).collect())
            .try_run(&marks, &op)
            .expect_err("systemic fault");
        match err {
            crate::ExecError::QuarantineOverflow { quarantined, limit } => {
                assert!(quarantined > limit);
                assert_eq!(limit, crate::QUARANTINE_CAP);
            }
            other => panic!("expected QuarantineOverflow, got {other:?}"),
        }
    }

    #[test]
    fn chaos_panic_injection_reports_identical_faults_across_threads() {
        // Seeded panic injection at the failsafe: the injected fault set is
        // pure in (seed, task_id), so the report is invariant across thread
        // counts for a fixed seed — and the panic message is canonical.
        for seed in [1u64, 2, 3] {
            let run_with = |threads: usize| {
                let marks = MarkTable::new(512);
                let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
                    ctx.acquire((*t % 512) as u32)?;
                    ctx.failsafe()?;
                    Ok(())
                };
                Executor::new()
                    .threads(threads)
                    .schedule(det())
                    .chaos_panics(seed)
                    .iterate((0..512u64).collect())
                    .try_run(&marks, &op)
            };
            let reference = run_with(1).err();
            for threads in [2usize, 4, 8] {
                assert_eq!(run_with(threads).err(), reference, "seed={seed}");
            }
            if let Some(crate::ExecError::OperatorPanic { message, .. }) = &reference {
                assert!(
                    message.starts_with(crate::INJECTED_PANIC_PREFIX),
                    "injected faults carry the canonical marker: {message}"
                );
            }
        }
    }

    #[test]
    fn run_wrapper_panics_with_the_fault_display() {
        let marks = MarkTable::new(1);
        let op = |_t: &u64, _ctx: &mut Ctx<'_, u64>| -> OpResult { panic!("kaboom") };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::new()
                .threads(1)
                .schedule(det())
                .iterate(vec![0u64])
                .run(&marks, &op);
        }))
        .expect_err("run re-panics on fault");
        let msg = crate::error::panic_message(caught);
        assert!(msg.contains("operator panicked"), "got: {msg}");
        assert!(msg.contains("kaboom"), "got: {msg}");
    }

    #[test]
    fn empty_task_list_terminates() {
        let marks = MarkTable::new(1);
        let op = |_t: &u64, _ctx: &mut Ctx<'_, u64>| -> OpResult { Ok(()) };
        let report = Executor::new()
            .threads(2)
            .schedule(det())
            .iterate(vec![])
            .run(&marks, &op);
        assert_eq!(report.stats.committed, 0);
        assert_eq!(report.stats.rounds, 0);
    }
}
