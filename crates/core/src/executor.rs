//! Executor configuration and run reports: the on-demand determinism switch.
//!
//! The paper's headline design point is that **the same program** runs under
//! a non-deterministic or a deterministic scheduler, selected at run time
//! ("the desired scheduler is specified through a command-line parameter",
//! §1). [`Executor`] is that switch: build one with a [`Schedule`], then
//! describe the loop with [`Executor::iterate`] — a [`LoopSpec`] — and run
//! any cautious operator over it.
//!
//! ```
//! use galois_core::{Executor, MarkTable, Schedule, Ctx, OpResult};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // Sum-into-buckets: each task adds its value to bucket (task % 4).
//! let buckets: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
//! let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
//!     ctx.acquire((*t % 4) as u32)?;
//!     ctx.failsafe()?;
//!     buckets[(*t % 4) as usize].fetch_add(*t, Ordering::Relaxed);
//!     Ok(())
//! };
//! let marks = MarkTable::new(4);
//! let report = Executor::new()
//!     .threads(2)
//!     .schedule(Schedule::deterministic())
//!     .iterate((0..100).collect())
//!     .run(&marks, &op);
//! assert_eq!(report.stats.committed, 100);
//! let total: u64 = buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
//! assert_eq!(total, (0..100).sum());
//! ```
//!
//! ## Observing the schedule
//!
//! Attach a [`Probe`] (e.g. a [`RoundLog`]) to a loop to record per-round
//! scheduler behavior — window sizes, commit ratios, abort attribution:
//!
//! ```
//! use galois_core::{Executor, MarkTable, RoundLog, Schedule, Ctx, OpResult};
//!
//! let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
//!     ctx.acquire((*t % 4) as u32)?;
//!     ctx.failsafe()?;
//!     Ok(())
//! };
//! let marks = MarkTable::new(4);
//! let mut log = RoundLog::new();
//! Executor::new()
//!     .schedule(Schedule::deterministic())
//!     .iterate((0..100).collect())
//!     .probe(&mut log)
//!     .run(&marks, &op);
//! assert!(!log.is_empty());
//! // Under deterministic scheduling this serialization is byte-identical
//! // for every thread count: a portability oracle.
//! let _oracle = log.canonical_jsonl();
//! ```

use crate::ctx::Access;
use crate::det;
use crate::error::ExecError;
use crate::manifest::ManifestRecorder;
use crate::marks::MarkTable;
use crate::ops::Operator;
use crate::serial;
use crate::spec;
use crate::window::WindowPolicy;
use galois_runtime::chaos::ChaosPolicy;
use galois_runtime::probe::{Probe, RoundLog, RoundRecord};
use galois_runtime::simtime::ExecTrace;
use galois_runtime::stats::ExecStats;
use std::sync::Arc;

/// Options of the deterministic (DIG) scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct DetOptions {
    /// Continuation optimization (§3.3, first): honor [`crate::Ctx::checkpoint`]
    /// so commits resume from the failsafe point instead of re-executing the
    /// operator prefix. Disabling this reproduces the baseline scheduler of
    /// §3.2 (measured in Figure 10).
    pub continuation: bool,
    /// Locality spreading (§3.3, second): deal the task sequence into this
    /// many buckets so tasks adjacent in iteration order land in different
    /// rounds. `0` or `1` disables.
    pub locality_spread: usize,
    /// Adaptive window constants (§3.2). Fixed by default; exposed for
    /// ablation studies only — note that changing them changes the schedule,
    /// which is exactly why the paper insists they not be user-tunable.
    pub window: WindowPolicy,
}

impl Default for DetOptions {
    fn default() -> Self {
        DetOptions {
            continuation: true,
            locality_spread: 1,
            window: WindowPolicy::default(),
        }
    }
}

/// Task-pool ordering policy for the speculative scheduler.
///
/// The pool of Figure 1a is unordered, so any policy is correct; the choice
/// is pure scheduling (the original Galois system exposes a library of
/// worklist policies). LIFO maximizes locality; FIFO gives the breadth-like
/// order that label-correcting algorithms (bfs) need to avoid redundant
/// work. Deterministic scheduling ignores this (its order is the
/// deterministic id order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorklistPolicy {
    /// Chunked LIFO (default).
    #[default]
    Lifo,
    /// Chunked roughly-FIFO.
    Fifo,
}

/// Which scheduler executes the loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Single-threaded reference execution (no marks, no conflicts).
    Serial,
    /// The non-deterministic speculative scheduler of Figure 1b.
    Speculative,
    /// The deterministic DIG scheduler of Figures 2–3.
    Deterministic(DetOptions),
}

impl Schedule {
    /// Deterministic scheduling with default options.
    pub fn deterministic() -> Self {
        Schedule::Deterministic(DetOptions::default())
    }
}

/// Default stall threshold, in consecutive speculative rounds with no commit
/// or quarantine (see [`Executor::max_stalled_rounds`]). A round closes only
/// once every worker has failed an attempt or idled, so a live workload
/// resets the count long before this and the rule only fires on livelock.
pub const DEFAULT_MAX_STALLED_ROUNDS: u64 = 4096;

/// A configured parallel loop executor. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Executor {
    pub(crate) threads: usize,
    pub(crate) schedule: Schedule,
    pub(crate) worklist: WorklistPolicy,
    pub(crate) record_trace: bool,
    pub(crate) record_access: bool,
    pub(crate) record_rounds: bool,
    pub(crate) chaos: Option<Arc<ChaosPolicy>>,
    pub(crate) max_stalled_rounds: u64,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            threads: 1,
            schedule: Schedule::Speculative,
            worklist: WorklistPolicy::Lifo,
            record_trace: false,
            record_access: false,
            record_rounds: false,
            chaos: None,
            max_stalled_rounds: DEFAULT_MAX_STALLED_ROUNDS,
        }
    }
}

impl Executor {
    /// A speculative single-thread executor; configure with the builder
    /// methods.
    pub fn new() -> Self {
        Executor::default()
    }

    /// Sets the number of worker threads.
    ///
    /// Under [`Schedule::Deterministic`] the output is identical for every
    /// value (the portability property); under [`Schedule::Speculative`] it
    /// is not. [`Schedule::Serial`] ignores this.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
        self
    }

    /// Selects the scheduler.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Selects the speculative scheduler's task-pool order (ignored by the
    /// serial and deterministic schedulers).
    pub fn worklist(mut self, policy: WorklistPolicy) -> Self {
        self.worklist = policy;
        self
    }

    /// Records a virtual-time trace ([`ExecTrace`]) of the run, used by the
    /// scaling model. Best recorded at `threads(1)` for clean per-task costs.
    /// A deterministic run's trace is its [`RoundRecord`]s, timed and
    /// without conflict locations.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Records the abstract-location access stream for the cache-simulator
    /// locality study (Figure 11).
    pub fn record_access(mut self, on: bool) -> Self {
        self.record_access = on;
        self
    }

    /// Installs a seeded schedule-chaos policy (see
    /// [`galois_runtime::chaos`]): adversarial steal/spill/refill order,
    /// barrier jitter, thread start skew, and forced spurious aborts at the
    /// failsafe point, all driven by `seed`.
    ///
    /// Under [`Schedule::Deterministic`] neither the seed nor the presence of
    /// chaos may change the output or the canonical round log — that is the
    /// invariance the differential harness proves. Under
    /// [`Schedule::Speculative`] chaos perturbs the schedule for real; the
    /// output must still validate against the serial oracle.
    /// [`Schedule::Serial`] ignores chaos entirely (it is the oracle).
    /// Without a policy installed the hooks cost one branch each.
    pub fn chaos(mut self, seed: u64) -> Self {
        self.chaos = Some(Arc::new(ChaosPolicy::new(seed)));
        self
    }

    /// Like [`chaos`](Self::chaos), but with **panic injection** armed:
    /// roughly one eligible failsafe crossing in 64 panics instead of
    /// proceeding, exercising the fault-containment layer end to end. The
    /// drawn fault set is pure in `(seed, task id)`, so under
    /// [`Schedule::Deterministic`] the resulting
    /// [`ExecError::OperatorPanic`] report is byte-identical at any thread
    /// count for a fixed seed — the invariance the differential harness's
    /// panic matrix proves. The output of a faulted run is *not* seed
    /// invariant (quarantined tasks never run), which is why this is a
    /// separate opt-in rather than part of [`chaos`](Self::chaos).
    pub fn chaos_panics(mut self, seed: u64) -> Self {
        self.chaos = Some(Arc::new(ChaosPolicy::with_panics(seed)));
        self
    }

    /// Sets the speculative stall threshold: after this many consecutive
    /// speculative rounds with no commit and no quarantine, a run returns
    /// [`ExecError::Stalled`] instead of retrying forever. A speculative
    /// round closes once every worker has finished an attempt without
    /// committing or found its bag empty; it is counted in executor state,
    /// never in time, so a worker descheduled inside an operator stops
    /// rounds from closing instead of being convicted. The deterministic
    /// scheduler cannot stall — every round commits its highest-id task —
    /// and ignores the bound.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn max_stalled_rounds(mut self, rounds: u64) -> Self {
        assert!(rounds > 0, "stall threshold must be positive");
        self.max_stalled_rounds = rounds;
        self
    }

    /// Records a [`RoundLog`] internally and returns it in
    /// [`RunReport::round_log`]. Equivalent to attaching a fresh `RoundLog`
    /// via [`LoopSpec::probe`] but without threading a borrow through the
    /// caller — convenient when the caller owns neither the loop site nor a
    /// probe (e.g. the CLI binaries' `--round-log` flag).
    pub fn record_rounds(mut self, on: bool) -> Self {
        self.record_rounds = on;
        self
    }

    /// The configured worker-thread count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The configured scheduler.
    pub fn scheduler(&self) -> &Schedule {
        &self.schedule
    }

    /// Whether runs record a virtual-time trace ([`record_trace`](Self::record_trace)).
    pub fn records_trace(&self) -> bool {
        self.record_trace
    }

    /// Describes a loop over `tasks`: the single entry point for running.
    ///
    /// Returns a [`LoopSpec`] builder; chain [`LoopSpec::with_ids`] /
    /// [`LoopSpec::probe`] as needed and finish with [`LoopSpec::run`]:
    ///
    /// ```ignore
    /// let report = exec.iterate(tasks).with_ids(id_of, n).probe(&mut log).run(&marks, &op);
    /// ```
    ///
    /// `'p` — the lifetime of whatever observers and id function get
    /// attached — is independent of the executor borrow.
    pub fn iterate<'p, T: Send>(&self, tasks: Vec<T>) -> LoopSpec<'_, 'p, T> {
        LoopSpec {
            exec: self,
            tasks,
            ids: None,
            hooks: Hooks::default(),
        }
    }
}

/// The observers one run can carry, as a single value.
///
/// Application entry points take a `Hooks` and hand it to
/// [`LoopSpec::hooks`], so every observer a caller may want rides one
/// parameter: a new kind of observer is a new field here, never another
/// entry point per application. Both slots empty (`Hooks::default()`) is
/// the plain run; attaching either one never changes the executed
/// schedule.
#[derive(Default)]
pub struct Hooks<'p> {
    /// Observes every deterministic round ([`LoopSpec::probe`]).
    pub probe: Option<&'p mut dyn Probe>,
    /// Captures or replay-verifies the canonical hash chain
    /// ([`LoopSpec::record`]).
    pub recorder: Option<&'p mut ManifestRecorder>,
}

impl Hooks<'_> {
    /// A shorter-lived view of the same observers, for algorithms that run
    /// several loops (preflow-push bouts) under one set of hooks.
    pub fn reborrow(&mut self) -> Hooks<'_> {
        Hooks {
            probe: match &mut self.probe {
                Some(p) => Some(&mut **p),
                None => None,
            },
            recorder: self.recorder.as_deref_mut(),
        }
    }
}

/// A parallel loop about to run: tasks plus optional ids and probe.
///
/// Built by [`Executor::iterate`]; consumed by [`LoopSpec::run`]. This is
/// the single configuration path for everything a *particular loop* needs
/// (as opposed to the [`Executor`], which holds per-*schedule* settings and
/// is reusable across loops).
pub struct LoopSpec<'e, 'p, T> {
    exec: &'e Executor,
    tasks: Vec<T>,
    #[allow(clippy::type_complexity)]
    ids: Option<(Box<dyn Fn(&T) -> u64 + Sync + 'p>, usize)>,
    /// The recorder has a dedicated slot, not the probe slot, so a run can
    /// be recorded *and* probed at once.
    hooks: Hooks<'p>,
}

impl<T: Send> std::fmt::Debug for LoopSpec<'_, '_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopSpec")
            .field("exec", &self.exec)
            .field("tasks", &self.tasks.len())
            .field("with_ids", &self.ids.is_some())
            .field("probe", &self.hooks.probe.is_some())
            .field("recorder", &self.hooks.recorder.is_some())
            .finish()
    }
}

impl<'e, 'p, T: Send> LoopSpec<'e, 'p, T> {
    /// Supplies **pre-assigned task ids** (§3.3, third optimization).
    ///
    /// When tasks are drawn from a fixed set (e.g. graph nodes), `id_of`
    /// supplies each *initial* task's fixed priority in `0..id_space`
    /// directly, skipping the initial sort; equal-id initial tasks are
    /// deduplicated, so the payload must be a function of its id. Duplicates
    /// are dropped silently at run time, but the number dropped is reported
    /// in [`ExecStats::dedup_dropped`] — check it if losing work to an id
    /// collision would be a bug in your id function. Tasks *created* during
    /// execution are ordered by `(parent, rank)` like the default path (this
    /// implementation keeps the created-task sort; the paper's fully
    /// pre-assigned scheme additionally reuses fixed ids for created tasks).
    ///
    /// Non-deterministic schedules ignore the ids.
    ///
    /// # Panics
    ///
    /// The deterministic scheduler panics if some `id_of(task) >= id_space`.
    pub fn with_ids<F>(mut self, id_of: F, id_space: usize) -> Self
    where
        F: Fn(&T) -> u64 + Sync + 'p,
    {
        self.ids = Some((Box::new(id_of), id_space));
        self
    }

    /// Attaches a [`Probe`] that observes every deterministic round of this
    /// loop. The speculative scheduler has no rounds, so there the probe
    /// sees only [`Probe::on_finish`]. With no probe attached (and
    /// [`Executor::record_rounds`] off) the observability layer is fully
    /// inert: no records are built, no conflicts collected, no timers run,
    /// and no atomics are added to the hot path.
    pub fn probe(mut self, probe: &'p mut dyn Probe) -> Self {
        self.hooks.probe = Some(probe);
        self
    }

    /// Attaches a [`ManifestRecorder`] that captures this run for
    /// record/replay: the executor configuration is snapshotted into the
    /// recorder and every round's canonical hash is chained
    /// (see [`crate::manifest`]). In the recorder's *replay* mode the same
    /// attachment point verifies the run against a
    /// [`crate::manifest::RunManifest`] instead, flagging the first
    /// divergent round, and the produced [`RunReport`] marks itself as a
    /// replay ([`RunReport::is_replay`]).
    ///
    /// The recorder occupies its own slot, so it composes with
    /// [`LoopSpec::probe`] and [`Executor::record_rounds`]. Multi-pass
    /// algorithms (e.g. preflow-push bouts) attach the *same* recorder to
    /// every pass; rounds chain across passes into one monotone sequence.
    pub fn record(mut self, recorder: &'p mut ManifestRecorder) -> Self {
        self.hooks.recorder = Some(recorder);
        self
    }

    /// Attaches a whole [`Hooks`] value: [`LoopSpec::probe`] and
    /// [`LoopSpec::record`] in one call, each slot optional. This is what
    /// application entry points use to forward their caller's observers.
    pub fn hooks(mut self, hooks: Hooks<'p>) -> Self {
        self.hooks = hooks;
        self
    }

    /// Runs the loop with operator `op`, synchronizing through `marks`.
    ///
    /// `marks` must cover every [`crate::LockId`] the operator acquires, and
    /// must be all-unowned on entry; it is all-unowned again on return.
    ///
    /// New tasks pushed by the operator are scheduled until the pool drains
    /// (Figure 1a). Under deterministic scheduling, initial ids follow the
    /// order of `tasks` (or `with_ids`) and created tasks are ordered by
    /// `(parent, rank)` (§3.2).
    ///
    /// # Panics
    ///
    /// Panics with the [`ExecError`] display message when the run faults —
    /// an operator panicked before its failsafe point, the quarantine cap
    /// overflowed, or the stall watchdog fired. Callers that want to handle
    /// faults use [`try_run`](Self::try_run) instead. In det mode the panic
    /// message itself is canonical (thread-count independent).
    pub fn run<O>(self, marks: &MarkTable, op: &O) -> RunReport
    where
        O: Operator<T>,
    {
        self.try_run(marks, op).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the loop like [`run`](Self::run), but reports execution faults
    /// as structured [`ExecError`]s instead of panicking.
    ///
    /// Fault containment guarantees:
    ///
    /// - An operator panic **before the failsafe point** is treated like an
    ///   abort: the task's marks roll back (by epoch in det mode, by CAS in
    ///   spec mode), the task is quarantined with its payload and captured
    ///   panic message, and the run fails with
    ///   [`ExecError::OperatorPanic`]. Peer workers drain; nothing
    ///   deadlocks.
    /// - In det mode the reported fault is the **lowest-id faulted task of
    ///   the first faulting round** — byte-identical at any thread count,
    ///   like every other deterministic output.
    /// - A panic that escapes containment (an executor bug, or an operator
    ///   fault past the failsafe point) still propagates as a panic, after
    ///   poisoning the round barrier so peers release instead of spinning.
    ///
    /// On `Err`, any attached [`Probe`] still receives its
    /// `on_finish` callback with the partial statistics (including
    /// [`quarantined`](ExecStats::quarantined)), but no [`RunReport`] is
    /// produced — the application state a faulted run leaves behind is
    /// explicitly not a run product.
    pub fn try_run<O>(self, marks: &MarkTable, op: &O) -> Result<RunReport, ExecError>
    where
        O: Operator<T>,
    {
        let LoopSpec {
            exec,
            tasks,
            ids,
            hooks: Hooks { probe, recorder },
        } = self;
        debug_assert!(marks.all_unowned(), "mark table must start unowned");
        // Snapshot the configuration into the recorder before the run;
        // replay mode marks the report.
        let mut is_replay = false;
        let mut recorder = recorder;
        if let Some(rec) = &mut recorder {
            is_replay = rec.is_replay();
            rec.capture(exec);
        }
        // A deterministic run's trace is its round records.
        let det_trace = exec.record_trace && matches!(exec.schedule, Schedule::Deterministic(_));
        let mut hub = ProbeHub::new(probe, recorder, exec.record_rounds, det_trace);
        let (mut report, fault) = match &exec.schedule {
            Schedule::Serial => (serial::run(exec, marks, tasks, op), None),
            Schedule::Speculative => spec::run(exec, marks, tasks, op),
            Schedule::Deterministic(opts) => {
                let preassigned = ids
                    .as_ref()
                    .map(|(f, space)| (&**f as &(dyn Fn(&T) -> u64 + Sync), *space));
                det::run(exec, opts, marks, tasks, op, preassigned, &mut hub)
            }
        };
        hub.finish(&report.stats);
        let (round_log, rounds) = hub.into_logs();
        report.round_log = round_log;
        if let Some(rounds) = rounds {
            report.trace = Some(ExecTrace::Rounds(rounds));
        }
        if is_replay {
            report.replay = true;
        }
        match fault {
            Some(err) => Err(err),
            None => Ok(report),
        }
    }
}

/// Fan-out shim between an executor and up to four probes: the external
/// `&mut dyn Probe` from [`LoopSpec::probe`], the [`ManifestRecorder`] from
/// [`LoopSpec::record`], the internal [`RoundLog`] from
/// [`Executor::record_rounds`], and the round records of a deterministic
/// run's [`Executor::record_trace`]. Executors interact only with this;
/// when every slot is empty every `wants_*` gate is false and the
/// observability layer costs nothing.
pub(crate) struct ProbeHub<'p> {
    external: Option<&'p mut dyn Probe>,
    recorder: Option<&'p mut ManifestRecorder>,
    own: Option<RoundLog>,
    /// The trace's rounds: they need timing, never conflicts.
    trace: Option<RoundLog>,
}

impl<'p> ProbeHub<'p> {
    fn new(
        external: Option<&'p mut dyn Probe>,
        recorder: Option<&'p mut ManifestRecorder>,
        record_rounds: bool,
        record_trace: bool,
    ) -> Self {
        ProbeHub {
            external,
            recorder,
            own: record_rounds.then(RoundLog::new),
            trace: record_trace.then(RoundLog::new),
        }
    }

    /// Whether any probe is attached at all.
    pub(crate) fn active(&self) -> bool {
        self.external.is_some()
            || self.recorder.is_some()
            || self.own.is_some()
            || self.trace.is_some()
    }

    pub(crate) fn wants_conflicts(&self) -> bool {
        // The recorder never wants conflicts (they are excluded from the
        // canonical hash) and the model never reads them, so only the
        // external probe and the round log are consulted.
        self.external
            .as_ref()
            .map(|p| p.wants_conflicts())
            .unwrap_or(false)
            || self
                .own
                .as_ref()
                .map(|p| p.wants_conflicts())
                .unwrap_or(false)
    }

    pub(crate) fn wants_timing(&self) -> bool {
        self.external
            .as_ref()
            .map(|p| p.wants_timing())
            .unwrap_or(false)
            || self.own.as_ref().map(|p| p.wants_timing()).unwrap_or(false)
            || self.trace.is_some()
    }

    pub(crate) fn conflict_top_k(&self) -> usize {
        self.external
            .as_ref()
            .map(|p| p.conflict_top_k())
            .unwrap_or(0)
            .max(self.own.as_ref().map(|p| p.conflict_top_k()).unwrap_or(0))
    }

    /// Hands `record` to every attached probe: a clone to each but the
    /// last, which takes it.
    pub(crate) fn on_round(&mut self, record: RoundRecord) {
        let sinks: [Option<&mut dyn Probe>; 4] = [
            self.recorder.as_deref_mut().map(|r| r as &mut dyn Probe),
            self.external.as_deref_mut(),
            self.own.as_mut().map(|r| r as &mut dyn Probe),
            self.trace.as_mut().map(|r| r as &mut dyn Probe),
        ];
        let mut sinks = sinks.into_iter().flatten().peekable();
        while let Some(sink) = sinks.next() {
            if sinks.peek().is_none() {
                sink.on_round(record);
                return;
            }
            sink.on_round(record.clone());
        }
    }

    fn finish(&mut self, stats: &ExecStats) {
        if let Some(ext) = &mut self.external {
            ext.on_finish(stats);
        }
        if let Some(rec) = &mut self.recorder {
            rec.on_finish(stats);
        }
        if let Some(own) = &mut self.own {
            own.on_finish(stats);
        }
    }

    /// The round log and the trace's rounds, when recorded.
    fn into_logs(self) -> (Option<RoundLog>, Option<RoundLog>) {
        (self.own, self.trace)
    }
}

/// Everything a run produced besides the application's own state.
///
/// Marked `#[non_exhaustive]` so future observability fields are not
/// breaking changes; construct via a run, read via the fields or the
/// accessor methods.
#[non_exhaustive]
#[derive(Debug, Default)]
pub struct RunReport {
    /// Commit/abort/atomic counts, rounds, and wall-clock time.
    pub stats: ExecStats,
    /// Virtual-time trace, when requested via [`Executor::record_trace`].
    pub trace: Option<ExecTrace>,
    /// Per-thread abstract-location access streams, when requested via
    /// [`Executor::record_access`].
    pub accesses: Option<Vec<Vec<Access>>>,
    /// Per-round log, when requested via [`Executor::record_rounds`].
    pub round_log: Option<RoundLog>,
    /// Whether this report came from a **replay** of a recorded manifest
    /// (a [`LoopSpec::record`] attachment in replay mode) rather than a
    /// fresh run. Replay reports must be distinguishable downstream — e.g.
    /// in round-log JSONL dumps — so a verified re-execution is never
    /// mistaken for new evidence of determinism.
    pub replay: bool,
}

impl RunReport {
    /// Aggregate execution statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Virtual-time trace, when one was recorded.
    pub fn trace(&self) -> Option<&ExecTrace> {
        self.trace.as_ref()
    }

    /// Per-thread access streams, when recorded.
    pub fn accesses(&self) -> Option<&[Vec<Access>]> {
        self.accesses.as_deref()
    }

    /// Per-round log, when recorded via [`Executor::record_rounds`].
    pub fn round_log(&self) -> Option<&RoundLog> {
        self.round_log.as_ref()
    }

    /// Takes ownership of the round log, leaving `None` behind.
    pub fn take_round_log(&mut self) -> Option<RoundLog> {
        self.round_log.take()
    }

    /// Whether this report was produced by replaying a recorded manifest.
    pub fn is_replay(&self) -> bool {
        self.replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let e = Executor::new();
        assert_eq!(e.threads, 1);
        assert_eq!(e.schedule, Schedule::Speculative);
        assert!(!e.record_trace);
        assert!(!e.record_access);
        assert!(!e.record_rounds);
        assert!(e.chaos.is_none());
    }

    #[test]
    fn chaos_compares_by_seed() {
        // Executor derives PartialEq; ChaosPolicy equality is by seed, so
        // two builders with the same seed compare equal (the ticket state is
        // not identity).
        let a = Executor::new().chaos(9);
        let b = Executor::new().chaos(9);
        assert_eq!(a, b);
        assert_ne!(a, Executor::new().chaos(10));
        assert_ne!(a, Executor::new());
    }

    #[test]
    fn loop_spec_debug_is_compact() {
        let e = Executor::new();
        let spec = e.iterate(vec![1u64, 2, 3]);
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("tasks: 3"));
        assert!(dbg.contains("probe: false"));
    }

    #[test]
    fn probe_hub_inert_when_empty() {
        let hub = ProbeHub::new(None, None, false, false);
        assert!(!hub.active());
        assert!(!hub.wants_conflicts());
        assert!(!hub.wants_timing());
        assert_eq!(hub.conflict_top_k(), 0);
    }

    #[test]
    fn probe_hub_fans_out_to_every_slot() {
        let mut ext = RoundLog::new();
        let mut hub = ProbeHub::new(Some(&mut ext), None, true, true);
        assert!(hub.active() && hub.wants_conflicts() && hub.wants_timing());
        hub.on_round(RoundRecord {
            round: 0,
            ..Default::default()
        });
        hub.finish(&ExecStats::default());
        let (own, trace) = hub.into_logs();
        assert_eq!(own.expect("own log present").len(), 1);
        assert_eq!(trace.expect("trace present").len(), 1);
        assert_eq!(ext.len(), 1);
        assert!(ext.final_stats().is_some());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        let _ = Executor::new().threads(0);
    }

    #[test]
    fn recorder_attachment_captures_and_marks_replay() {
        use crate::ctx::{Ctx, OpResult};
        use crate::manifest::ManifestRecorder;
        let marks = MarkTable::new(4);
        let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
            ctx.acquire((*t % 4) as u32)?;
            ctx.failsafe()?;
            Ok(())
        };
        let exec = Executor::new()
            .threads(2)
            .schedule(Schedule::deterministic());

        // Record mode: config captured, rounds chained, report NOT a replay.
        let mut rec = ManifestRecorder::new();
        let report = exec
            .iterate((0..32u64).collect())
            .record(&mut rec)
            .run(&marks, &op);
        assert!(!report.is_replay());
        assert!(rec.rounds() > 0);
        assert_eq!(rec.rounds() as usize, rec.round_hashes().len());
        let manifest = rec.finish("test", "k", 0, 0, 7);
        assert_eq!(manifest.exec.threads, 2);

        // Replay mode against the just-recorded manifest: clean verify,
        // and the report marks itself as a replay.
        let mut rep = ManifestRecorder::replaying(&manifest);
        let report = exec
            .iterate((0..32u64).collect())
            .record(&mut rep)
            .run(&marks, &op);
        assert!(report.is_replay());
        assert!(rep.verify(&manifest, 7).is_ok());
    }

    #[test]
    fn det_options_default_enables_continuations() {
        let d = DetOptions::default();
        assert!(d.continuation);
        assert_eq!(d.locality_spread, 1);
    }
}
