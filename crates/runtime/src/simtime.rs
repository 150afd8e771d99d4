//! Virtual-time scaling model.
//!
//! The paper evaluates on three multi-socket machines (m4x10, m4x6, numa8x4).
//! The host this reproduction runs on has 2 cores, so wall-clock thread
//! sweeps cannot show scaling. Instead, executors record an [`ExecTrace`] —
//! per-task costs plus the round/barrier structure the scheduler imposed —
//! and this module replays the trace on *p* virtual workers:
//!
//! - **Asynchronous traces** (the non-deterministic executor): tasks have no
//!   ordering constraints beyond creation, so the makespan is the greedy
//!   list-scheduling bound `max(total_work / p, longest_task)` plus per-task
//!   scheduling overhead. This matches the paper's observation that abort
//!   ratios are essentially zero (§5.1), making g-n embarrassingly parallel.
//! - **Round traces** (the deterministic executors, both DIG and PBBS-style)
//!   are the run's [`RoundLog`]: the same [`RoundRecord`]s the round log
//!   and `/run` report. Each round contributes, from its `inspect_ns` /
//!   `inspect_max_ns` and `commit_ns` / `commit_max_ns`, the makespan of
//!   each phase on `p` workers (or on one when `barriers` is 0); its
//!   `serial_ns` less `place_ns` as serial time; `place_ns` split `p` ways;
//!   and `barriers` barrier episodes. Rounds are serialized. This is
//!   precisely the critical-path cost the paper attributes to determinism
//!   (§3.4).
//!
//! A [`MachineProfile`] supplies per-machine constants: worker count, barrier
//! latency, and a NUMA remote-access multiplier that kicks in past the size of
//! one NUMA node (reproducing the 8-thread cliff on numa8x4, §5.3).

use crate::probe::{RoundLog, RoundRecord};

/// Cost model constants for one simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Human-readable machine name (e.g. `"m4x10"`).
    pub name: &'static str,
    /// Maximum worker count.
    pub max_threads: usize,
    /// Fixed component of one barrier episode, nanoseconds.
    pub barrier_base_ns: f64,
    /// Per-log2(p) component of one barrier episode, nanoseconds.
    pub barrier_per_log_thread_ns: f64,
    /// Threads per NUMA node; work slows down once p exceeds this.
    pub numa_node_size: usize,
    /// Multiplier applied to all work when p spans multiple NUMA nodes.
    pub numa_penalty: f64,
}

impl MachineProfile {
    /// The paper's m4x10: four ten-core Xeon E7-4860.
    pub const M4X10: MachineProfile = MachineProfile {
        name: "m4x10",
        max_threads: 40,
        barrier_base_ns: 400.0,
        barrier_per_log_thread_ns: 250.0,
        numa_node_size: 40, // single coherence domain for modelling purposes
        numa_penalty: 1.0,
    };

    /// The paper's m4x6: four six-core Xeon E7540.
    pub const M4X6: MachineProfile = MachineProfile {
        name: "m4x6",
        max_threads: 24,
        barrier_base_ns: 400.0,
        barrier_per_log_thread_ns: 280.0,
        numa_node_size: 24,
        numa_penalty: 1.0,
    };

    /// The paper's numa8x4: eight four-core E7520 on SGI NUMALink.
    ///
    /// Runs of eight threads or fewer stay on one node; larger runs pay
    /// remote-access costs (§5.3: "sharp drop in performance at eight
    /// threads ... remote memory accesses are significantly more expensive").
    pub const NUMA8X4: MachineProfile = MachineProfile {
        name: "numa8x4",
        max_threads: 32,
        barrier_base_ns: 900.0,
        barrier_per_log_thread_ns: 600.0,
        numa_node_size: 8,
        numa_penalty: 1.9,
    };

    /// All three paper machines.
    pub const ALL: [MachineProfile; 3] = [Self::M4X10, Self::M4X6, Self::NUMA8X4];

    /// Cost in nanoseconds of one barrier episode with `p` participants.
    pub fn barrier_ns(&self, p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            self.barrier_base_ns + self.barrier_per_log_thread_ns * (p as f64).log2()
        }
    }

    /// Work multiplier for `p` workers (NUMA penalty or 1.0).
    pub fn work_multiplier(&self, p: usize) -> f64 {
        if p > self.numa_node_size {
            self.numa_penalty
        } else {
            1.0
        }
    }
}

/// A recorded execution, replayable on any virtual worker count.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecTrace {
    /// Unordered task pool, no global synchronization (non-deterministic
    /// executor, Figure 1b). Costs are per committed task; `overhead_ns` is
    /// the per-task scheduling cost (worklist + marks).
    Async {
        /// Per-task execution costs, nanoseconds.
        task_ns: Vec<f64>,
        /// Per-task scheduler overhead, nanoseconds.
        overhead_ns: f64,
    },
    /// Bulk-synchronous rounds (deterministic executors, Figure 2).
    Rounds(RoundLog),
    /// A purely sequential execution (baselines): fixed total time.
    Sequential {
        /// Total time, nanoseconds.
        total_ns: f64,
    },
}

impl ExecTrace {
    /// Total work contained in the trace, nanoseconds.
    pub fn total_work_ns(&self) -> f64 {
        match self {
            ExecTrace::Async {
                task_ns,
                overhead_ns,
            } => task_ns.iter().sum::<f64>() + overhead_ns * task_ns.len() as f64,
            ExecTrace::Rounds(log) => log.records().iter().map(RoundRecord::work_ns).sum(),
            ExecTrace::Sequential { total_ns } => *total_ns,
        }
    }

    /// One trace for a multi-pass run (pfp runs one executor pass per
    /// bout): the passes back to back, rounds joined by
    /// [`RoundLog::concat`]. An asynchronous run's per-task overhead is the
    /// largest pass's. `None` for no passes.
    ///
    /// # Panics
    ///
    /// Panics if the passes mix trace kinds.
    pub fn concat(passes: impl IntoIterator<Item = ExecTrace>) -> Option<ExecTrace> {
        passes.into_iter().reduce(|a, b| match (a, b) {
            (ExecTrace::Rounds(a), ExecTrace::Rounds(b)) => {
                ExecTrace::Rounds(RoundLog::concat([a, b]))
            }
            (
                ExecTrace::Async {
                    task_ns: mut a,
                    overhead_ns: oa,
                },
                ExecTrace::Async {
                    task_ns: b,
                    overhead_ns: ob,
                },
            ) => {
                a.extend(b);
                ExecTrace::Async {
                    task_ns: a,
                    overhead_ns: oa.max(ob),
                }
            }
            (ExecTrace::Sequential { total_ns: a }, ExecTrace::Sequential { total_ns: b }) => {
                ExecTrace::Sequential { total_ns: a + b }
            }
            _ => panic!("every pass of a run has the run's schedule"),
        })
    }

    /// Predicted makespan on `p` workers of `machine`, nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn makespan_ns(&self, machine: &MachineProfile, p: usize) -> f64 {
        assert!(p > 0, "need at least one worker");
        let mult = machine.work_multiplier(p);
        match self {
            ExecTrace::Sequential { total_ns } => *total_ns,
            ExecTrace::Async {
                task_ns,
                overhead_ns,
            } => {
                let total: f64 = task_ns.iter().sum::<f64>() + overhead_ns * task_ns.len() as f64;
                let longest = task_ns.iter().copied().fold(0.0f64, f64::max);
                (total * mult / p as f64).max(longest * mult)
            }
            ExecTrace::Rounds(log) => log
                .records()
                .iter()
                .map(|r| {
                    // A round that crossed no barrier ran on one worker (the
                    // DIG leader runs thin rounds inline), whatever `p` is.
                    let lanes = if r.barriers == 0 { 1 } else { p };
                    let phase =
                        |total: f64, max: f64| (total * mult / lanes as f64).max(max * mult);
                    phase(r.inspect_ns, r.inspect_max_ns)
                        + phase(r.commit_ns, r.commit_max_ns)
                        + r.unplaced_ns() * mult
                        + r.place_ns * mult / p as f64
                        + f64::from(r.barriers) * machine.barrier_ns(p)
                })
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_trace_scales_linearly_until_longest_task() {
        let t = ExecTrace::Async {
            task_ns: vec![100.0; 1000],
            overhead_ns: 0.0,
        };
        let m = MachineProfile::M4X10;
        let s1 = t.makespan_ns(&m, 1);
        let s10 = t.makespan_ns(&m, 10);
        assert!((s1 / s10 - 10.0).abs() < 1e-9);
        // With one giant task, adding workers stops helping.
        let t2 = ExecTrace::Async {
            task_ns: vec![1_000_000.0],
            overhead_ns: 0.0,
        };
        assert_eq!(t2.makespan_ns(&m, 1), t2.makespan_ns(&m, 40));
    }

    fn rounds(records: impl IntoIterator<Item = RoundRecord>) -> ExecTrace {
        use crate::probe::Probe;
        let mut log = RoundLog::new();
        records.into_iter().for_each(|r| log.on_round(r));
        ExecTrace::Rounds(log)
    }

    /// A round of `tasks` tasks costing `task_ns` each in both phases.
    fn round(tasks: u64, task_ns: f64, serial_ns: f64, barriers: u32) -> RoundRecord {
        RoundRecord {
            attempted: tasks,
            committed: tasks,
            inspect_ns: task_ns * tasks as f64,
            commit_ns: task_ns * tasks as f64,
            inspect_max_ns: task_ns,
            commit_max_ns: task_ns,
            serial_ns,
            barriers,
            ..RoundRecord::default()
        }
    }

    #[test]
    fn rounds_pay_barriers() {
        let t = rounds((0..100).map(|_| round(64, 50.0, 0.0, 3)));
        let m = MachineProfile::M4X10;
        // An async trace with identical work scales better because it pays no
        // barrier per round.
        let work = t.total_work_ns();
        let a = ExecTrace::Async {
            task_ns: vec![work / 12_800.0; 12_800],
            overhead_ns: 0.0,
        };
        assert!(t.makespan_ns(&m, 40) > a.makespan_ns(&m, 40));
        // But at one thread they are close (barriers cost zero at p=1).
        let r1 = t.makespan_ns(&m, 1);
        let a1 = a.makespan_ns(&m, 1);
        assert!((r1 - a1).abs() / a1 < 1e-9);
    }

    #[test]
    fn zero_barrier_rounds_replay_on_one_worker() {
        let m = MachineProfile::M4X10;
        let inline = rounds([round(8, 100.0, 100.0, 0)]);
        assert_eq!(inline.makespan_ns(&m, 1), 1700.0);
        assert_eq!(
            inline.makespan_ns(&m, 8),
            1700.0,
            "no worker to spread over"
        );
        let parallel = rounds([round(8, 100.0, 100.0, 2)]);
        assert_eq!(
            parallel.makespan_ns(&m, 8),
            300.0 + 2.0 * m.barrier_ns(8),
            "phases split 8 ways, serial tail and barriers do not"
        );
    }

    #[test]
    fn placement_splits_across_workers_and_the_rest_of_the_tail_does_not() {
        let m = MachineProfile::M4X10;
        let placed = RoundRecord {
            place_ns: 800.0,
            ..round(8, 100.0, 1000.0, 2)
        };
        let t = rounds([placed]);
        assert_eq!(t.total_work_ns(), 2600.0);
        // Phases 100 + 100, unplaced tail 200, placement 800 / 8.
        assert_eq!(
            t.makespan_ns(&m, 8),
            100.0 + 100.0 + 200.0 + 100.0 + 2.0 * m.barrier_ns(8)
        );
    }

    #[test]
    fn concat_joins_passes_of_one_kind() {
        let joined = ExecTrace::concat([
            rounds([round(8, 1.0, 0.0, 0)]),
            rounds([round(8, 1.0, 0.0, 0), round(8, 1.0, 0.0, 0)]),
        ]);
        let Some(ExecTrace::Rounds(log)) = joined else {
            panic!("rounds join into rounds");
        };
        let numbers: Vec<u64> = log.records().iter().map(|r| r.round).collect();
        assert_eq!(numbers, [0, 1, 2]);
        let seq = ExecTrace::concat([
            ExecTrace::Sequential { total_ns: 1.0 },
            ExecTrace::Sequential { total_ns: 2.0 },
        ]);
        assert_eq!(seq, Some(ExecTrace::Sequential { total_ns: 3.0 }));
        assert_eq!(ExecTrace::concat([]), None);
    }

    #[test]
    fn numa_penalty_creates_cliff() {
        let t = ExecTrace::Async {
            task_ns: vec![100.0; 10_000],
            overhead_ns: 0.0,
        };
        let m = MachineProfile::NUMA8X4;
        let s8 = t.total_work_ns() / t.makespan_ns(&m, 8);
        let s16 = t.total_work_ns() / t.makespan_ns(&m, 16);
        // 16 threads beat 8 overall but by far less than 2x.
        assert!(s16 > s8);
        assert!(s16 / s8 < 1.5);
    }

    #[test]
    fn sequential_trace_ignores_workers() {
        let t = ExecTrace::Sequential { total_ns: 123.0 };
        let m = MachineProfile::M4X6;
        assert_eq!(t.makespan_ns(&m, 1), 123.0);
        assert_eq!(t.makespan_ns(&m, 24), 123.0);
    }

    #[test]
    fn barrier_cost_grows_with_threads() {
        let m = MachineProfile::M4X10;
        assert_eq!(m.barrier_ns(1), 0.0);
        assert!(m.barrier_ns(4) < m.barrier_ns(40));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let t = ExecTrace::Sequential { total_ns: 1.0 };
        let _ = t.makespan_ns(&MachineProfile::M4X10, 0);
    }

    #[test]
    fn profiles_have_distinct_names() {
        let names: Vec<_> = MachineProfile::ALL.iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["m4x10", "m4x6", "numa8x4"]);
    }
}
