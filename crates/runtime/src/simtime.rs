//! Virtual-time scaling model.
//!
//! The paper evaluates on three multi-socket machines (m4x10, m4x6, numa8x4).
//! This reproduction runs on a single core, so wall-clock thread sweeps cannot
//! show scaling. Instead, executors record an [`ExecTrace`] — per-task costs
//! plus the round/barrier structure the scheduler imposed — and this module
//! replays the trace on *p* virtual workers:
//!
//! - **Asynchronous traces** (the non-deterministic executor): tasks have no
//!   ordering constraints beyond creation, so the makespan is the greedy
//!   list-scheduling bound `max(total_work / p, longest_task)` plus per-task
//!   scheduling overhead. This matches the paper's observation that abort
//!   ratios are essentially zero (§5.1), making g-n embarrassingly parallel.
//! - **Round traces** (the deterministic executors, both DIG and PBBS-style):
//!   each round contributes `inspect-phase makespan + commit-phase makespan +
//!   barrier costs`; rounds are serialized. This is precisely the critical-path
//!   cost the paper attributes to determinism (§3.4).
//!
//! A [`MachineProfile`] supplies per-machine constants: worker count, barrier
//! latency, and a NUMA remote-access multiplier that kicks in past the size of
//! one NUMA node (reproducing the 8-thread cliff on numa8x4, §5.3).

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

/// Aggregate cost of one parallel phase of a round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTrace {
    /// Sum of task costs in the phase, nanoseconds.
    pub total_ns: f64,
    /// Longest single task (or measured block) in the phase, nanoseconds —
    /// the phase's critical-path floor.
    pub max_ns: f64,
    /// Tasks processed.
    pub count: u64,
}

impl PhaseTrace {
    /// Accumulates a measured block of `count` tasks costing `total_ns`.
    pub fn add_block(&mut self, total_ns: f64, count: u64) {
        self.total_ns += total_ns;
        self.count += count;
        if count > 0 {
            self.max_ns = self.max_ns.max(total_ns / count as f64);
        }
    }

    /// Builds a uniform phase of `count` tasks costing `total_ns` together.
    pub fn uniform(total_ns: f64, count: u64) -> Self {
        PhaseTrace {
            total_ns,
            max_ns: if count > 0 {
                total_ns / count as f64
            } else {
                0.0
            },
            count,
        }
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &PhaseTrace) {
        self.total_ns += other.total_ns;
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One round of a bulk-synchronous (deterministic) execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundTrace {
    /// Inspect-phase aggregate.
    pub inspect: PhaseTrace,
    /// Commit-phase aggregate (committed tasks).
    pub commit: PhaseTrace,
    /// Inherently sequential scheduler work in the round (window carving,
    /// buffer concatenation), which no worker count parallelizes.
    pub serial_ns: f64,
    /// Scheduler work that a production runtime parallelizes (pass-boundary
    /// sorting, prefix-sum flattening); modeled as `/p` work with no
    /// longest-task floor.
    pub sched_par_ns: f64,
    /// Number of barrier episodes in the round (Figure 2 shows three). Zero
    /// means the round never left one worker: its phases replay as
    /// one-worker work at every `p`.
    pub barriers: u32,
}

impl RoundTrace {
    /// Total work in the round, nanoseconds.
    pub fn total_work_ns(&self) -> f64 {
        self.inspect.total_ns + self.commit.total_ns + self.serial_ns + self.sched_par_ns
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
    Rounds(Vec<RoundTrace>),
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
            ExecTrace::Rounds(rounds) => rounds.iter().map(RoundTrace::total_work_ns).sum(),
            ExecTrace::Sequential { total_ns } => *total_ns,
        }
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
            ExecTrace::Rounds(rounds) => rounds
                .iter()
                .map(|r| {
                    // A round that crossed no barrier ran on one worker (the
                    // DIG leader runs thin rounds inline), whatever `p` is.
                    let lanes = if r.barriers == 0 { 1 } else { p };
                    let phase = |t: &PhaseTrace| -> f64 {
                        (t.total_ns * mult / lanes as f64).max(t.max_ns * mult)
                    };
                    phase(&r.inspect)
                        + phase(&r.commit)
                        + r.serial_ns * mult
                        + r.sched_par_ns * mult / p as f64
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

    #[test]
    fn rounds_pay_barriers() {
        let rounds: Vec<RoundTrace> = (0..100)
            .map(|_| RoundTrace {
                inspect: PhaseTrace::uniform(50.0 * 64.0, 64),
                commit: PhaseTrace::uniform(50.0 * 64.0, 64),
                serial_ns: 0.0,
                sched_par_ns: 0.0,
                barriers: 3,
            })
            .collect();
        let t = ExecTrace::Rounds(rounds);
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
        let round = |barriers| RoundTrace {
            inspect: PhaseTrace::uniform(800.0, 8),
            commit: PhaseTrace::uniform(800.0, 8),
            serial_ns: 100.0,
            sched_par_ns: 0.0,
            barriers,
        };
        let m = MachineProfile::M4X10;
        let inline = ExecTrace::Rounds(vec![round(0)]);
        assert_eq!(inline.makespan_ns(&m, 1), 1700.0);
        assert_eq!(
            inline.makespan_ns(&m, 8),
            1700.0,
            "no worker to spread over"
        );
        let parallel = ExecTrace::Rounds(vec![round(2)]);
        assert_eq!(
            parallel.makespan_ns(&m, 8),
            300.0 + 2.0 * m.barrier_ns(8),
            "phases split 8 ways, serial tail and barriers do not"
        );
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
