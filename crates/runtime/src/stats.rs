//! Execution statistics.
//!
//! The paper's characterization figures (4 and 5) report committed tasks per
//! microsecond, abort ratios, atomic-update rates and round counts. Executors
//! accumulate these in per-thread [`ThreadStats`] (no cross-thread traffic on
//! the hot path) and merge them into an [`ExecStats`] at the end of a run.

use std::time::Duration;

/// Per-thread statistics, owned exclusively by one worker during execution.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ThreadStats {
    /// Tasks that executed to completion and committed.
    pub committed: u64,
    /// Task attempts abandoned due to a conflict.
    pub aborted: u64,
    /// Atomic read-modify-write operations issued (mark CASes, priority
    /// writes, application-level atomics routed through the runtime).
    pub atomic_updates: u64,
    /// Inspect-phase executions (deterministic scheduler only).
    pub inspected: u64,
    /// Per-location mark-release CASes issued (speculative executor only;
    /// deterministic rounds retire marks by epoch and must report zero).
    pub mark_releases: u64,
    /// Per-location release CASes the deterministic scheduler *avoided* by
    /// retiring whole rounds with an epoch bump (one tally per neighborhood
    /// location per attempted task).
    pub releases_avoided: u64,
    /// Spurious aborts forced by a chaos policy at the failsafe point. Kept
    /// separate from [`aborted`](Self::aborted), which counts only *real*
    /// conflicts, so abort-ratio assertions and the Figure 4 tables stay
    /// truthful under chaos injection.
    pub injected_aborts: u64,
    /// Tasks quarantined because their operator panicked before the
    /// failsafe point (fault containment). A quarantined task is rolled
    /// back like an abort but never retried; its payload and panic message
    /// are reported through the executor's error surface instead.
    pub quarantined: u64,
}

impl ThreadStats {
    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &ThreadStats) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.atomic_updates += other.atomic_updates;
        self.inspected += other.inspected;
        self.mark_releases += other.mark_releases;
        self.releases_avoided += other.releases_avoided;
        self.injected_aborts += other.injected_aborts;
        self.quarantined += other.quarantined;
    }
}

/// Aggregate statistics for one parallel execution.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ExecStats {
    /// Sum of all threads' committed counts.
    pub committed: u64,
    /// Sum of all threads' aborted counts.
    pub aborted: u64,
    /// Sum of all threads' atomic update counts.
    pub atomic_updates: u64,
    /// Inspect-phase executions (zero for non-deterministic runs).
    pub inspected: u64,
    /// Rounds executed (zero for non-deterministic runs).
    pub rounds: u64,
    /// Per-location mark-release CASes issued (speculative executor only;
    /// zero for deterministic runs — their acceptance criterion).
    pub mark_releases: u64,
    /// Release CASes avoided by epoch-retiring whole rounds (deterministic
    /// runs only).
    pub releases_avoided: u64,
    /// Chaos-forced spurious aborts, excluded from the abort ratio (see
    /// [`Self::abort_ratio`]): `aborted` stays real-conflicts-only.
    /// Seed-dependent, so excluded from canonical fingerprints too.
    pub injected_aborts: u64,
    /// Initial tasks silently dropped because their pre-assigned id
    /// duplicated an earlier task's (see `Executor::run_with_ids`). Non-zero
    /// values usually indicate an unintended id collision in the caller's id
    /// function.
    pub dedup_dropped: u64,
    /// Tasks quarantined after an operator panic (fault containment). A run
    /// with a non-zero quarantine count surfaces `ExecError::OperatorPanic`
    /// through `try_run`; the counter records how many tasks were contained
    /// before the run drained.
    pub quarantined: u64,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// Number of worker threads used.
    pub threads: usize,
}

impl ExecStats {
    /// Builds aggregate stats from per-thread stats.
    pub fn from_threads<'a>(threads: impl IntoIterator<Item = &'a ThreadStats>) -> Self {
        let mut total = ThreadStats::default();
        let mut n = 0;
        for t in threads {
            total.merge(t);
            n += 1;
        }
        ExecStats {
            committed: total.committed,
            aborted: total.aborted,
            atomic_updates: total.atomic_updates,
            inspected: total.inspected,
            rounds: 0,
            mark_releases: total.mark_releases,
            releases_avoided: total.releases_avoided,
            injected_aborts: total.injected_aborts,
            dedup_dropped: 0,
            quarantined: total.quarantined,
            elapsed: Duration::ZERO,
            threads: n,
        }
    }

    /// Fraction of task attempts that aborted: `aborted / (aborted + committed)`.
    ///
    /// Returns 0.0 when no tasks ran. This is the "abort ratio" of Figure 4.
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.aborted + self.committed;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }

    /// Committed tasks per microsecond of wall-clock time (Figure 4).
    pub fn commit_rate_per_us(&self) -> f64 {
        let us = self.elapsed.as_secs_f64() * 1e6;
        if us == 0.0 {
            0.0
        } else {
            self.committed as f64 / us
        }
    }

    /// Atomic updates per microsecond of wall-clock time (Figure 5).
    pub fn atomic_rate_per_us(&self) -> f64 {
        let us = self.elapsed.as_secs_f64() * 1e6;
        if us == 0.0 {
            0.0
        } else {
            self.atomic_updates as f64 / us
        }
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "committed={} aborted={} (ratio {:.4}) atomics={} rounds={} \
             mark_releases={} releases_avoided={} injected_aborts={} \
             dedup_dropped={} quarantined={} \
             threads={} elapsed={:?}",
            self.committed,
            self.aborted,
            self.abort_ratio(),
            self.atomic_updates,
            self.rounds,
            self.mark_releases,
            self.releases_avoided,
            self.injected_aborts,
            self.dedup_dropped,
            self.quarantined,
            self.threads,
            self.elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = ThreadStats {
            committed: 1,
            aborted: 2,
            atomic_updates: 3,
            inspected: 4,
            mark_releases: 5,
            releases_avoided: 6,
            injected_aborts: 7,
            quarantined: 8,
        };
        let b = ThreadStats {
            committed: 10,
            aborted: 20,
            atomic_updates: 30,
            inspected: 40,
            mark_releases: 50,
            releases_avoided: 60,
            injected_aborts: 70,
            quarantined: 80,
        };
        a.merge(&b);
        assert_eq!(a.committed, 11);
        assert_eq!(a.aborted, 22);
        assert_eq!(a.atomic_updates, 33);
        assert_eq!(a.inspected, 44);
        assert_eq!(a.mark_releases, 55);
        assert_eq!(a.releases_avoided, 66);
        assert_eq!(a.injected_aborts, 77);
        assert_eq!(a.quarantined, 88);
    }

    #[test]
    fn from_threads_aggregates() {
        let per = [
            ThreadStats {
                committed: 5,
                aborted: 1,
                ..Default::default()
            },
            ThreadStats {
                committed: 7,
                aborted: 0,
                ..Default::default()
            },
        ];
        let agg = ExecStats::from_threads(per.iter());
        assert_eq!(agg.committed, 12);
        assert_eq!(agg.aborted, 1);
        assert_eq!(agg.threads, 2);
    }

    #[test]
    fn abort_ratio_edges() {
        let mut s = ExecStats::default();
        assert_eq!(s.abort_ratio(), 0.0);
        s.committed = 3;
        s.aborted = 1;
        assert!((s.abort_ratio() - 0.25).abs() < 1e-12);
        // Injected aborts are spurious: they must not move the ratio.
        s.injected_aborts = 1_000;
        assert!((s.abort_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rates_use_elapsed() {
        let s = ExecStats {
            committed: 1_000,
            atomic_updates: 2_000,
            elapsed: Duration::from_millis(1),
            ..Default::default()
        };
        assert!((s.commit_rate_per_us() - 1.0).abs() < 1e-9);
        assert!((s.atomic_rate_per_us() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_rates_are_zero() {
        let s = ExecStats {
            committed: 10,
            ..Default::default()
        };
        assert_eq!(s.commit_rate_per_us(), 0.0);
        assert_eq!(s.atomic_rate_per_us(), 0.0);
    }

    #[test]
    fn display_reports_every_counter() {
        let s = ExecStats {
            mark_releases: 7,
            releases_avoided: 11,
            injected_aborts: 5,
            dedup_dropped: 3,
            quarantined: 2,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("committed=0"));
        assert!(text.contains("mark_releases=7"));
        assert!(text.contains("releases_avoided=11"));
        assert!(text.contains("injected_aborts=5"));
        assert!(text.contains("dedup_dropped=3"));
        assert!(text.contains("quarantined=2"));
    }

    #[test]
    fn from_threads_sums_quarantined() {
        let per = [
            ThreadStats {
                quarantined: 2,
                ..Default::default()
            },
            ThreadStats {
                quarantined: 3,
                ..Default::default()
            },
        ];
        let agg = ExecStats::from_threads(per.iter());
        assert_eq!(agg.quarantined, 5);
    }
}
