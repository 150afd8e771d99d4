//! Structured execution errors: the deterministic fault surface.
//!
//! The paper's portability property — identical behavior at any thread
//! count — is only worth anything if it also holds for runs that *fail*.
//! This module defines the error type returned by
//! [`LoopSpec::try_run`](crate::LoopSpec::try_run): an operator panic
//! before the failsafe point is contained like an abort (marks rolled
//! back, task quarantined with its payload and panic message) and
//! reported as [`ExecError::OperatorPanic`]; under the deterministic
//! scheduler the reported task id and message are byte-identical at any
//! thread count, because the quarantine set of a round is a pure function
//! of committed-task history, exactly like the schedule itself.

/// Why a parallel loop failed to drain.
///
/// Returned by [`LoopSpec::try_run`](crate::LoopSpec::try_run);
/// [`LoopSpec::run`](crate::LoopSpec::run) panics with the [`Display`]
/// rendering instead. Each variant maps to a distinct process exit code
/// via [`exit_code`](Self::exit_code) for CLI use.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An operator invocation panicked before its failsafe point and the
    /// task was quarantined.
    ///
    /// Under [`Schedule::Deterministic`](crate::Schedule::Deterministic)
    /// the reported task is the **lowest-id faulted task of the first
    /// faulting round**, and both `task_id` and `message` are
    /// byte-identical at any thread count. Under
    /// [`Schedule::Speculative`](crate::Schedule::Speculative) the fields
    /// identify the first fault a worker happened to hit (the id is the
    /// per-attempt mark value) — non-canonical by design, but the run
    /// still drains without deadlocking.
    OperatorPanic {
        /// Deterministic task id (det) or per-attempt mark value (spec).
        task_id: u64,
        /// The captured panic message (payload if it was a string, a fixed
        /// placeholder otherwise). Canonical in det mode.
        message: String,
        /// Round in which the fault surfaced (0 for speculative runs,
        /// which have no rounds).
        round: u64,
    },
    /// A speculative run livelocked: `rounds` consecutive speculative
    /// rounds closed with no commit and no quarantine. Counted in executor
    /// state, never in time; see
    /// [`Executor::max_stalled_rounds`](crate::Executor::max_stalled_rounds).
    /// Deterministic runs cannot stall.
    Stalled {
        /// Consecutive speculative rounds with no commit or quarantine.
        rounds: u64,
    },
    /// More tasks were quarantined than the containment layer is willing
    /// to hold: the fault is systemic (e.g. every task panics), not a
    /// stray bad input.
    QuarantineOverflow {
        /// Tasks quarantined when the cap was exceeded.
        quarantined: u64,
        /// The cap ([`QUARANTINE_CAP`]).
        limit: u64,
    },
}

/// Most quarantined tasks a run tolerates before giving up with
/// [`ExecError::QuarantineOverflow`]. Generous: quarantine exists to
/// survive stray faulty tasks, not operators that fault wholesale.
pub const QUARANTINE_CAP: u64 = 4096;

impl ExecError {
    /// A distinct nonzero process exit code per variant, shared by the
    /// `galois` CLI and the differential harness so scripted callers can
    /// tell fault classes apart: 10 operator panic, 11 stall, 12
    /// quarantine overflow.
    pub fn exit_code(&self) -> i32 {
        match self {
            ExecError::OperatorPanic { .. } => 10,
            ExecError::Stalled { .. } => 11,
            ExecError::QuarantineOverflow { .. } => 12,
        }
    }

    /// Stable machine-readable variant name, used by structured error
    /// surfaces (the `galois-serve` JSON fault responses) where an exit
    /// code alone is too opaque: `operator_panic`, `stalled`,
    /// `quarantine_overflow`.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::OperatorPanic { .. } => "operator_panic",
            ExecError::Stalled { .. } => "stalled",
            ExecError::QuarantineOverflow { .. } => "quarantine_overflow",
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::OperatorPanic {
                task_id,
                message,
                round,
            } => write!(
                f,
                "operator panicked: task {task_id} quarantined in round {round}: {message}"
            ),
            ExecError::Stalled { rounds } => write!(
                f,
                "stalled: {rounds} consecutive speculative rounds with no commit or quarantine"
            ),
            ExecError::QuarantineOverflow { quarantined, limit } => write!(
                f,
                "quarantine overflow: {quarantined} tasks faulted (cap {limit})"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

thread_local! {
    /// True while this thread runs an operator under containment: the
    /// process-wide hook below skips the default "thread panicked" print
    /// for panics that are about to be caught and quarantined.
    static CONTAINED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// Runs an operator invocation under panic containment.
///
/// Semantically `catch_unwind(AssertUnwindSafe(f))` — the unwind-safety
/// assertion is justified by the cautious-operator contract: a pre-failsafe
/// panic has written nothing shared, so the state the closure touched is
/// discarded wholesale (marks retire by epoch / release, the task is
/// quarantined). Additionally, the first use chains a process-wide panic
/// hook that suppresses the default stderr report *only* for panics caught
/// here (tracked per-thread); every other panic — user threads, scheduler
/// invariant violations — still reports through the previously installed
/// hook. Without this, a quarantined task would print a full backtrace
/// despite being handled, and a systemic fault would print thousands.
pub(crate) fn contain_panic<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn std::any::Any + Send>> {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINED.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
    CONTAINED.with(|c| c.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CONTAINED.with(|c| c.set(false));
    result
}

/// Renders a `catch_unwind` payload as the canonical fault message:
/// `panic!` with a string payload reproduces its bytes exactly, anything
/// else collapses to a fixed placeholder (so exotic payloads cannot leak
/// nondeterminism into the det-mode fault report).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errs = [
            ExecError::OperatorPanic {
                task_id: 1,
                message: "m".into(),
                round: 2,
            },
            ExecError::Stalled { rounds: 3 },
            ExecError::QuarantineOverflow {
                quarantined: 9,
                limit: QUARANTINE_CAP,
            },
        ];
        let codes: Vec<i32> = errs.iter().map(|e| e.exit_code()).collect();
        let mut uniq = codes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), errs.len());
        assert!(codes.iter().all(|&c| c != 0 && c != 1 && c != 2));
        let mut kinds: Vec<&str> = errs.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), errs.len());
    }

    #[test]
    fn display_names_the_task_and_round() {
        let e = ExecError::OperatorPanic {
            task_id: 17,
            message: "boom".into(),
            round: 4,
        };
        let text = e.to_string();
        assert!(text.contains("task 17"));
        assert!(text.contains("round 4"));
        assert!(text.contains("boom"));
    }

    #[test]
    fn panic_message_reproduces_string_payloads() {
        assert_eq!(panic_message(Box::new(String::from("abc"))), "abc");
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
    }
}
