//! Uniform measurement drivers over every (application, variant) pair.

use crate::inputs;
use galois_apps::Variant;
use galois_core::{DetOptions, Executor, Hooks, RoundLog, Schedule};
use galois_runtime::simtime::ExecTrace;
use galois_runtime::stats::ExecStats;

pub use galois_apps::App;

/// The five applications the paper evaluates (§4.1), in its presentation
/// order. (Maximal matching, the sixth [`App`], is this repo's extension
/// and has no figure.)
pub const PAPER_APPS: [App; 5] = [App::Bfs, App::Dmr, App::Dt, App::Mis, App::Pfp];

/// The variants `app` runs in ([`App::check_variant`]: pfp has no PBBS
/// counterpart, §4.1), in the paper's column order.
pub fn variants(app: App) -> Vec<Variant> {
    Variant::ALL
        .into_iter()
        .filter(|&v| app.check_variant(v).is_ok())
        .collect()
}

/// One benchmark run's results.
#[derive(Debug)]
pub struct Measurement {
    /// Application.
    pub app: App,
    /// Variant.
    pub variant: Variant,
    /// Real worker threads used.
    pub threads: usize,
    /// Commit, abort, atomic-update and round counts, and the wall-clock
    /// time of the compute section.
    pub stats: ExecStats,
    /// Virtual-time trace, when requested.
    pub trace: Option<ExecTrace>,
    /// Per-thread abstract-location access streams, when requested.
    pub accesses: Option<Vec<Vec<u32>>>,
    /// Per-round schedule log, when requested (`g-d` only).
    pub round_log: Option<RoundLog>,
}

impl Measurement {
    /// Leader-serial fraction of the round work, for bulk-synchronous runs
    /// recorded with a trace, aggregated over every round (see
    /// [`crate::tables::serial_fraction`]). `None` when no rounds trace was
    /// recorded (asynchronous or untraced runs).
    pub fn serial_fraction(&self) -> Option<f64> {
        match &self.trace {
            Some(ExecTrace::Rounds(log)) => Some(crate::tables::serial_fraction(log.records())),
            _ => None,
        }
    }
}

/// Options for a measurement run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opts {
    /// Record a virtual-time trace.
    pub trace: bool,
    /// Record abstract-location access streams.
    pub access: bool,
    /// Disable the continuation optimization (Figure 10's g-d baseline).
    pub no_continuation: bool,
    /// Record a per-round schedule log ([`Measurement::round_log`]).
    pub round_log: bool,
}

/// The executor `variant` of `app` runs under: the recipe's per-app shape
/// (locality spread, worklist) — the paper's g-d includes all §3.3
/// optimizations — with the `opts` knobs on top.
fn executor(app: App, variant: Variant, threads: usize, opts: Opts) -> Executor {
    let schedule = match variant.schedule() {
        Schedule::Deterministic(det) => Schedule::Deterministic(DetOptions {
            continuation: !opts.no_continuation,
            ..det
        }),
        other => other,
    };
    app.executor(schedule, threads)
        .record_trace(opts.trace)
        .record_access(opts.access)
        .record_rounds(opts.round_log)
}

/// Runs one (app, variant) measurement: one [`App::run`] over the app's
/// figure input ([`inputs::input`]), verified like every other run.
///
/// Returns `None` for a variant the app does not have (pfp has no PBBS
/// variant).
///
/// # Panics
///
/// Panics if `threads == 0`, or if the run faults or fails verification.
pub fn measure(
    app: App,
    variant: Variant,
    threads: usize,
    scale: f64,
    opts: Opts,
) -> Option<Measurement> {
    assert!(threads > 0);
    app.check_variant(variant).ok()?;
    let input = inputs::input(app, scale);
    let exec = executor(app, variant, threads, opts);
    let done = match app.run(variant, &exec, &input, Hooks::default()) {
        Ok(Ok(done)) => done,
        Ok(Err(fault)) => panic!("{app}/{}: {fault}", variant.label()),
        Err(invalid) => panic!("{}: {invalid}", variant.label()),
    };
    Some(Measurement {
        app,
        variant,
        threads,
        stats: done.stats,
        trace: done.trace,
        accesses: done.accesses,
        round_log: opts.round_log.then(|| RoundLog::concat(done.logs)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.01;

    #[test]
    fn every_supported_combo_runs() {
        for app in PAPER_APPS {
            for v in variants(app) {
                let m = measure(app, v, 1, TINY, Opts::default())
                    .unwrap_or_else(|| panic!("{app}/{v} should be supported"));
                assert!(m.stats.committed > 0, "{app}/{v} committed nothing");
            }
        }
    }

    #[test]
    fn pfp_pbbs_is_unsupported() {
        assert!(measure(App::Pfp, Variant::Pbbs, 1, TINY, Opts::default()).is_none());
    }

    #[test]
    fn traces_recorded_on_request() {
        let m = measure(
            App::Bfs,
            Variant::Deterministic,
            1,
            TINY,
            Opts {
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(m.trace, Some(ExecTrace::Rounds(_))));
        let m = measure(
            App::Mis,
            Variant::Speculative,
            1,
            TINY,
            Opts {
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(m.trace, Some(ExecTrace::Async { .. })));
    }

    #[test]
    fn serial_fraction_reported_for_traced_rounds_only() {
        let opts = Opts {
            trace: true,
            ..Default::default()
        };
        let det = measure(App::Mis, Variant::Deterministic, 1, TINY, opts).unwrap();
        let frac = det.serial_fraction().expect("rounds trace recorded");
        assert!(
            frac > 0.0 && frac < 1.0,
            "leader-serial fraction should be a proper fraction, got {frac}"
        );
        let spec = measure(App::Mis, Variant::Speculative, 1, TINY, opts).unwrap();
        assert_eq!(spec.serial_fraction(), None, "async traces have no rounds");
        let untraced = measure(App::Mis, Variant::Deterministic, 1, TINY, Opts::default()).unwrap();
        assert_eq!(untraced.serial_fraction(), None);
    }

    #[test]
    fn access_streams_recorded_on_request() {
        let m = measure(
            App::Mis,
            Variant::Deterministic,
            2,
            TINY,
            Opts {
                access: true,
                ..Default::default()
            },
        )
        .unwrap();
        let streams = m.accesses.expect("streams requested");
        assert_eq!(streams.len(), 2);
        assert!(streams.iter().map(|s| s.len()).sum::<usize>() > 0);
    }

    #[test]
    fn deterministic_variant_portable_counts() {
        let a = measure(App::Mis, Variant::Deterministic, 1, TINY, Opts::default()).unwrap();
        let b = measure(App::Mis, Variant::Deterministic, 3, TINY, Opts::default()).unwrap();
        assert_eq!(a.stats.committed, b.stats.committed);
        assert_eq!(a.stats.rounds, b.stats.rounds);
    }
}
