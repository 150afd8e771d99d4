//! Uniform measurement drivers over every (application, variant) pair.

use crate::inputs;
use galois_apps::{bfs, dmr, dt, mis, pfp, Variant};
use galois_core::{Executor, RoundLog, RunReport, Schedule};
use galois_runtime::simtime::{ExecTrace, RoundTrace};
use std::time::{Duration, Instant};

pub use galois_apps::App;

/// The five applications the paper evaluates (§4.1), in its presentation
/// order. (Maximal matching, the sixth [`App`], is this repo's extension
/// and has no figure.)
pub const PAPER_APPS: [App; 5] = [App::Bfs, App::Dmr, App::Dt, App::Mis, App::Pfp];

/// The variants the paper evaluates for `app` (§4.1: pfp has no PBBS
/// counterpart).
pub fn variants(app: App) -> &'static [Variant] {
    match app {
        App::Pfp => &[Variant::Seq, Variant::GaloisNondet, Variant::GaloisDet],
        _ => &[
            Variant::Seq,
            Variant::GaloisNondet,
            Variant::GaloisDet,
            Variant::Pbbs,
        ],
    }
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
    /// Wall-clock time of the compute section.
    pub elapsed: Duration,
    /// Committed tasks.
    pub committed: u64,
    /// Aborted task attempts.
    pub aborted: u64,
    /// Atomic updates (mark CASes, priority writes, application atomics).
    pub atomic_updates: u64,
    /// Bulk-synchronous rounds (0 for asynchronous executions).
    pub rounds: u64,
    /// Virtual-time trace, when requested.
    pub trace: Option<ExecTrace>,
    /// Per-thread abstract-location access streams, when requested.
    pub accesses: Option<Vec<Vec<u32>>>,
    /// Per-round schedule log, when requested (Galois variants only).
    pub round_log: Option<RoundLog>,
}

impl Measurement {
    /// Abort ratio (Figure 4).
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }

    /// Committed tasks per µs (Figure 4).
    pub fn commit_rate_per_us(&self) -> f64 {
        self.committed as f64 / (self.elapsed.as_secs_f64() * 1e6).max(1e-9)
    }

    /// Atomic updates per µs (Figure 5).
    pub fn atomic_rate_per_us(&self) -> f64 {
        self.atomic_updates as f64 / (self.elapsed.as_secs_f64() * 1e6).max(1e-9)
    }

    /// Leader-serial fraction of the round work, for bulk-synchronous runs
    /// recorded with a trace: `serial_ns / total_work_ns` aggregated over
    /// every round (see [`crate::tables::serial_fraction`]). `None` when no
    /// rounds trace was recorded (asynchronous or untraced runs).
    pub fn serial_fraction(&self) -> Option<f64> {
        match &self.trace {
            Some(ExecTrace::Rounds(rounds)) => Some(crate::tables::serial_fraction(rounds)),
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

fn executor(app: App, variant: Variant, threads: usize, opts: Opts) -> Executor {
    let schedule = match variant {
        Variant::Seq => Schedule::Serial,
        Variant::GaloisNondet => Schedule::Speculative,
        Variant::GaloisDet => Schedule::Deterministic(galois_core::DetOptions {
            continuation: !opts.no_continuation,
            ..Default::default()
        }),
        Variant::Pbbs => unreachable!("pbbs variants do not use the Galois executor"),
    };
    // The paper's g-d includes all §3.3 optimizations; the recipe supplies
    // the per-app ones (locality spread, worklist).
    app.executor(schedule, threads)
        .record_trace(opts.trace)
        .record_access(opts.access)
        .record_rounds(opts.round_log)
}

fn from_report(app: App, variant: Variant, threads: usize, mut report: RunReport) -> Measurement {
    Measurement {
        app,
        variant,
        threads,
        elapsed: report.stats.elapsed,
        committed: report.stats.committed,
        aborted: report.stats.aborted,
        atomic_updates: report.stats.atomic_updates,
        rounds: report.stats.rounds,
        round_log: report.take_round_log(),
        trace: report.trace,
        accesses: report.accesses.map(|per| {
            per.into_iter()
                .map(|v| v.into_iter().map(|a| a.loc).collect())
                .collect()
        }),
    }
}

/// The shared configuration path for every executor-based measurement: one
/// [`executor`] call, one app-specific loop body, one [`from_report`]
/// conversion. The fig4/fig7 drivers and the serial-fraction table all go
/// through here, so an `Opts` knob (trace, access, round log) only has to be
/// wired once.
fn galois_run(
    app: App,
    variant: Variant,
    threads: usize,
    opts: Opts,
    body: impl FnOnce(&Executor) -> RunReport,
) -> Measurement {
    let exec = executor(app, variant, threads, opts);
    from_report(app, variant, threads, body(&exec))
}

fn rounds_trace(rt: Vec<RoundTrace>, on: bool) -> Option<ExecTrace> {
    on.then_some(ExecTrace::Rounds(rt))
}

/// Runs one (app, variant) measurement.
///
/// Returns `None` for unsupported combinations (pfp has no PBBS variant;
/// maximal matching is not part of the paper's evaluation).
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn measure(
    app: App,
    variant: Variant,
    threads: usize,
    scale: f64,
    opts: Opts,
) -> Option<Measurement> {
    assert!(threads > 0);
    let m = match (app, variant) {
        (App::Bfs, Variant::Pbbs) => {
            let g = inputs::bfs_graph(scale);
            let t0 = Instant::now();
            let (_d, _p, stats) = bfs::pbbs(&g, 0, threads, opts.trace);
            Measurement {
                app,
                variant,
                threads,
                elapsed: t0.elapsed(),
                committed: stats.visited,
                aborted: 0,
                atomic_updates: stats.atomic_updates,
                rounds: stats.rounds,
                trace: rounds_trace(stats.round_traces, opts.trace),
                accesses: None,
                round_log: None,
            }
        }
        (App::Bfs, v) => {
            let g = inputs::bfs_graph(scale);
            galois_run(app, v, threads, opts, |exec| {
                bfs::try_galois(&g, 0, exec).unwrap().1
            })
        }
        (App::Mis, Variant::Pbbs) => {
            let g = inputs::mis_graph(scale);
            let t0 = Instant::now();
            let (_f, stats) = mis::pbbs(&g, threads, opts.trace);
            Measurement {
                app,
                variant,
                threads,
                elapsed: t0.elapsed(),
                committed: stats.committed,
                aborted: stats.aborted,
                atomic_updates: stats.reserved,
                rounds: stats.rounds,
                trace: rounds_trace(stats.round_traces, opts.trace),
                accesses: None,
                round_log: None,
            }
        }
        (App::Mis, v) => {
            let g = inputs::mis_graph(scale);
            galois_run(app, v, threads, opts, |exec| {
                mis::try_galois(&g, exec).unwrap().1
            })
        }
        (App::Dt, Variant::Pbbs) => {
            let pts = inputs::dt_points(scale);
            let t0 = Instant::now();
            let (_mesh, stats) = dt::pbbs(&pts, inputs::SEED, threads, opts.trace);
            Measurement {
                app,
                variant,
                threads,
                elapsed: t0.elapsed(),
                committed: stats.committed,
                aborted: stats.aborted,
                atomic_updates: stats.atomic_updates,
                rounds: stats.rounds,
                trace: rounds_trace(stats.round_traces, opts.trace),
                accesses: None,
                round_log: None,
            }
        }
        (App::Dt, v) => {
            let pts = inputs::dt_points(scale);
            galois_run(app, v, threads, opts, |exec| {
                dt::try_galois(&pts, inputs::SEED, exec).unwrap().1
            })
        }
        (App::Dmr, Variant::Pbbs) => {
            let mesh = inputs::dmr_mesh(scale);
            let t0 = Instant::now();
            let stats = dmr::pbbs(&mesh, threads, opts.trace);
            Measurement {
                app,
                variant,
                threads,
                elapsed: t0.elapsed(),
                committed: stats.committed,
                aborted: stats.aborted,
                atomic_updates: stats.atomic_updates,
                rounds: stats.rounds,
                trace: rounds_trace(stats.round_traces, opts.trace),
                accesses: None,
                round_log: None,
            }
        }
        (App::Dmr, v) => {
            let mesh = inputs::dmr_mesh(scale);
            galois_run(app, v, threads, opts, |exec| {
                dmr::try_galois(&mesh, exec).unwrap()
            })
        }
        (App::Pfp, Variant::Pbbs) | (App::Mm, _) => return None,
        (App::Pfp, Variant::Seq) => {
            let net = inputs::pfp_network(scale);
            let t0 = Instant::now();
            let (_flow, stats) = pfp::seq(&net);
            let elapsed = t0.elapsed();
            Measurement {
                app,
                variant,
                threads: 1,
                elapsed,
                committed: stats.pushes + stats.relabels,
                aborted: 0,
                atomic_updates: 0,
                rounds: stats.global_relabels,
                trace: opts.trace.then_some(ExecTrace::Sequential {
                    total_ns: elapsed.as_nanos() as f64,
                }),
                accesses: None,
                round_log: None,
            }
        }
        (App::Pfp, v) => {
            let net = inputs::pfp_network(scale);
            let exec = executor(app, v, threads, opts);
            let (_flow, mut report) = pfp::try_galois(&net, &exec).unwrap();
            // Merge bout traces.
            let trace = opts.trace.then(|| {
                let mut rounds: Vec<RoundTrace> = Vec::new();
                let mut tasks: Vec<f64> = Vec::new();
                let mut overhead = 0.0;
                for r in &report.reports {
                    match &r.trace {
                        Some(ExecTrace::Rounds(rt)) => rounds.extend(rt.iter().cloned()),
                        Some(ExecTrace::Async {
                            task_ns,
                            overhead_ns,
                        }) => {
                            tasks.extend_from_slice(task_ns);
                            overhead = overhead_ns.max(overhead);
                        }
                        _ => {}
                    }
                }
                if rounds.is_empty() {
                    ExecTrace::Async {
                        task_ns: tasks,
                        overhead_ns: overhead,
                    }
                } else {
                    ExecTrace::Rounds(rounds)
                }
            });
            let mut accesses = None;
            let mut merged: Vec<Vec<u32>> = Vec::new();
            let mut any = false;
            for r in &report.reports {
                if let Some(per) = &r.accesses {
                    any = true;
                    merged.resize_with(merged.len().max(per.len()), Vec::new);
                    for (tid, stream) in per.iter().enumerate() {
                        merged[tid].extend(stream.iter().map(|a| a.loc));
                    }
                }
            }
            if any {
                accesses = Some(merged);
            }
            // Concatenate per-bout round logs, renumbering rounds globally so
            // the merged log is still a single monotone sequence.
            let round_log = opts.round_log.then(|| {
                let mut log = RoundLog::new();
                let bouts = report.take_round_logs();
                let records = bouts.into_iter().flat_map(RoundLog::into_records);
                for (next, mut rec) in records.enumerate() {
                    rec.round = next as u64;
                    galois_core::Probe::on_round(&mut log, rec);
                }
                log
            });
            Measurement {
                app,
                variant: v,
                threads,
                elapsed: report.stats.elapsed,
                committed: report.stats.committed,
                aborted: report.stats.aborted,
                atomic_updates: report.stats.atomic_updates,
                rounds: report.stats.rounds,
                trace,
                accesses,
                round_log,
            }
        }
    };
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.01;

    #[test]
    fn every_supported_combo_runs() {
        for app in PAPER_APPS {
            for &v in variants(app) {
                let m = measure(app, v, 1, TINY, Opts::default())
                    .unwrap_or_else(|| panic!("{:?}/{v} should be supported", app));
                assert!(m.committed > 0, "{:?}/{v} committed nothing", app);
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
            Variant::GaloisDet,
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
            Variant::GaloisNondet,
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
    fn serial_fraction_reported_for_round_traces_only() {
        let opts = Opts {
            trace: true,
            ..Default::default()
        };
        let det = measure(App::Mis, Variant::GaloisDet, 1, TINY, opts).unwrap();
        let frac = det.serial_fraction().expect("rounds trace recorded");
        assert!(
            frac > 0.0 && frac < 1.0,
            "leader-serial fraction should be a proper fraction, got {frac}"
        );
        let spec = measure(App::Mis, Variant::GaloisNondet, 1, TINY, opts).unwrap();
        assert_eq!(spec.serial_fraction(), None, "async traces have no rounds");
        let untraced = measure(App::Mis, Variant::GaloisDet, 1, TINY, Opts::default()).unwrap();
        assert_eq!(untraced.serial_fraction(), None);
    }

    #[test]
    fn access_streams_recorded_on_request() {
        let m = measure(
            App::Mis,
            Variant::GaloisDet,
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
        let a = measure(App::Mis, Variant::GaloisDet, 1, TINY, Opts::default()).unwrap();
        let b = measure(App::Mis, Variant::GaloisDet, 3, TINY, Opts::default()).unwrap();
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.rounds, b.rounds);
    }
}
