//! The shared thread-count sweep behind Figures 7, 9, 10 and 12.
//!
//! For every application and variant the sweep records a one-thread
//! execution trace (for g-d and pbbs, the run's round records) and replays
//! it through the virtual-time model on each of
//! the paper's three machine profiles (DESIGN.md, substitution 1). The
//! sequential baselines (Figure 8) are measured directly, by [`baseline`].

use crate::drivers::{measure, variants, App, Measurement, Opts, PAPER_APPS};
use crate::{inputs, Variant};
use galois_apps::pfp;
use galois_runtime::simtime::MachineProfile;
use std::collections::HashMap;
use std::time::Instant;

/// `app`'s sequential baseline (Figure 8) at `scale`: its row label and
/// time in nanoseconds, given the app's one-thread `seq` measurement. The
/// paper names hi_pr as pfp's baseline, so pfp's is the hi_pr-style
/// [`pfp::seq`] timed on the same network; every other app's is its `seq`
/// row (the operator under the serial executor).
pub fn baseline(app: App, scale: f64, seq: &Measurement) -> (&'static str, f64) {
    match app {
        App::Pfp => {
            let net = inputs::pfp_network(scale);
            let t0 = Instant::now();
            pfp::seq(&net);
            ("hi_pr", t0.elapsed().as_nanos() as f64)
        }
        _ => ("seq", seq.stats.elapsed.as_nanos() as f64),
    }
}

/// Thread counts swept on a machine profile.
pub fn thread_points(machine: &MachineProfile) -> Vec<usize> {
    let mut pts = vec![1usize, 2, 4, 8, 16, 24, 32, 40];
    pts.retain(|&p| p <= machine.max_threads);
    if !pts.contains(&machine.max_threads) {
        pts.push(machine.max_threads);
    }
    pts
}

/// Key into the sweep's time map.
pub type Key = (App, Variant, &'static str, usize);

/// The sweep dataset.
#[derive(Debug)]
pub struct SweepData {
    /// Sequential baseline time per app, nanoseconds ([`baseline`]).
    pub baseline_ns: HashMap<App, f64>,
    /// Predicted time for (app, variant, machine, threads), nanoseconds.
    pub times: HashMap<Key, f64>,
    /// The one-thread measurements (for abort/atomic statistics reuse).
    pub one_thread: HashMap<(App, Variant), Measurement>,
}

impl SweepData {
    /// Predicted speedup over the app's sequential baseline.
    pub fn speedup(&self, key: Key) -> Option<f64> {
        let t = self.times.get(&key)?;
        let base = self.baseline_ns.get(&key.0)?;
        Some(base / t)
    }

    /// Time ratio `t_pbbs(p) / t_var(p)` (Figure 9's metric; > 1 means the
    /// variant beats PBBS).
    pub fn relative_to_pbbs(
        &self,
        app: App,
        variant: Variant,
        machine: &'static str,
        p: usize,
    ) -> Option<f64> {
        let t_pbbs = self.times.get(&(app, Variant::Pbbs, machine, p))?;
        let t_var = self.times.get(&(app, variant, machine, p))?;
        Some(t_pbbs / t_var)
    }
}

/// Runs the sweep. `no_continuation` disables the §3.3 continuation
/// optimization in the deterministic variant (Figure 10's ablation).
pub fn run_sweep(scale: f64, no_continuation: bool) -> SweepData {
    let mut data = SweepData {
        baseline_ns: HashMap::new(),
        times: HashMap::new(),
        one_thread: HashMap::new(),
    };
    let opts = Opts {
        trace: true,
        no_continuation,
        ..Default::default()
    };
    for app in PAPER_APPS {
        for variant in variants(app) {
            let Some(m) = measure(app, variant, 1, scale, opts) else {
                continue;
            };
            if variant == Variant::Serial {
                data.baseline_ns.insert(app, baseline(app, scale, &m).1);
            }
            if let Some(trace) = &m.trace {
                for machine in &MachineProfile::ALL {
                    for p in thread_points(machine) {
                        let t = trace.makespan_ns(machine, p);
                        data.times.insert((app, variant, machine.name, p), t);
                    }
                }
            }
            data.one_thread.insert((app, variant), m);
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_keys() {
        let data = run_sweep(0.01, false);
        for app in PAPER_APPS {
            assert!(data.baseline_ns.contains_key(&app), "{app} baseline");
            for v in variants(app) {
                for machine in &MachineProfile::ALL {
                    for p in thread_points(machine) {
                        assert!(
                            data.times.contains_key(&(app, v, machine.name, p)),
                            "{app}/{v}/{}/{p}",
                            machine.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nondet_scales_better_than_det_at_max_threads() {
        let data = run_sweep(0.02, false);
        let mut wins = 0;
        let mut total = 0;
        for app in PAPER_APPS {
            let gn = data.times[&(app, Variant::Speculative, "m4x10", 40)];
            let gd = data.times[&(app, Variant::Deterministic, "m4x10", 40)];
            total += 1;
            if gn < gd {
                wins += 1;
            }
        }
        assert!(
            wins >= total - 1,
            "g-n should beat g-d almost always ({wins}/{total})"
        );
    }

    #[test]
    fn thread_points_respect_machine_caps() {
        use galois_runtime::simtime::MachineProfile;
        let pts = thread_points(&MachineProfile::M4X6);
        assert_eq!(*pts.last().unwrap(), 24);
        assert!(pts.iter().all(|&p| p <= 24));
    }
}
