//! `--aa N`: the benchmark judged against itself.
//!
//! Two sets of N runs of this same build, each run a fresh process with its
//! own seed (peak RSS and the CPU clock are per process), the way the
//! driver compares a change with its parent. For every end-to-end metric
//! and workload it prints both medians, how far the second is worse than
//! the first, each set's quartile spread, and the bound. A pair whose spread
//! or shift exceeds the bound is flagged *unresolved*: the benchmark cannot
//! tell a regression of that size from noise there. One traced run per set
//! checks that the exact counts repeat bit for bit.

use crate::measure::{median, spread};
use crate::names::{self, Better};
use std::collections::BTreeMap;
use std::process::Command;

/// `name -> value` of the `metric` lines one child run printed.
fn child(args: &[String]) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "run {args:?} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_scope, name, value) = (f.next()?, f.next()?, f.next()?);
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn args_for(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if quick {
        args.push("--quick".into());
    }
    args
}

/// Returns whether every pair stayed within its bound and every exact count
/// repeated.
pub fn run(runs: usize, seconds: f64, quick: bool) -> Result<bool, String> {
    if runs < 2 {
        return Err("--aa needs at least 2 runs per set".into());
    }
    // sets[set][workload][metric] = the N values.
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> = Vec::new();
    let mut exact: Vec<BTreeMap<String, f64>> = Vec::new();
    for set in 0..2 {
        let mut by_workload = BTreeMap::new();
        for w in &names::WORKLOADS {
            let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for seed in 1..=runs as u64 {
                eprintln!("aa: set {set} {} seed {seed}", w.name);
                for (name, value) in child(&args_for(w.name, seed, seconds, false, quick))? {
                    by_metric.entry(name).or_default().push(value);
                }
            }
            by_workload.insert(w.name, by_metric);
        }
        sets.push(by_workload);
        eprintln!("aa: set {set} traced run");
        let seed = crate::config::DEFAULT_SEED;
        exact.push(child(&args_for(
            names::WORKLOADS[0].name,
            seed,
            seconds,
            true,
            quick,
        ))?);
    }

    let mut all_ok = true;
    println!(
        "aa {:<13} {:<13} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median_a", "median_b", "worse", "iqr_a", "iqr_b", "bound"
    );
    for w in &names::WORKLOADS {
        for m in &names::END_TO_END {
            let (a, b) = (&sets[0][w.name][m.name], &sets[1][w.name][m.name]);
            let (med_a, med_b) = (median(a), median(b));
            // How much worse the second set's median is, as a share of the
            // first's; negative when it is better.
            let worse = match m.better {
                Better::Lower => (med_b - med_a) / med_a,
                Better::Higher => (med_a - med_b) / med_a,
            };
            let (iqr_a, iqr_b) = (spread(a), spread(b));
            for (set, values) in [("a", a), ("b", b)] {
                println!("aa-raw {} {} {set} {values:?}", w.name, m.name);
            }
            // set-up time is held to its bound on the shift alone, as the
            // driver holds it.
            let spread_ok = m.name == "setup_s" || iqr_a.max(iqr_b) <= m.bound;
            let ok = spread_ok && worse <= m.bound;
            all_ok &= ok;
            println!(
                "aa {:<13} {:<13} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>8.4} {:>6}  {}",
                w.name,
                m.name,
                med_a,
                med_b,
                worse,
                iqr_a,
                iqr_b,
                m.bound,
                if ok { "ok" } else { "unresolved" }
            );
        }
    }
    for m in names::per_layer().iter().filter(|m| m.exact) {
        let (a, b) = (exact[0].get(&m.name), exact[1].get(&m.name));
        let same = a.is_some() && a == b;
        all_ok &= same;
        println!(
            "aa exact {:<32} {:?} {:?}  {}",
            m.name,
            a,
            b,
            if same { "repeats" } else { "DIFFERS" }
        );
    }
    Ok(all_ok)
}
