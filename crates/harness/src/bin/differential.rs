//! `differential` — the cross-executor differential sweep as a CLI.
//!
//! ```text
//! differential [--app all|NAME[,NAME...]] [--threads LIST] [--chaos-seeds LIST|LO..HI]
//!              [--panic-chaos LIST|LO..HI] [--input-seed N] [--build-threads N]
//!              [--cache-dir DIR] [--no-spec] [--out FILE]
//! ```
//!
//! Runs serial vs speculative vs deterministic for each app over the
//! (threads × chaos seeds) matrix. On failure the minimized one-line
//! reproduction command is printed, written to `--out` (default
//! `chaos-repro.txt`, for CI artifact upload), and the exit code is 1.
//! Seed lists accept an inclusive range `LO..HI` or a comma list.
//!
//! `--panic-chaos LIST` switches to the **fault-injection matrix**: every
//! run arms seeded operator-panic injection, and the harness records one
//! fault fingerprint per `(app, panic seed)` — the structured `ExecError`
//! (task id, round, message) of the faulted run, or the clean fingerprint
//! when the drawn fault set misses. Deterministic fingerprints must be
//! identical at every thread count; speculative runs must terminate (no
//! deadlock) and validate when clean. `--chaos-seeds` is ignored in this
//! mode.
//!
//! `--cache-dir DIR` caches generated inputs on disk: the first sweep
//! stores each input, later sweeps load it back (the summary line reports
//! hits/misses, which CI asserts on). `--build-threads N` builds inputs
//! with the parallel generators — byte-identical for every N, so it never
//! changes any fingerprint.
//!
//! `--manifest DIR` captures each app's converged deterministic run as a
//! replayable `<app>.manifest.json` in DIR after a successful sweep — the
//! run the whole matrix agreed on becomes a `galois replay` artifact.

#![forbid(unsafe_code)]

use galois_harness::{
    record_run, run_differential, run_panic_differential, unperturbed, App, DiffConfig,
};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: differential [--app all|NAME[,NAME...]] [--threads LIST] \
         [--chaos-seeds LIST|LO..HI] [--panic-chaos LIST|LO..HI] [--input-seed N] \
         [--build-threads N] [--cache-dir DIR] [--manifest DIR] [--no-spec] [--out FILE]"
    );
    exit(2);
}

fn parse_apps(v: &str) -> Vec<App> {
    if v == "all" {
        return App::ALL.to_vec();
    }
    v.split(',')
        .map(|name| App::from_name(name.trim()).unwrap_or_else(|| usage()))
        .collect()
}

fn parse_usize_list(v: &str) -> Vec<usize> {
    v.split(',')
        .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
        .collect()
}

fn parse_seed_list(v: &str) -> Vec<u64> {
    if let Some((lo, hi)) = v.split_once("..") {
        let lo: u64 = lo.trim().parse().unwrap_or_else(|_| usage());
        let hi: u64 = hi.trim().parse().unwrap_or_else(|_| usage());
        if lo > hi {
            usage();
        }
        return (lo..=hi).collect();
    }
    v.split(',')
        .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
        .collect()
}

fn main() {
    let mut cfg = DiffConfig::default();
    let mut panic_seeds: Option<Vec<u64>> = None;
    let mut out_path = String::from("chaos-repro.txt");
    let mut manifest_dir: Option<std::path::PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--app" => val(&mut |v| cfg.apps = parse_apps(&v)),
            "--threads" => val(&mut |v| cfg.threads = parse_usize_list(&v)),
            "--chaos-seeds" => val(&mut |v| cfg.chaos_seeds = parse_seed_list(&v)),
            "--panic-chaos" => val(&mut |v| panic_seeds = Some(parse_seed_list(&v))),
            "--input-seed" => val(&mut |v| cfg.input_seed = v.parse().unwrap_or_else(|_| usage())),
            "--build-threads" => {
                val(&mut |v| cfg.build_threads = v.parse().unwrap_or_else(|_| usage()))
            }
            "--cache-dir" => val(&mut |v| cfg.cache_dir = Some(v.into())),
            "--manifest" => val(&mut |v| manifest_dir = Some(v.into())),
            "--no-spec" => cfg.check_spec = false,
            "--out" => val(&mut |v| out_path = v),
            _ => usage(),
        }
    }
    if cfg.apps.is_empty() || cfg.threads.is_empty() || cfg.chaos_seeds.is_empty() {
        usage();
    }

    let t0 = std::time::Instant::now();
    if let Some(seeds) = panic_seeds {
        if seeds.is_empty() {
            usage();
        }
        cfg.chaos_seeds = seeds;
        println!(
            "differential (panic-chaos): apps {:?}, threads {:?}, panic seeds {:?}, input seed {}",
            cfg.apps.iter().map(|a| a.name()).collect::<Vec<_>>(),
            cfg.threads,
            cfg.chaos_seeds,
            cfg.input_seed,
        );
        match run_panic_differential(&cfg) {
            Ok(summary) => {
                let faulted = summary
                    .fault_fingerprints
                    .iter()
                    .filter(|(_, _, out)| matches!(out, galois_harness::FaultOutcome::Faulted(_)))
                    .count();
                for (app, seed, out) in &summary.fault_fingerprints {
                    println!("  {app} seed {seed}: {out} at every thread count");
                }
                println!(
                    "ok: {} runs, {} of {} (app, seed) cells faulted, all reports \
                     thread-invariant in {:?}",
                    summary.runs,
                    faulted,
                    summary.fault_fingerprints.len(),
                    t0.elapsed(),
                );
            }
            Err(failure) => {
                eprintln!("FAILURE {failure}");
                if let Err(e) = std::fs::write(&out_path, format!("{}\n", failure.repro)) {
                    eprintln!("cannot write {out_path}: {e}");
                } else {
                    eprintln!("minimized repro written to {out_path}");
                }
                exit(1);
            }
        }
        return;
    }
    println!(
        "differential: apps {:?}, threads {:?}, chaos seeds {:?}, input seed {}",
        cfg.apps.iter().map(|a| a.name()).collect::<Vec<_>>(),
        cfg.threads,
        cfg.chaos_seeds,
        cfg.input_seed,
    );
    match run_differential(&cfg, &unperturbed) {
        Ok(summary) => {
            for (app, fp) in &summary.det_fingerprints {
                println!("  {app}: deterministic fingerprint {fp:016x} across the whole matrix");
            }
            if let Some(dir) = &manifest_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    exit(1);
                }
                let input = cfg.input();
                for &(app, fp) in &summary.det_fingerprints {
                    let manifest = match record_run(app, cfg.threads[0], None, &input) {
                        Ok(m) => m,
                        Err(e) => {
                            eprintln!("FAILURE recording {app} manifest: {e}");
                            exit(1);
                        }
                    };
                    // No-chaos recording must land on the same fingerprint
                    // the chaos matrix converged on — that is the whole
                    // point of the invariance sweep.
                    if manifest.final_fingerprint != fp {
                        eprintln!(
                            "FAILURE {app}: manifest fingerprint {:016x} != sweep \
                             fingerprint {fp:016x}",
                            manifest.final_fingerprint
                        );
                        exit(1);
                    }
                    let path = dir.join(format!("{app}.manifest.json"));
                    if let Err(e) = manifest.save(&path) {
                        eprintln!("FAILURE {e}");
                        exit(1);
                    }
                    println!(
                        "  {app}: manifest ({} rounds) written to {}",
                        manifest.round_hashes.len(),
                        path.display()
                    );
                }
            }
            if cfg.cache_dir.is_some() {
                println!(
                    "input cache: {} hits, {} misses",
                    summary.cache_hits, summary.cache_misses,
                );
            }
            println!(
                "ok: {} runs, {} apps invariant in {:?}",
                summary.runs,
                summary.det_fingerprints.len(),
                t0.elapsed(),
            );
        }
        Err(failure) => {
            eprintln!("FAILURE {failure}");
            if let Err(e) = std::fs::write(&out_path, format!("{}\n", failure.repro)) {
                eprintln!("cannot write {out_path}: {e}");
            } else {
                eprintln!("minimized repro written to {out_path}");
            }
            exit(1);
        }
    }
}
