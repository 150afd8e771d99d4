//! `galois` — command-line driver for the benchmark applications.
//!
//! Mirrors how the paper's artifact is used: pick an application, an input
//! size, a thread count, and — the point of the paper — a scheduler, on the
//! command line.
//!
//! ```text
//! galois <app> [--variant seq|g-n|g-d|pbbs] [--threads N] [--size N] [--seed N] [--verify]
//!        [--round-log FILE] [--chaos-seed N] [--chaos-panics N] [--cache-dir DIR]
//! galois record <app> --out FILE [--threads N] [--size N] [--seed N]
//!        [--chaos-seed N] [--cache-dir DIR]
//! galois replay FILE [--threads N] [--cache-dir DIR]
//!        [--lockstep T1,T2[,..]] [--lockstep-chaos S1,S2[,..]]
//! galois serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
//! galois lockstep FILE --replicas N [--spawn] [--window W] [--threads T1,T2[,..]]
//!        [--timeout-ms T] [--addr HOST:PORT] [--report FILE] [--emit-manifest FILE]
//!        [--perturb i:SPREAD] [--throttle i:MS]
//! galois replicate --join ADDR [--threads N] [--perturb-spread N] [--throttle-ms MS]
//!
//! apps: bfs, mis, mm, dt, dmr, pfp
//! ```
//!
//! A run is parse → build the input → [`App::run`] → print: every
//! (app, variant) pair goes through the one dispatcher the harness, the
//! service and the figure drivers use. `seq` is the app's operator under
//! the serial executor; `pbbs` is the handwritten determinism-by-construction
//! implementation (pfp has none, §4.1: exit 2). Every run is verified by
//! the app's own verifier (`--verify` is accepted and changes nothing): the
//! run prints its output hash and stats line, then a `verified: ...` line,
//! and a rejected output exits 1.
//!
//! Graph inputs are built with the parallel generators on `--threads`
//! threads — byte-identical to a one-thread build at any thread count.
//! `--cache-dir DIR` additionally caches generated graph and flow-network
//! inputs on disk (keyed by generator + parameters + seed), so repeated
//! runs load instead of regenerating.
//!
//! `--round-log FILE` (`g-d` only: only the deterministic scheduler has
//! rounds) writes the per-round schedule log as canonical JSONL. The file
//! is byte-identical at any thread count, so two runs can be diffed to find
//! the first divergent round. One exemption: dt and dmr's `"conflicts"`
//! fields name arena triangle slots, which are allocated concurrently and
//! vary from run to run (DESIGN.md note 13); their logs match once those
//! fields are removed.
//!
//! `--chaos-seed N` (`g-n`/`g-d` only) installs a seeded
//! schedule-chaos policy: thread start skew, barrier jitter, shuffled
//! worklist chunk traffic and forced spurious aborts. `g-d` output and
//! round logs must be byte-identical regardless of the seed — that is the
//! invariance the flag exists to stress.
//!
//! `--chaos-panics N` (`g-n`/`g-d` only) additionally injects seeded
//! operator panics at the failsafe point, exercising the fault-containment
//! layer.
//! Executor faults map to distinct exit codes: operator panic = 10,
//! stall/livelock = 11, quarantine overflow = 12, replay divergence = 13.
//!
//! `galois record` runs an app deterministically and writes a versioned,
//! checksummed [`RunManifest`] capturing the input identity, executor
//! configuration, per-round hash chain, and final fingerprint. `galois
//! replay FILE` re-executes the manifest — at `--threads N`, which may
//! differ from the recording — and verifies every round hash; the first
//! divergent round is reported with exit code 13. `--lockstep T1,T2[,..]`
//! instead runs N in-process replicas at the given thread counts
//! (optionally with per-replica `--lockstep-chaos` seeds) through the same
//! vote `galois lockstep` runs over the wire: every barrier's hash is
//! checked against the recording, a strict minority contradicting it is
//! evicted at its first divergent round (exit 13), half or more is a
//! refusal (exit 14).
//!
//! `galois serve` starts the resident compute service (`galois-serve`): a
//! blocking HTTP/1.1+JSON server that keeps inputs warm across requests,
//! quarantines faulting runs into structured error responses, and streams
//! round logs and replayable manifests back to clients. It runs until
//! `POST /shutdown` (or the process is killed).
//!
//! [`RunManifest`]: deterministic_galois::core::RunManifest
//! [`App::run`]: deterministic_galois::harness::App::run

#![forbid(unsafe_code)]

use deterministic_galois::core::manifest::{LockstepOutcome, LockstepReport};
use deterministic_galois::core::{ExecError, Hooks, RoundLog};
use deterministic_galois::graph::cache::CacheOutcome;
use deterministic_galois::harness::lockstep::{exit_code, EXIT_DIVERGENCE, EXIT_NO_QUORUM};
use deterministic_galois::harness::{
    executor_for, input_key, load_input, App, InputConfig, ResidentInput, Variant,
};
use std::path::PathBuf;
use std::process::exit;

#[derive(Debug)]
struct Args {
    app: App,
    variant: Variant,
    threads: usize,
    size: usize,
    seed: u64,
    round_log: Option<String>,
    chaos_seed: Option<u64>,
    chaos_panics: Option<u64>,
    cache_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: galois <bfs|mis|mm|dt|dmr|pfp> [--variant seq|g-n|g-d|pbbs] \
         [--threads N] [--size N] [--seed N] [--verify] [--round-log FILE] \
         [--chaos-seed N] [--chaos-panics N] [--cache-dir DIR]\n       \
         galois record <app> --out FILE [--threads N] [--size N] [--seed N] \
         [--chaos-seed N] [--cache-dir DIR]\n       \
         galois replay FILE [--threads N] [--cache-dir DIR] \
         [--lockstep T1,T2[,..]] [--lockstep-chaos S1,S2[,..]]\n       \
         galois serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]\n       \
         galois lockstep FILE --replicas N [--spawn] [--window W] \
         [--threads T1,T2[,..]] [--timeout-ms T] [--addr HOST:PORT] \
         [--report FILE] [--emit-manifest FILE] [--perturb i:SPREAD] \
         [--throttle i:MS]\n       \
         galois replicate --join ADDR [--threads N] [--perturb-spread N] \
         [--throttle-ms MS]"
    );
    exit(2);
}

/// `--size V` for `app`: a number within the app's maximum size, else
/// exit 2 before anything is built.
fn size_arg(app: App, v: &str) -> usize {
    let n = v.parse().unwrap_or_else(|_| usage());
    app.check_size(n).unwrap_or_else(|e| {
        eprintln!("--size: {e}");
        exit(2)
    })
}

/// Prints a lockstep session's event log and verdict line — the shared
/// tail of `galois lockstep` and `galois replay --lockstep` — and returns
/// the process exit code the outcome maps to.
fn print_lockstep_verdict(report: &LockstepReport) -> i32 {
    for event in &report.events {
        eprintln!(
            "  [{}] round {} replica {}: {}",
            event.kind.name(),
            event.round,
            event
                .replica
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".to_string()),
            event.detail,
        );
    }
    match report.outcome {
        LockstepOutcome::Agreed => println!(
            "lockstep ok: {} replicas agreed on all {} rounds, fingerprint {:016x}",
            report.replicas, report.rounds, report.final_fingerprint,
        ),
        LockstepOutcome::Diverged => eprintln!(
            "lockstep DIVERGED: survivors {:?} agreed, fingerprint {:016x}",
            report.survivors, report.final_fingerprint,
        ),
        LockstepOutcome::NoQuorum => eprintln!("lockstep REFUSED: no quorum (see events above)"),
    }
    exit_code(report.outcome)
}

/// `galois record <app> --out FILE ...` — run deterministically, capture a
/// replayable manifest.
fn cmd_record(argv: &[String]) -> ! {
    use deterministic_galois::harness::record_run;
    let mut it = argv.iter().cloned();
    let Some(app) = it.next() else { usage() };
    let Some(app) = App::from_name(&app) else {
        eprintln!("unknown app {app}");
        usage();
    };
    let mut threads = 2usize;
    let mut input = InputConfig::default();
    let mut chaos_seed = None;
    let mut out: Option<PathBuf> = None;
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--threads" => val(&mut |v| threads = v.parse().unwrap_or_else(|_| usage())),
            "--size" => val(&mut |v| input.size = Some(size_arg(app, &v))),
            "--seed" => val(&mut |v| input.seed = v.parse().unwrap_or_else(|_| usage())),
            "--chaos-seed" => {
                val(&mut |v| chaos_seed = Some(v.parse().unwrap_or_else(|_| usage())))
            }
            "--cache-dir" => val(&mut |v| input.cache_dir = Some(v.into())),
            "--out" => val(&mut |v| out = Some(v.into())),
            _ => usage(),
        }
    }
    let Some(out) = out else {
        eprintln!("record requires --out FILE");
        usage();
    };
    input.build_threads = threads;
    let t0 = std::time::Instant::now();
    let manifest = match record_run(app, threads, chaos_seed, &input) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("record failed: {e}");
            exit(1);
        }
    };
    if let Err(e) = manifest.save(&out) {
        eprintln!("{e}");
        exit(1);
    }
    println!(
        "recorded {app} ({}): {} rounds, fingerprint {:016x} -> {} in {:?}",
        manifest.input_key,
        manifest.round_hashes.len(),
        manifest.final_fingerprint,
        out.display(),
        t0.elapsed(),
    );
    exit(0);
}

/// `galois replay FILE ...` — re-execute a manifest and verify every round
/// hash, or cross-check N lockstep replicas.
fn cmd_replay(argv: &[String]) -> ! {
    use deterministic_galois::core::RunManifest;
    use deterministic_galois::harness::{
        replay_run, run_lockstep, unperturbed, LockstepReplica, ReplayError,
    };
    let mut it = argv.iter().cloned();
    let Some(path) = it.next() else { usage() };
    let manifest = match RunManifest::load(path.as_ref()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot load manifest {path}: {e}");
            exit(1);
        }
    };
    let mut threads = manifest.exec.threads;
    let mut cache_dir: Option<PathBuf> = None;
    let mut lockstep: Option<Vec<usize>> = None;
    let mut lockstep_chaos: Vec<u64> = Vec::new();
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--threads" => val(&mut |v| threads = v.parse().unwrap_or_else(|_| usage())),
            "--cache-dir" => val(&mut |v| cache_dir = Some(v.into())),
            "--lockstep" => val(&mut |v| {
                lockstep = Some(
                    v.split(',')
                        .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
                        .collect(),
                );
            }),
            "--lockstep-chaos" => val(&mut |v| {
                lockstep_chaos = v
                    .split(',')
                    .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }),
            _ => usage(),
        }
    }
    let t0 = std::time::Instant::now();
    if let Some(replica_threads) = lockstep {
        if replica_threads.len() < 2 {
            eprintln!("--lockstep needs at least two replica thread counts");
            exit(2);
        }
        let replicas: Vec<LockstepReplica> = replica_threads
            .iter()
            .enumerate()
            .map(|(i, &t)| LockstepReplica {
                threads: t,
                chaos_seed: lockstep_chaos.get(i).copied(),
            })
            .collect();
        match run_lockstep(&manifest, &replicas, &unperturbed) {
            Ok(report) => exit(print_lockstep_verdict(&report)),
            Err(e) => {
                eprintln!("lockstep failed: {e}");
                exit(1);
            }
        }
    }
    match replay_run(&manifest, threads, cache_dir) {
        Ok(out) => {
            println!(
                "replay ok: {} at {threads} threads, {} rounds, fingerprint {:016x} \
                 matches the recording in {:?}",
                manifest.app,
                out.rounds,
                out.fingerprint,
                t0.elapsed(),
            );
            exit(0);
        }
        Err(ReplayError::Divergence(d)) => {
            eprintln!("replay DIVERGED: {d}");
            exit(EXIT_DIVERGENCE);
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            exit(1);
        }
    }
}

/// `galois serve ...` — run the resident compute service until shutdown.
fn cmd_serve(argv: &[String]) -> ! {
    use deterministic_galois::serve::{ServeConfig, Server};
    let mut config = ServeConfig {
        addr: "127.0.0.1:7423".to_string(),
        ..ServeConfig::default()
    };
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--addr" => val(&mut |v| config.addr = v),
            "--workers" => val(&mut |v| config.workers = v.parse().unwrap_or_else(|_| usage())),
            "--cache-dir" => val(&mut |v| config.cache_dir = Some(v.into())),
            _ => usage(),
        }
    }
    if config.workers == 0 {
        eprintln!("--workers must be positive");
        exit(2);
    }
    let handle = match Server::start(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", config.addr);
            exit(1);
        }
    };
    println!(
        "galois-serve listening on {} ({} workers, cache {})",
        handle.addr(),
        config.workers,
        config
            .cache_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".to_string()),
    );
    handle.wait();
    println!("galois-serve stopped");
    exit(0);
}

/// `galois replicate --join ADDR ...` — join a lockstep coordinator, re-run
/// its job, and stream per-round prefix hashes back over the wire.
fn cmd_replicate(argv: &[String]) -> ! {
    use deterministic_galois::serve::lockstep::{run_replica, ReplicaOptions};
    let mut it = argv.iter().cloned();
    let mut join: Option<String> = None;
    let mut opts = ReplicaOptions::default();
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--join" => val(&mut |v| join = Some(v)),
            "--threads" => val(&mut |v| opts.threads = Some(v.parse().unwrap_or_else(|_| usage()))),
            "--perturb-spread" => val(&mut |v| {
                opts.perturb_spread = Some(v.parse().unwrap_or_else(|_| usage()));
            }),
            "--throttle-ms" => {
                val(&mut |v| opts.throttle_ms = v.parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    let Some(addr) = join else {
        eprintln!("replicate requires --join ADDR");
        usage();
    };
    match run_replica(&addr, opts) {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("replicate failed: {e}");
            exit(1);
        }
    }
}

/// `galois lockstep FILE ...` — coordinate N replica processes re-executing
/// a recorded manifest, cross-checking per-round hashes over the wire.
fn cmd_lockstep(argv: &[String]) -> ! {
    use deterministic_galois::core::RunManifest;
    use deterministic_galois::serve::lockstep::{Coordinator, LockstepConfig};
    use std::process::{Child, Command, Stdio};
    use std::time::Duration;
    let mut it = argv.iter().cloned();
    let Some(path) = it.next() else { usage() };
    let manifest = match RunManifest::load(path.as_ref()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot load manifest {path}: {e}");
            exit(1);
        }
    };
    let mut config = LockstepConfig::default();
    let mut spawn = false;
    let mut addr = "127.0.0.1:0".to_string();
    let mut report_path: Option<PathBuf> = None;
    let mut emit_manifest: Option<PathBuf> = None;
    // Per-replica-index overrides, "i:VALUE" pairs.
    let mut perturb: Vec<(usize, usize)> = Vec::new();
    let mut throttle: Vec<(usize, u64)> = Vec::new();
    let parse_pair = |v: &str| -> Option<(usize, u64)> {
        let (i, x) = v.split_once(':')?;
        Some((i.trim().parse().ok()?, x.trim().parse().ok()?))
    };
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--replicas" => val(&mut |v| config.replicas = v.parse().unwrap_or_else(|_| usage())),
            "--window" => val(&mut |v| config.window = v.parse().unwrap_or_else(|_| usage())),
            "--threads" => val(&mut |v| {
                config.threads = v
                    .split(',')
                    .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }),
            "--timeout-ms" => val(&mut |v| {
                config.timeout = Duration::from_millis(v.parse().unwrap_or_else(|_| usage()));
            }),
            "--spawn" => spawn = true,
            "--addr" => val(&mut |v| addr = v),
            "--report" => val(&mut |v| report_path = Some(v.into())),
            "--emit-manifest" => val(&mut |v| emit_manifest = Some(v.into())),
            "--perturb" => val(&mut |v| {
                let Some((i, s)) = parse_pair(&v) else {
                    usage()
                };
                perturb.push((i, s as usize));
            }),
            "--throttle" => val(&mut |v| {
                let Some((i, ms)) = parse_pair(&v) else {
                    usage()
                };
                throttle.push((i, ms));
            }),
            _ => usage(),
        }
    }
    if config.replicas == 0 {
        eprintln!("--replicas must be positive");
        exit(2);
    }
    let manifest_text = manifest.to_json();
    let coordinator = match Coordinator::bind(manifest, config.clone(), &addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            exit(1);
        }
    };
    let bound = coordinator.addr();
    println!(
        "lockstep coordinator on {bound} awaiting {} replicas",
        config.replicas
    );
    let mut children: Vec<Child> = Vec::new();
    if spawn {
        let bin = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("cannot find own binary: {e}");
            exit(1);
        });
        for i in 0..config.replicas {
            let mut cmd = Command::new(&bin);
            cmd.arg("replicate").arg("--join").arg(bound.to_string());
            if let Some(&(_, s)) = perturb.iter().find(|&&(j, _)| j == i) {
                cmd.arg("--perturb-spread").arg(s.to_string());
            }
            if let Some(&(_, ms)) = throttle.iter().find(|&&(j, _)| j == i) {
                cmd.arg("--throttle-ms").arg(ms.to_string());
            }
            cmd.stdin(Stdio::null());
            match cmd.spawn() {
                Ok(child) => children.push(child),
                Err(e) => {
                    eprintln!("cannot spawn replica {i}: {e}");
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    exit(1);
                }
            }
        }
    }
    let result = coordinator.run();
    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lockstep failed: {e}");
            exit(1);
        }
    };
    if let Some(out) = report_path {
        if let Err(e) = result.report.save(&out) {
            eprintln!("cannot write report: {e}");
            exit(1);
        }
    }
    print_lockstep_verdict(&result.report);
    if result.exit_code != EXIT_NO_QUORUM {
        if let Some(out) = emit_manifest {
            if let Err(e) = std::fs::write(&out, &manifest_text) {
                eprintln!("cannot emit manifest: {e}");
                exit(1);
            }
        }
    }
    exit(result.exit_code);
}

fn parse_args() -> Args {
    {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match argv.first().map(String::as_str) {
            Some("record") => cmd_record(&argv[1..]),
            Some("replay") => cmd_replay(&argv[1..]),
            Some("serve") => cmd_serve(&argv[1..]),
            Some("replicate") => cmd_replicate(&argv[1..]),
            Some("lockstep") => cmd_lockstep(&argv[1..]),
            _ => {}
        }
    }
    let mut it = std::env::args().skip(1);
    let Some(app) = it.next().and_then(|a| App::from_name(&a)) else {
        usage()
    };
    let mut args = Args {
        app,
        variant: Variant::Deterministic,
        threads: 2,
        size: 0,
        seed: 42,
        round_log: None,
        chaos_seed: None,
        chaos_panics: None,
        cache_dir: None,
    };
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--variant" => {
                val(&mut |v| args.variant = Variant::from_name(&v).unwrap_or_else(|| usage()))
            }
            "--threads" => val(&mut |v| args.threads = v.parse().unwrap_or_else(|_| usage())),
            "--size" => val(&mut |v| args.size = size_arg(app, &v)),
            "--seed" => val(&mut |v| args.seed = v.parse().unwrap_or_else(|_| usage())),
            // Every run is verified; the flag stays accepted.
            "--verify" => {}
            "--round-log" => val(&mut |v| args.round_log = Some(v)),
            "--chaos-seed" => {
                val(&mut |v| args.chaos_seed = Some(v.parse().unwrap_or_else(|_| usage())))
            }
            "--chaos-panics" => {
                val(&mut |v| args.chaos_panics = Some(v.parse().unwrap_or_else(|_| usage())))
            }
            "--cache-dir" => val(&mut |v| args.cache_dir = Some(v.into())),
            _ => usage(),
        }
    }
    args
}

/// Reports an executor fault and exits with its distinct code
/// (operator panic = 10, stall = 11, quarantine overflow = 12).
fn fault_exit(err: ExecError) -> ! {
    eprintln!("fault: {err}");
    exit(err.exit_code());
}

/// Builds (or loads from `--cache-dir`) the app's input — the same input
/// family, key and generator `galois record` and the service use — with
/// the parallel generators on `--threads` threads, reporting which input
/// it is and where it came from. `--size 0` (the default) means the app's
/// larger-than-corpus [`App::cli_size`].
fn input(args: &Args) -> ResidentInput {
    let config = InputConfig {
        seed: args.seed,
        build_threads: args.threads,
        cache_dir: args.cache_dir.clone(),
        size: Some(if args.size == 0 {
            args.app.cli_size()
        } else {
            args.size
        }),
    };
    let t0 = std::time::Instant::now();
    let (input, cached) = load_input(args.app, &config);
    let key = input_key(args.app, &config);
    if cached != CacheOutcome::Disabled {
        println!("input {key}: cache {cached} in {:?}", t0.elapsed());
    }
    println!("{}: {key}, variant {}", args.app, args.variant.label());
    input
}

/// Writes the canonical JSONL round log, with a multi-pass run's (pfp
/// bouts') rounds renumbered into one monotone sequence.
fn write_round_log(path: &str, logs: Vec<RoundLog>) {
    let log = RoundLog::concat(logs);
    if let Err(e) = std::fs::write(path, log.canonical_jsonl()) {
        eprintln!("cannot write round log {path}: {e}");
        exit(1);
    }
    println!("round log: {} rounds -> {path}", log.len());
}

fn main() {
    let args = parse_args();
    let (app, variant) = (args.app, args.variant);
    if args.round_log.is_some() && variant != Variant::Deterministic {
        eprintln!("--round-log requires g-d");
        exit(2);
    }
    let executor_only = [
        ("--chaos-seed", args.chaos_seed.is_some()),
        ("--chaos-panics", args.chaos_panics.is_some()),
    ];
    if !matches!(variant, Variant::Deterministic | Variant::Speculative) {
        if let Some((flag, _)) = executor_only.iter().find(|(_, given)| *given) {
            eprintln!("{flag} requires an executor variant (g-d or g-n)");
            exit(2);
        }
    }
    if let Err(e) = app.check_variant(variant) {
        eprintln!("{e}");
        exit(2);
    }
    let t0 = std::time::Instant::now();
    let input = input(&args);
    let mut exec = executor_for(app, variant, args.threads, args.chaos_seed)
        .record_rounds(args.round_log.is_some());
    if let Some(seed) = args.chaos_panics {
        exec = exec.chaos_panics(seed);
    }
    let done = match app.run(variant, &exec, &input, Hooks::default()) {
        Ok(Ok(done)) => done,
        Ok(Err(fault)) => fault_exit(fault),
        Err(e) => {
            eprintln!("verification failed: {e}");
            exit(1);
        }
    };
    if let Some(path) = &args.round_log {
        write_round_log(path, done.logs);
    }
    println!(
        "done in {:?}: output {:016x} ({})",
        t0.elapsed(),
        done.output_hash,
        done.stats
    );
    println!("verified: {}", app.verified_claim());
}
