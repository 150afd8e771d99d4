//! The `galois` binary names the same computations the harness does: its
//! `--verify` is the apps' own verifier, and a plain run and a recorded run
//! of the same `(app, size, seed)` are one input.

use deterministic_galois::harness::App;
use std::path::PathBuf;
use std::process::Command;

const APPS: [&str; 6] = ["bfs", "mis", "mm", "dt", "dmr", "pfp"];

/// Runs `galois ARGS`, asserting exit 0, and returns its stdout.
fn galois(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_galois"))
        .args(args)
        .output()
        .expect("galois binary runs");
    assert!(
        out.status.success(),
        "galois {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Runs `galois ARGS` expecting a usage refusal: exit 2, with `why` on
/// stderr.
fn refused(args: &[&str], why: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_galois"))
        .args(args)
        .output()
        .expect("galois binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
}

/// Every (app, variant) cell of the paper's matrix runs through the one
/// dispatcher and is verified; pfp has no pbbs cell.
#[test]
fn verified_runs_print_the_verifier_line_for_every_app() {
    for app in APPS {
        for variant in ["seq", "g-n", "g-d", "pbbs"] {
            if (app, variant) == ("pfp", "pbbs") {
                refused(
                    &[app, "--variant", variant],
                    "pfp has no PBBS variant (§4.1)",
                );
                continue;
            }
            let stdout = galois(&[app, "--variant", variant, "--size", "300"]);
            assert!(
                stdout.lines().any(|l| l.starts_with("verified: ")),
                "{app} {variant}: no verifier line in:\n{stdout}"
            );
        }
    }
}

/// Chaos perturbs a parallel schedule; `seq` and `pbbs` have none to
/// perturb, so the flag is refused before anything runs.
#[test]
fn chaos_requires_a_parallel_executor_variant() {
    for variant in ["seq", "pbbs"] {
        refused(
            &[
                "mis",
                "--variant",
                variant,
                "--size",
                "300",
                "--chaos-seed",
                "7",
            ],
            "--chaos-seed requires an executor variant (g-d or g-n)",
        );
    }
}

#[test]
fn a_plain_run_and_a_recording_share_one_cached_input() {
    for app in ["pfp", "bfs", "mis"] {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("galois-cli-{}-{app}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.join("cache");
        let cache_arg = cache.to_str().expect("utf-8 temp path");
        let manifest = dir.join("m.json");
        let input = ["--size", "96", "--seed", "7", "--cache-dir", cache_arg];

        let mut run = vec![app];
        run.extend(input);
        galois(&run);
        let mut record = vec!["record", app, "--out", manifest.to_str().unwrap()];
        record.extend(input);
        galois(&record);

        let files: Vec<_> = std::fs::read_dir(&cache)
            .expect("cache dir was created")
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            files.len(),
            1,
            "{app}: the run and the recording cached different inputs: {files:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Only the deterministic scheduler has rounds, so a round log is refused
/// for every other variant before anything runs or is written.
#[test]
fn round_log_requires_the_deterministic_variant() {
    let log = std::env::temp_dir().join(format!("galois-cli-{}-gn.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    for variant in ["g-n", "seq"] {
        let out = Command::new(env!("CARGO_BIN_EXE_galois"))
            .args(["bfs", "--variant", variant, "--size", "300", "--round-log"])
            .arg(&log)
            .output()
            .expect("galois binary runs");
        assert_eq!(out.status.code(), Some(2), "{variant}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--round-log requires g-d"),
            "{variant}: {stderr}"
        );
        assert!(!log.exists(), "{variant}: a refused run wrote a round log");
    }
}

/// `--round-log` at 1 and 2 threads, conflict attribution included (mis
/// must attribute some). bfs, mis, mm and pfp logs are byte-identical. dt and dmr logs differ in `"conflicts"` alone — it names
/// arena triangle slots, which are allocated concurrently (DESIGN.md note
/// 13) — and are identical once it is removed.
#[test]
fn round_logs_match_across_thread_counts_for_every_app() {
    let dir = std::env::temp_dir().join(format!("galois-cli-{}-logs", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for app in APPS {
        let [one, two] = ["1", "2"].map(|threads| {
            let log = dir.join(format!("{app}-t{threads}.jsonl"));
            let log_arg = log.to_str().unwrap();
            galois(&[
                app,
                "--variant",
                "g-d",
                "--threads",
                threads,
                "--size",
                "300",
                "--round-log",
                log_arg,
            ]);
            std::fs::read_to_string(&log).unwrap()
        });
        assert!(!one.is_empty(), "{app}: no rounds logged");
        if app == "mis" {
            // The file's conflicts come from the log `--round-log`
            // attaches; the executor's own log carries none.
            assert!(
                one.contains("\"conflicts\":[["),
                "mis: the round log attributes no conflicts"
            );
        }
        if matches!(app, "dt" | "dmr") {
            let unattributed = |log: &str| -> Vec<String> {
                log.lines()
                    .map(|l| l.split(",\"conflicts\":").next().unwrap().to_string())
                    .collect()
            };
            assert_eq!(unattributed(&one), unattributed(&two), "{app}");
        } else {
            assert_eq!(one, two, "{app}: the round log moved with the thread count");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--size` above the app's maximum is a usage error (exit 2) for a run
/// and a recording alike, refused before any input is built or file written.
#[test]
fn oversize_inputs_are_refused_with_exit_2() {
    let manifest =
        std::env::temp_dir().join(format!("galois-cli-{}-oversize.json", std::process::id()));
    let _ = std::fs::remove_file(&manifest);
    let out_arg = manifest.to_str().expect("utf-8 temp path");
    let over_dmr = (App::Dmr.max_size() + 1).to_string();
    for args in [
        vec!["bfs", "--size", "18446744073709551615"],
        vec!["dmr", "--size", &over_dmr],
        vec![
            "record",
            "bfs",
            "--size",
            "18446744073709551615",
            "--out",
            out_arg,
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_galois"))
            .args(&args)
            .output()
            .expect("galois binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("maximum"), "{args:?}: {stderr}");
    }
    assert!(!manifest.exists(), "a refused recording wrote a manifest");
}

/// `galois replay --lockstep` runs a lockstep session in this process
/// through the loopback coordinator; a chaos seed list longer than the
/// replica list is refused before anything runs.
#[test]
fn replay_lockstep_runs_the_coordinator_and_checks_its_seed_list() {
    let manifest =
        std::env::temp_dir().join(format!("galois-cli-lockstep-{}.json", std::process::id()));
    let path = manifest.to_str().expect("utf-8 temp path");
    galois(&["record", "bfs", "--threads", "1", "--out", path]);
    let stdout = galois(&["replay", path, "--lockstep", "2,4", "--lockstep-chaos", "7"]);
    assert!(
        stdout.starts_with("lockstep ok: 2 replicas agreed on all "),
        "{stdout}"
    );
    refused(
        &[
            "replay",
            path,
            "--lockstep",
            "2,4",
            "--lockstep-chaos",
            "7,8,9",
        ],
        "--lockstep-chaos lists more seeds than --lockstep has replicas",
    );
    std::fs::remove_file(&manifest).ok();
}
