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

#[test]
fn verified_runs_print_the_verifier_line_for_every_app() {
    for app in APPS {
        let stdout = galois(&[app, "--size", "300", "--verify"]);
        assert!(
            stdout.lines().any(|l| l.starts_with("verified: ")),
            "{app}: no verifier line in:\n{stdout}"
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
