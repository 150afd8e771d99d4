//! Real-subprocess orchestration helpers for distributed tests.
//!
//! The distributed lockstep battery proves cross-*process* properties —
//! divergence is a different executable run, the exit codes cross the
//! process boundary — so those replicas are real `galois` child processes.
//! This module locates (building on demand if necessary) the workspace's
//! `galois` binary and spawns replica children with the standard flag
//! surface, so every test spells process orchestration the same way.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;

/// How a spawned replica should behave — the test-visible knobs of
/// `galois replicate`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaSpec {
    /// Worker threads the replica runs the job with (0 = use the manifest's
    /// recorded budget). Distinct budgets across replicas is the
    /// portability claim under test.
    pub threads: usize,
    /// When non-zero, overrides the job's `locality_spread` — a planted
    /// schedule perturbation that *deterministically* diverges from the
    /// reference chain at a reproducible first round.
    pub perturb_spread: usize,
}

/// Locates the workspace's release-or-debug `galois` binary, building it
/// (`cargo build --bin galois`) the first time a test asks and nothing is
/// on disk yet. The result is cached for the process lifetime.
///
/// Integration tests of library crates cannot use `CARGO_BIN_EXE_galois`
/// (the binary belongs to the root package, not the crate under test), so
/// this walks from `current_exe` — `target/<profile>/deps/<test-bin>` — up
/// to the profile directory.
pub fn galois_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let exe = std::env::current_exe().expect("current_exe");
        let profile_dir = profile_dir_of(&exe);
        let candidate = profile_dir.join(format!("galois{}", std::env::consts::EXE_SUFFIX));
        if !candidate.is_file() {
            let release = profile_dir.file_name().is_some_and(|n| n == "release");
            let mut cmd = Command::new(env!("CARGO"));
            cmd.args(["build", "--bin", "galois"]);
            if release {
                cmd.arg("--release");
            }
            let status = cmd
                .status()
                .unwrap_or_else(|e| panic!("cargo build --bin galois: {e}"));
            assert!(status.success(), "cargo build --bin galois failed");
        }
        assert!(
            candidate.is_file(),
            "galois binary not found at {}",
            candidate.display()
        );
        candidate
    })
    .clone()
}

/// `target/<profile>/deps/test-xyz` (or `target/<profile>/galois`) → the
/// profile directory.
fn profile_dir_of(exe: &Path) -> PathBuf {
    let mut dir = exe.parent().expect("exe has a parent").to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    dir
}

/// Spawns one `galois replicate --join addr` child per `spec`. Stdout and
/// stderr are piped (a replica's chatter must not interleave with the test
/// harness's); the caller owns the [`Child`] and reaps it.
pub fn spawn_replica(bin: &Path, addr: &str, spec: &ReplicaSpec) -> std::io::Result<Child> {
    let mut cmd = Command::new(bin);
    cmd.arg("replicate").args(["--join", addr]);
    if spec.threads != 0 {
        cmd.args(["--threads", &spec.threads.to_string()]);
    }
    if spec.perturb_spread != 0 {
        cmd.args(["--perturb-spread", &spec.perturb_spread.to_string()]);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd.spawn()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_dir_strips_deps() {
        assert_eq!(
            profile_dir_of(Path::new("/w/target/debug/deps/t-abc")),
            Path::new("/w/target/debug")
        );
        assert_eq!(
            profile_dir_of(Path::new("/w/target/release/galois")),
            Path::new("/w/target/release")
        );
    }
}
