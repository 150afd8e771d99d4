//! Record/replay and lockstep-replication tests.
//!
//! The paper's portability property — bit-identical deterministic schedules
//! at any thread count — is what makes a recorded run a *contract*: a
//! [`RunManifest`] captured once must replay byte-identically on any
//! machine shape. These tests record at one thread count, replay across
//! `{2, 5, 8, 16}`, cross-check lockstep replicas, plant a schedule
//! perturbation to prove lockstep pinpoints the exact first divergent
//! round, and reject corrupted manifest files.
//!
//! [`RunManifest`]: deterministic_galois::core::RunManifest

use deterministic_galois::core::{
    DetOptions, Hooks, ManifestError, ManifestRecorder, RunManifest, Schedule,
};
use deterministic_galois::graph::gen;
use deterministic_galois::harness::{
    record_run, replay_run, run_lockstep, unperturbed, App, InputConfig, LockstepReplica,
    ReplayError,
};
use deterministic_galois::runtime::fingerprint::Fnv64;

fn record_default(app: App) -> RunManifest {
    record_run(app, 1, None, &InputConfig::default()).expect("recording must succeed")
}

/// Record at threads=1, then replay at oversubscribed thread counts: every
/// replay must reproduce the recorded hash chain and final fingerprint
/// byte-for-byte.
#[test]
fn replay_is_bit_identical_across_thread_counts() {
    for app in [App::Bfs, App::Mis] {
        let manifest = record_default(app);
        assert!(manifest.round_hashes.len() > 1, "{app}: trivial recording");
        for threads in [2, 5, 8, 16] {
            let out = replay_run(&manifest, threads, None)
                .unwrap_or_else(|e| panic!("{app} replay at {threads} threads: {e}"));
            assert_eq!(
                out.fingerprint, manifest.final_fingerprint,
                "{app} at {threads} threads"
            );
            assert_eq!(out.rounds as usize, manifest.round_hashes.len());
        }
    }
}

/// The manifest round-trips through its on-disk form: save, load, replay.
#[test]
fn saved_manifest_replays_after_reload() {
    let dir = std::env::temp_dir().join("galois-replay-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mm.manifest.json");
    let manifest = record_default(App::Mm);
    manifest.save(&path).unwrap();
    let reloaded = RunManifest::load(&path).unwrap();
    assert_eq!(reloaded, manifest);
    let out = replay_run(&reloaded, 5, None).unwrap();
    assert_eq!(out.fingerprint, manifest.final_fingerprint);
    std::fs::remove_file(&path).ok();
}

/// A replay driven through the recorder marks its [`RunReport`] as a
/// replay (the report-provenance accessor this API added).
///
/// [`RunReport`]: deterministic_galois::core::RunReport
#[test]
fn replayed_reports_mark_themselves() {
    let manifest = record_default(App::Bfs);
    let g = gen::uniform_random_parallel(2_000, 5, 42, 1);
    let exec = manifest.exec.to_executor(4);
    let mut rec = ManifestRecorder::replaying(&manifest);
    let hooks = Hooks {
        recorder: Some(&mut rec),
        ..Hooks::default()
    };
    let (_, report) = deterministic_galois::apps::bfs::run(&g, 0, &exec, hooks).unwrap();
    assert!(report.is_replay());
    // A fresh (recording) run is not a replay.
    let (_, fresh) = deterministic_galois::apps::bfs::try_galois(&g, 0, &exec).unwrap();
    assert!(!fresh.is_replay());
}

/// Clean lockstep: replicas at different thread counts, one with a chaos
/// seed, must agree with each other and with the recording at every round.
#[test]
fn lockstep_replicas_agree_on_clean_runs() {
    let manifest = record_default(App::Mis);
    let replicas = [
        LockstepReplica {
            threads: 2,
            chaos_seed: None,
        },
        LockstepReplica {
            threads: 7,
            chaos_seed: Some(99),
        },
        LockstepReplica {
            threads: 16,
            chaos_seed: Some(5),
        },
    ];
    let report = run_lockstep(&manifest, &replicas, &unperturbed).unwrap();
    assert!(report.all_agree(), "divergence: {:?}", report.divergence);
    assert_eq!(report.rounds as usize, manifest.round_hashes.len());
}

/// Planted perturbation: one replica runs with a different locality
/// spread, which legally changes the deterministic schedule. Lockstep must
/// report the exact first divergent round — the same round its
/// per-replica manifest verdict pinpoints, stable across repetitions.
#[test]
fn lockstep_pinpoints_first_divergent_round() {
    let manifest = record_default(App::Bfs);
    let replicas = [
        LockstepReplica {
            threads: 2,
            chaos_seed: None,
        },
        LockstepReplica {
            threads: 4,
            chaos_seed: None,
        },
    ];
    // Perturb only the 4-thread replica: locality spread 7 deals the task
    // sequence differently, so its schedule diverges from the recording at
    // a deterministic round.
    let perturb = |_: App,
                   _: deterministic_galois::harness::Variant,
                   threads: usize,
                   _: Option<u64>,
                   exec: deterministic_galois::core::Executor| {
        if threads == 4 {
            exec.schedule(Schedule::Deterministic(DetOptions {
                locality_spread: 7,
                ..Default::default()
            }))
        } else {
            exec
        }
    };
    let first = run_lockstep(&manifest, &replicas, &perturb).unwrap();
    let div = first.divergence.expect("perturbed replica must diverge");
    assert_eq!((div.replica_a, div.replica_b), (0, 1));
    assert_ne!(div.hash_a, div.hash_b);
    // The clean replica reproduces the recording; the perturbed one
    // diverges from it at the same round the pairwise check found.
    assert_eq!(first.manifest_divergences[0], None);
    let against_manifest = first.manifest_divergences[1]
        .as_ref()
        .expect("perturbed replica must diverge from the recording");
    assert_eq!(against_manifest.round, div.round);
    // The pinpointed round is exact: a second run reports the same one.
    let second = run_lockstep(&manifest, &replicas, &perturb).unwrap();
    assert_eq!(second.divergence, Some(div));
}

/// A flipped byte anywhere in the manifest body is caught by the embedded
/// checksum before any field is trusted.
#[test]
fn corrupt_manifest_is_rejected() {
    let manifest = record_default(App::Bfs);
    let text = manifest.to_json();
    // Flip one hex digit inside the round-hash array.
    let at = text.find("round_hashes").unwrap() + 20;
    let mut bytes = text.clone().into_bytes();
    bytes[at] = if bytes[at] == b'a' { b'b' } else { b'a' };
    let corrupt = String::from_utf8(bytes).unwrap();
    match RunManifest::from_json(&corrupt) {
        Err(ManifestError::Checksum { .. }) => {}
        other => panic!("expected checksum rejection, got {other:?}"),
    }
    // Truncation is also rejected.
    assert!(RunManifest::from_json(&text[..text.len() / 2]).is_err());
}

/// A manifest from a future format version is rejected even when its
/// checksum is intact (re-signed after the version edit).
#[test]
fn future_version_is_rejected() {
    let manifest = record_default(App::Bfs);
    let text = manifest.to_json();
    let body = text.replacen("\"version\":1", "\"version\":9", 1);
    // Re-sign: the checksum covers everything before its own field, with
    // the closing brace restored.
    let at = body.find(",\"checksum\":").unwrap();
    let mut h = Fnv64::new();
    h.write_bytes(format!("{}}}", &body[..at]).as_bytes());
    let resigned = format!("{},\"checksum\":\"{:016x}\"}}\n", &body[..at], h.finish());
    match RunManifest::from_json(&resigned) {
        Err(ManifestError::Version(9)) => {}
        other => panic!("expected version rejection, got {other:?}"),
    }
}

/// A manifest whose input key was tampered with (but re-signed) is refused
/// by the replay layer rather than silently replaying the wrong input.
#[test]
fn foreign_input_key_is_refused() {
    let mut manifest = record_default(App::Bfs);
    manifest.input_key = "uniform-n9999-d5-s42".into();
    match replay_run(&manifest, 2, None) {
        Err(ReplayError::Mismatch(msg)) => {
            assert!(msg.contains("input"), "unexpected message: {msg}")
        }
        other => panic!("expected input-key mismatch, got {other:?}"),
    }
}
