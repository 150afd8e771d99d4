//! Record/replay and lockstep-replication tests.
//!
//! The paper's portability property — bit-identical deterministic schedules
//! at any thread count — is what makes a recorded run a *contract*: a
//! [`RunManifest`] captured once must replay byte-identically on any
//! machine shape. These tests record at one thread count, replay across
//! `{2, 5, 8, 16}`, run lockstep sessions in this process through the
//! loopback coordinator (clean agreement, a planted schedule perturbation
//! evicted at its exact first divergent round, a half-contradicted vote
//! refused), and reject corrupted manifest files.
//!
//! [`RunManifest`]: deterministic_galois::core::RunManifest

use deterministic_galois::core::manifest::{LockstepEventKind, LockstepOutcome, LockstepReport};
use deterministic_galois::core::{
    DetOptions, Executor, Hooks, ManifestError, ManifestRecorder, RunManifest, Schedule,
};
use deterministic_galois::graph::gen;
use deterministic_galois::harness::{
    record_run, replay_run, replay_with, App, InputConfig, ReplayError,
};
use deterministic_galois::runtime::fingerprint::Fnv64;
use deterministic_galois::serve::lockstep::{run_local, ReplicaOptions};

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

/// A flowrand draw with a cut-off source runs zero bouts. That run must
/// still record — a valid zero-round manifest — survive save/load, and
/// replay at any thread count (it used to panic in `finish`: no bout, so
/// the recorder never saw the executor configuration).
#[test]
fn zero_round_pfp_run_records_and_replays() {
    let input = InputConfig {
        seed: 29,
        size: Some(200),
        ..InputConfig::default()
    };
    let manifest = record_run(App::Pfp, 1, None, &input).expect("zero-round run must record");
    assert!(
        manifest.round_hashes.is_empty(),
        "seed 29 draws a cut-off source"
    );
    let path = std::env::temp_dir().join(format!("galois-pfp29-{}.json", std::process::id()));
    manifest.save(&path).unwrap();
    let reloaded = RunManifest::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded, manifest);
    for threads in [1, 2, 4] {
        let out = replay_run(&reloaded, threads, None)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert_eq!(out.fingerprint, manifest.final_fingerprint);
        assert_eq!(out.rounds, 0);
    }
}

fn replica(threads: usize, chaos_seed: Option<u64>) -> ReplicaOptions {
    ReplicaOptions {
        threads: Some(threads),
        chaos_seed,
        ..ReplicaOptions::default()
    }
}

/// The planted divergence: a replica at locality spread 7 deals the task
/// sequence differently, so its schedule legally parts from the recording
/// at a deterministic round.
const PERTURBED_SPREAD: usize = 7;
const PERTURBED_THREADS: usize = 4;

fn perturbed() -> ReplicaOptions {
    ReplicaOptions {
        perturb_spread: Some(PERTURBED_SPREAD),
        ..replica(PERTURBED_THREADS, None)
    }
}

/// Runs the session twice: an in-process report is a function of the
/// manifest and the replica list, except for how far ahead a replica got.
fn lockstep_twice(manifest: &RunManifest, replicas: &[ReplicaOptions]) -> LockstepReport {
    let run = || {
        let mut report = run_local(manifest, replicas).unwrap().report;
        assert!(report.max_buffered <= report.window);
        report.max_buffered = 0;
        report
    };
    let first = run();
    assert_eq!(run(), first, "in-process lockstep reports must repeat");
    first
}

/// Clean lockstep: replicas at different thread counts, two with chaos
/// seeds, all reproduce the recording — agreement, and nothing to log.
#[test]
fn lockstep_replicas_agree_on_clean_runs() {
    let manifest = record_default(App::Mis);
    let replicas = [replica(2, None), replica(7, Some(99)), replica(16, Some(5))];
    let report = lockstep_twice(&manifest, &replicas);
    assert_eq!(report.outcome, LockstepOutcome::Agreed);
    assert!(report.events.is_empty(), "{:?}", report.events);
    assert_eq!(report.survivors, [0, 1, 2]);
    assert_eq!(report.rounds as usize, manifest.round_hashes.len());
    assert_eq!(report.final_fingerprint, manifest.final_fingerprint);
}

/// Two clean replicas and a perturbed one: the strict minority is evicted
/// at exactly the round a solo perturbed replay diverges from the
/// recording, and the survivors still release the recorded result.
#[test]
fn lockstep_evicts_the_minority_at_its_first_divergent_round() {
    let manifest = record_default(App::Bfs);
    let spread = |_, exec: Executor| {
        exec.schedule(Schedule::Deterministic(DetOptions {
            locality_spread: PERTURBED_SPREAD,
            ..Default::default()
        }))
    };
    let (_, solo) = replay_with(&manifest, PERTURBED_THREADS, None, spread, None).unwrap();
    let solo = solo.expect("the perturbed schedule must diverge from the recording");

    let replicas = [replica(2, None), perturbed(), replica(1, None)];
    let report = lockstep_twice(&manifest, &replicas);
    assert_eq!(report.outcome, LockstepOutcome::Diverged);
    assert_eq!(report.survivors, [0, 2]);
    let divergences = report.events_of(LockstepEventKind::Divergence);
    assert_eq!(divergences.len(), 1, "{:?}", report.events);
    let d = divergences[0];
    assert_eq!(
        (d.replica, d.round, d.expected, d.actual),
        (Some(1), solo.round, solo.expected, solo.actual)
    );
    assert_eq!(report.events_of(LockstepEventKind::Eviction).len(), 1);
    assert_eq!(report.rounds as usize, manifest.round_hashes.len());
    assert_eq!(report.final_fingerprint, manifest.final_fingerprint);
}

/// One clean replica against one perturbed: half the vote contradicts the
/// recording, which is a refusal, not an eviction — no result is released.
#[test]
fn lockstep_refuses_when_half_the_replicas_contradict_the_recording() {
    let manifest = record_default(App::Bfs);
    let replicas = [replica(2, None), perturbed()];
    let report = lockstep_twice(&manifest, &replicas);
    assert_eq!(report.outcome, LockstepOutcome::NoQuorum);
    assert!(report.survivors.is_empty());
    assert_eq!(report.final_fingerprint, 0);
    let refusals = report.events_of(LockstepEventKind::Refusal);
    assert_eq!(refusals.len(), 1, "{:?}", report.events);
    assert!(
        refusals[0].detail.contains("1 of 2"),
        "{}",
        refusals[0].detail
    );
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

/// A manifest naming a size above its app's maximum is refused before
/// anything is built, even when its input key is re-derived to match: a
/// build of `u64::MAX` nodes would overflow a capacity instead of replaying.
#[test]
fn oversize_manifest_is_refused_before_building() {
    let mut manifest = record_default(App::Bfs);
    for size in [App::Bfs.max_size() as u64 + 1, u64::MAX] {
        manifest.size = size;
        manifest.input_key = App::Bfs.input_key(size as usize, manifest.input_seed);
        match replay_run(&manifest, 2, None) {
            Err(ReplayError::Mismatch(msg)) => {
                assert!(msg.contains("exceeds bfs's maximum"), "{msg}")
            }
            other => panic!("expected an oversize refusal, got {other:?}"),
        }
    }
}
