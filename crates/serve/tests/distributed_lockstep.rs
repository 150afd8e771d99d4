//! Cross-process divergence-and-failover battery for distributed lockstep
//! replication (`galois_serve::lockstep`).
//!
//! Replicas here are *real* `galois replicate` subprocesses, run against
//! an in-process [`Coordinator`] (so the test inspects the report object
//! directly) or through the `galois lockstep --spawn` CLI (so the
//! exit-code contract is proven at the process boundary), and scripted
//! wire peers: test-owned sockets that speak the frames of
//! `galois_serve::wire` in an order the test fixes. No scenario waits on a
//! clock:
//!
//! - clean N-process agreement is byte-identical to a local run at mixed
//!   thread budgets;
//! - a perturbed replica is caught at an exact first divergent round,
//!   stable across repeats;
//! - a replica whose connection closes mid-stream (all a SIGKILL shows the
//!   coordinator) degrades the session to the remaining quorum, whose
//!   result still matches the serial oracle;
//! - a doctored *majority* makes the coordinator refuse (exit 14) rather
//!   than vote against the recording;
//! - a silent replica cannot balloon coordinator memory past the window.

use galois_core::manifest::{LockstepEventKind, LockstepOutcome, LockstepReport};
use galois_core::RunManifest;
use galois_harness::subprocess::{galois_bin, spawn_replica, ReplicaSpec};
use galois_harness::{record_run, run_app, unperturbed, App, InputConfig, Variant};
use galois_serve::lockstep::{Coordinator, LockstepConfig, EXIT_DIVERGENCE, EXIT_NO_QUORUM};
use galois_serve::wire::{self, Frame, WIRE_VERSION};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::Duration;

/// A directory of the calling test's own: tests run in parallel, and each
/// removes its directory when it ends.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "galois-lockstep-test-{}-{test}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records the default bfs run (the battery's reference workload) once per
/// call — recording is itself deterministic, so every call agrees.
fn record_bfs() -> RunManifest {
    record_run(App::Bfs, 2, None, &InputConfig::from_seed(42)).expect("record bfs")
}

/// Persists a scenario's report where CI can pick it up as an artifact.
fn persist_report(name: &str, report: &LockstepReport) {
    let Ok(dir) = std::env::var("GALOIS_LOCKSTEP_REPORT_DIR") else {
        return;
    };
    std::fs::create_dir_all(&dir).ok();
    report
        .save(&Path::new(&dir).join(format!("{name}.json")))
        .ok();
}

/// Spawns one real replica subprocess per spec against `addr`.
fn spawn_replicas(addr: SocketAddr, specs: &[ReplicaSpec]) -> Vec<Child> {
    let (bin, addr) = (galois_bin(), addr.to_string());
    specs
        .iter()
        .map(|spec| spawn_replica(&bin, &addr, spec).expect("spawn replica"))
        .collect()
}

/// Kills what is left of `children` and reaps them.
fn reap(children: Vec<Child>) {
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Binds an in-process coordinator, spawns `specs.len()` real replica
/// subprocesses against it, and runs the session to completion. Children
/// are reaped on every path.
fn run_session(
    manifest: RunManifest,
    config: LockstepConfig,
    specs: &[ReplicaSpec],
) -> galois_serve::lockstep::LockstepRunResult {
    let coordinator = Coordinator::bind(manifest, config, "127.0.0.1:0").expect("bind");
    let children = spawn_replicas(coordinator.addr(), specs);
    let result = coordinator.run();
    reap(children);
    result.expect("coordinator run")
}

/// A scripted wire peer: a test-owned socket that has sent its `HELLO` and
/// read its `JOB`, and sends the recording's own frames when the test says.
struct Peer {
    stream: TcpStream,
    id: u64,
}

impl Peer {
    /// Joins the coordinator at `addr`; on return it has admitted this peer
    /// under `id`.
    fn join(addr: SocketAddr) -> Peer {
        let mut stream = TcpStream::connect(addr).expect("peer connects");
        stream
            .set_read_timeout(Some(galois_serve::http::READ_TIMEOUT))
            .unwrap();
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        };
        wire::write_frame(&mut stream, &hello).expect("HELLO");
        match wire::read_frame(&mut stream, Duration::from_secs(60)) {
            Ok(Frame::Job { replica, .. }) => Peer {
                stream,
                id: replica as u64,
            },
            other => panic!("expected JOB, got {other:?}"),
        }
    }

    /// Sends the recorded hashes of `rounds` as `ROUND` frames.
    fn rounds(&mut self, manifest: &RunManifest, rounds: Range<usize>) {
        for seq in rounds {
            let hash = manifest.round_hashes[seq];
            let round = Frame::Round {
                seq: seq as u64,
                hash,
            };
            wire::write_frame(&mut self.stream, &round).expect("ROUND");
        }
    }

    /// Sends the whole recorded chain, then a `DONE` carrying the
    /// recording's result.
    fn replay(&mut self, manifest: &RunManifest, output_hash: u64) {
        self.rounds(manifest, 0..manifest.round_hashes.len());
        let done = Frame::Done {
            rounds: manifest.round_hashes.len() as u64,
            output_hash,
            fingerprint: manifest.final_fingerprint,
        };
        wire::write_frame(&mut self.stream, &done).expect("DONE");
    }
}

/// The serial oracle's output hash for the battery's workload.
fn oracle_output_hash() -> u64 {
    let input = InputConfig::from_seed(42);
    let (oracle, _) =
        run_app(App::Bfs, Variant::Serial, 1, None, &input, &unperturbed).expect("oracle");
    oracle.output_hash
}

/// Runs the `galois lockstep --spawn` CLI against `manifest_path` and
/// returns `(exit_code, report)`.
fn run_cli(manifest_path: &Path, report_path: &Path, extra: &[&str]) -> (i32, LockstepReport) {
    let out = std::process::Command::new(galois_bin())
        .arg("lockstep")
        .arg(manifest_path)
        .args(["--replicas", "3", "--spawn", "--report"])
        .arg(report_path)
        .args(extra)
        .output()
        .expect("run galois lockstep");
    let code = out.status.code().unwrap_or_else(|| {
        panic!(
            "lockstep CLI killed by signal; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let report = LockstepReport::load(report_path).unwrap_or_else(|e| {
        panic!(
            "report unreadable ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (code, report)
}

/// Clean agreement: at 2 and 3 replicas, with *different* thread budgets
/// per replica, every process reproduces the recorded chain and the
/// settled result is byte-identical to a local deterministic run.
#[test]
fn clean_agreement_is_byte_identical_to_local_run_at_mixed_budgets() {
    let manifest = record_bfs();
    let input = InputConfig::from_seed(42);
    let (local, _) = run_app(
        App::Bfs,
        Variant::Deterministic,
        4,
        None,
        &input,
        &unperturbed,
    )
    .expect("local");
    assert_eq!(local.fingerprint, manifest.final_fingerprint);

    for replicas in [2usize, 3] {
        let specs: Vec<ReplicaSpec> = (0..replicas)
            .map(|i| ReplicaSpec {
                threads: [1, 4][i % 2],
                ..ReplicaSpec::default()
            })
            .collect();
        let result = run_session(
            manifest.clone(),
            LockstepConfig {
                replicas,
                ..LockstepConfig::default()
            },
            &specs,
        );
        persist_report(&format!("clean-{replicas}"), &result.report);
        assert_eq!(result.exit_code, 0, "events: {:?}", result.report.events);
        assert_eq!(result.report.outcome, LockstepOutcome::Agreed);
        assert!(
            result.report.events.is_empty(),
            "{:?}",
            result.report.events
        );
        assert_eq!(
            result.report.survivors,
            (0..replicas as u64).collect::<Vec<_>>()
        );
        assert_eq!(result.report.rounds as usize, manifest.round_hashes.len());
        assert_eq!(result.report.final_fingerprint, local.fingerprint);
        assert_eq!(result.report.output_hash, local.output_hash);
    }
}

/// The coordinator's report and the emitted manifest survive the process
/// boundary: the CLI's `--emit-manifest` copy is byte-identical to the
/// recording, and the saved report round-trips through its JSON form.
#[test]
fn cli_clean_run_emits_byte_identical_manifest_and_report() {
    let dir = scratch_dir("clean");
    let manifest_path = dir.join("clean.manifest.json");
    let emitted_path = dir.join("clean.emitted.json");
    let report_path = dir.join("clean.report.json");
    record_bfs().save(&manifest_path).unwrap();

    let (code, report) = run_cli(
        &manifest_path,
        &report_path,
        &["--emit-manifest", emitted_path.to_str().unwrap()],
    );
    persist_report("cli-clean", &report);
    assert_eq!(code, 0, "events: {:?}", report.events);
    assert_eq!(report.outcome, LockstepOutcome::Agreed);
    let recorded = std::fs::read(&manifest_path).unwrap();
    let emitted = std::fs::read(&emitted_path).unwrap();
    assert_eq!(recorded, emitted, "emitted manifest must be byte-identical");
    let reloaded = LockstepReport::load(&report_path).unwrap();
    assert_eq!(reloaded, report);
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica with a planted schedule perturbation is detected at an exact
/// first divergent round — and because detection is itself deterministic,
/// that round is identical across repeated sessions.
#[test]
fn planted_divergence_is_pinned_to_a_stable_first_round() {
    let dir = scratch_dir("div");
    let manifest_path = dir.join("div.manifest.json");
    let report_path = dir.join("div.report.json");
    record_bfs().save(&manifest_path).unwrap();

    let repeats = if cfg!(debug_assertions) { 3 } else { 10 };
    let mut first_round: Option<u64> = None;
    for rep in 0..repeats {
        let (code, report) = run_cli(&manifest_path, &report_path, &["--perturb", "2:16"]);
        if rep == 0 {
            persist_report("divergence", &report);
        }
        assert_eq!(code, EXIT_DIVERGENCE, "repeat {rep}: {:?}", report.events);
        assert_eq!(report.outcome, LockstepOutcome::Diverged);
        // Coordinator ids follow join order, which races across spawned
        // children — the *count* and the divergent round are what's
        // deterministic, not which id the perturbed child landed on.
        assert_eq!(report.survivors.len(), 2);
        let divergences = report.events_of(LockstepEventKind::Divergence);
        assert_eq!(divergences.len(), 1, "repeat {rep}: {:?}", report.events);
        let evicted = divergences[0].replica.expect("divergence names a replica");
        assert!(!report.survivors.contains(&evicted));
        assert_ne!(divergences[0].expected, divergences[0].actual);
        assert_eq!(report.events_of(LockstepEventKind::Eviction).len(), 1);
        match first_round {
            None => first_round = Some(divergences[0].round),
            Some(r) => assert_eq!(
                divergences[0].round, r,
                "first divergent round drifted on repeat {rep}"
            ),
        }
        // The survivors still reproduced the recording in full.
        assert_eq!(report.rounds as usize, record_bfs().round_hashes.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One of three replicas dies mid-stream: the session degrades to the
/// remaining quorum with a structured death event, and the survivors'
/// result still matches the serial oracle. The dying replica is a scripted
/// peer that joins first, sends the first half of the recorded rounds and
/// closes its socket — all a SIGKILL shows the coordinator — so the death
/// lands mid-stream by construction, not by a timer.
#[test]
fn killed_replica_degrades_to_quorum_matching_serial_oracle() {
    let manifest = record_bfs();
    let oracle = oracle_output_hash();
    let coordinator = Coordinator::bind(
        manifest.clone(),
        LockstepConfig {
            replicas: 3,
            ..LockstepConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = coordinator.addr();
    let (result, dead_peer) = std::thread::scope(|s| {
        let session = s.spawn(move || coordinator.run());
        let mut peer = Peer::join(addr);
        peer.rounds(&manifest, 0..manifest.round_hashes.len() / 2);
        let dead_peer = peer.id;
        drop(peer);
        let children = spawn_replicas(addr, &[ReplicaSpec::default(), ReplicaSpec::default()]);
        let result = session.join().expect("coordinator thread");
        reap(children);
        (result.expect("coordinator run"), dead_peer)
    });
    persist_report("killed", &result.report);
    assert_eq!(result.exit_code, 0, "events: {:?}", result.report.events);
    assert_eq!(result.report.outcome, LockstepOutcome::Agreed);
    assert_eq!(result.report.survivors.len(), 2);
    let deaths = result.report.events_of(LockstepEventKind::Death);
    assert_eq!(deaths.len(), 1, "{:?}", result.report.events);
    let dead = deaths[0].replica.expect("death names a replica");
    assert_eq!(dead, dead_peer);
    assert!(!result.report.survivors.contains(&dead));
    assert_eq!(result.report.output_hash, oracle);
    assert_eq!(result.report.final_fingerprint, manifest.final_fingerprint);
}

/// Two of three replicas doctored the same way: the "majority" agrees with
/// itself but contradicts the recording. The coordinator must refuse with
/// exit 14 — never vote a wrong majority over the reference chain.
#[test]
fn doctored_majority_is_refused_not_voted() {
    let dir = scratch_dir("refuse");
    let manifest_path = dir.join("refuse.manifest.json");
    let report_path = dir.join("refuse.report.json");
    record_bfs().save(&manifest_path).unwrap();

    let (code, report) = run_cli(
        &manifest_path,
        &report_path,
        &["--perturb", "0:16", "--perturb", "2:16"],
    );
    persist_report("refused", &report);
    assert_eq!(code, EXIT_NO_QUORUM, "events: {:?}", report.events);
    assert_eq!(report.outcome, LockstepOutcome::NoQuorum);
    assert!(report.survivors.is_empty());
    assert_eq!(report.output_hash, 0);
    assert_eq!(report.final_fingerprint, 0);
    let refusals = report.events_of(LockstepEventKind::Refusal);
    assert_eq!(refusals.len(), 1, "{:?}", report.events);
    assert!(
        refusals[0].detail.contains("2 of 3"),
        "{}",
        refusals[0].detail
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A slow replica back-pressures a fast one instead of growing the
/// coordinator's buffers: no pending queue ever exceeds the window. Two
/// scripted peers make the order exact: one stays silent while the other
/// writes its whole chain and `DONE`, which the coordinator may take only
/// `window` rounds of; only then does the silent peer send its frames.
#[test]
fn slow_replica_is_window_bounded() {
    let manifest = record_bfs();
    let output_hash = oracle_output_hash();
    let window = 2;
    let coordinator = Coordinator::bind(
        manifest.clone(),
        LockstepConfig {
            replicas: 2,
            window,
            ..LockstepConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = coordinator.addr();
    let result = std::thread::scope(|s| {
        let session = s.spawn(move || coordinator.run());
        let mut slow = Peer::join(addr);
        let mut fast = Peer::join(addr);
        fast.replay(&manifest, output_hash);
        slow.replay(&manifest, output_hash);
        session.join().expect("coordinator thread")
    })
    .expect("coordinator run");
    persist_report("windowed", &result.report);
    assert_eq!(result.exit_code, 0, "events: {:?}", result.report.events);
    assert_eq!(result.report.outcome, LockstepOutcome::Agreed);
    assert_eq!(result.report.window, window as u64);
    assert!(
        result.report.max_buffered <= window as u64,
        "buffered {} hashes past the window",
        result.report.max_buffered
    );
    // The window slowed settling but lost nothing.
    assert_eq!(result.report.rounds as usize, manifest.round_hashes.len());
}
