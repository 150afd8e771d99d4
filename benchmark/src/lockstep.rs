//! The `lockstep` workload: one wire replication session per op.
//!
//! Set-up records a deterministic mis run once (`galois_harness::record_run`).
//! An op then binds a `Coordinator` on a loopback port, joins one replica
//! thread per core at one executor thread each (`run_replica`), and runs the
//! session to its verdict: hundreds of ROUND frames through `serve::wire`,
//! the coordinator's vote in `serve::lockstep`, the manifest codec in the
//! JOB frame, and the harness's replay path inside every replica.

use crate::config::Config;
use crate::runner::{OpOutcome, Workload};
use crate::trace::Tracer;
use galois_core::manifest::{LockstepEventKind, LockstepOutcome};
use galois_core::RunManifest;
use galois_harness::{record_run, replay_run, App, InputConfig};
use galois_serve::lockstep::{Coordinator, LockstepConfig, ReplicaOptions};
use std::time::Instant;

pub struct LockstepWorkload {
    pub manifest: RunManifest,
    pub input: InputConfig,
    replicas: usize,
    /// Tasks one replica commits replaying the recording.
    committed: u64,
}

impl LockstepWorkload {
    pub fn setup(cfg: &Config) -> Result<Self, String> {
        let input = InputConfig {
            seed: cfg.input_seed(200),
            size: Some(cfg.sizes.lockstep_mis),
            ..InputConfig::default()
        };
        let manifest = record_run(App::Mis, 1, None, &input).map_err(|e| format!("record: {e}"))?;
        // A solo replay is the reference every session must agree with.
        let solo = replay_run(&manifest, 1, None).map_err(|e| format!("solo replay: {e}"))?;
        if solo.fingerprint != manifest.final_fingerprint {
            return Err("solo replay does not reproduce the recording".into());
        }
        Ok(LockstepWorkload {
            manifest,
            input,
            replicas: cfg.threads,
            committed: solo.committed,
        })
    }
}

impl Workload for LockstepWorkload {
    fn clients(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, _i: u64, op: u64, tr: &mut Tracer) -> OpOutcome {
        let root = tr.enter("op", "", op, None);
        let config = LockstepConfig {
            replicas: self.replicas,
            threads: vec![1],
            ..LockstepConfig::default()
        };
        let coordinator = match Coordinator::bind(self.manifest.clone(), config, "127.0.0.1:0") {
            Ok(c) => c,
            Err(e) => return OpOutcome::failed(format!("coordinator bind: {e}")),
        };
        let addr = coordinator.addr().to_string();
        let (result, replicas) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.replicas)
                .map(|_| {
                    let addr = &addr;
                    s.spawn(move || {
                        let start = Instant::now();
                        let exit = galois_serve::lockstep::run_replica(
                            addr,
                            ReplicaOptions {
                                threads: Some(1),
                                ..ReplicaOptions::default()
                            },
                        );
                        (exit, start, Instant::now())
                    })
                })
                .collect();
            let span = tr.enter("serve.lockstep.coordinator", "mis", op, root);
            let result = coordinator.run();
            tr.exit(span);
            let replicas: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("replica thread panicked"))
                .collect();
            (result, replicas)
        });
        let mut error = None;
        for (exit, start, end) in replicas {
            tr.record(
                "serve.lockstep.replica",
                "mis",
                op,
                root,
                tr.at(start),
                tr.at(end),
            );
            match exit {
                Ok(0) => {}
                Ok(code) => error = error.or(Some(format!("replica exit code {code}"))),
                Err(e) => error = error.or(Some(format!("replica: {e}"))),
            }
        }
        tr.exit(root);
        let session = match result {
            Ok(session) => session,
            Err(e) => return OpOutcome::failed(format!("coordinator: {e}")),
        };
        let report = &session.report;
        let evictions = report.events_of(LockstepEventKind::Eviction).len();
        tr.count("serve.lockstep.rounds", op, report.rounds as f64);
        tr.count(
            "serve.lockstep.max_buffered",
            op,
            report.max_buffered as f64,
        );
        tr.count("serve.lockstep.evictions", op, evictions as f64);
        // Clean agreement and nothing less: every replica in the vote to
        // the end, no event logged, the recording's own fingerprint.
        if error.is_none()
            && (session.exit_code != 0
                || report.outcome != LockstepOutcome::Agreed
                || !report.events.is_empty()
                || report.survivors.len() != self.replicas
                || report.rounds as usize != self.manifest.round_hashes.len()
                || report.final_fingerprint != self.manifest.final_fingerprint)
        {
            error = Some(format!(
                "session not clean: exit {} outcome {} events {} survivors {} rounds {}",
                session.exit_code,
                report.outcome.name(),
                report.events.len(),
                report.survivors.len(),
                report.rounds
            ));
        }
        match error {
            None => OpOutcome {
                tasks: self.committed * self.replicas as u64,
                error: None,
            },
            Some(reason) => OpOutcome::failed(reason),
        }
    }
}
