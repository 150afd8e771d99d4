//! One vote, two drivers: the same recording with the same planted
//! schedule perturbation must end the same way whether the replicas are
//! threads feeding the machine directly (`harness::run_lockstep`) or wire
//! replicas streaming frames to a [`Coordinator`] over loopback.

use galois_core::manifest::{LockstepEventKind, LockstepOutcome, LockstepReport};
use galois_core::{DetOptions, Executor, Schedule};
use galois_harness::{record_run, run_lockstep, App, InputConfig, LockstepReplica, Variant};
use galois_serve::lockstep::{run_replica, Coordinator, LockstepConfig, ReplicaOptions};

/// The plant both drivers apply to one replica of three.
const SPREAD: usize = 16;
/// Thread budget that marks the perturbed replica for the in-process seam.
const PERTURBED_THREADS: usize = 3;

fn in_process(manifest: &galois_core::RunManifest, budgets: &[usize]) -> LockstepReport {
    let replicas: Vec<LockstepReplica> = budgets
        .iter()
        .map(|&threads| LockstepReplica {
            threads,
            chaos_seed: None,
        })
        .collect();
    let plant = |_: App, _: Variant, threads: usize, _: Option<u64>, exec: Executor| {
        if threads == PERTURBED_THREADS {
            exec.schedule(Schedule::Deterministic(DetOptions {
                locality_spread: SPREAD,
                ..DetOptions::default()
            }))
        } else {
            exec
        }
    };
    run_lockstep(manifest, &replicas, &plant).expect("in-process session")
}

fn over_the_wire(manifest: &galois_core::RunManifest, budgets: &[usize]) -> LockstepReport {
    let config = LockstepConfig {
        replicas: budgets.len(),
        ..LockstepConfig::default()
    };
    let coordinator = Coordinator::bind(manifest.clone(), config, "127.0.0.1:0").expect("bind");
    let addr = coordinator.addr().to_string();
    std::thread::scope(|s| {
        for &threads in budgets {
            let addr = &addr;
            s.spawn(move || {
                let opts = ReplicaOptions {
                    threads: Some(threads),
                    perturb_spread: (threads == PERTURBED_THREADS).then_some(SPREAD),
                    ..ReplicaOptions::default()
                };
                run_replica(addr, opts).expect("replica");
            });
        }
        coordinator.run().expect("wire session").report
    })
}

/// What must not depend on the driver. Wire replica ids follow join order,
/// so the evicted *id* is compared by count, not by value.
fn verdict(report: &LockstepReport) -> (LockstepOutcome, usize, u64, Vec<(u64, u64, u64)>) {
    let divergences = report
        .events_of(LockstepEventKind::Divergence)
        .iter()
        .map(|e| (e.round, e.expected, e.actual))
        .collect();
    (
        report.outcome,
        report.survivors.len(),
        report.rounds,
        divergences,
    )
}

#[test]
fn thread_driver_and_socket_driver_reach_the_same_verdict() {
    let input = InputConfig {
        size: Some(20_000),
        ..InputConfig::default()
    };
    let manifest = record_run(App::Bfs, 2, None, &input).expect("record");

    // Two clean replicas and the planted one: evicted at one exact round.
    let budgets = [1, PERTURBED_THREADS, 2];
    let local = in_process(&manifest, &budgets);
    let wire = over_the_wire(&manifest, &budgets);
    assert_eq!(local.outcome, LockstepOutcome::Diverged);
    assert_eq!(verdict(&local).3.len(), 1, "{:?}", local.events);
    assert_ne!(verdict(&local).3[0].1, verdict(&local).3[0].2);
    assert_eq!(verdict(&local), verdict(&wire));
    assert_eq!(
        (local.output_hash, local.final_fingerprint),
        (wire.output_hash, wire.final_fingerprint)
    );
    assert_eq!(local.final_fingerprint, manifest.final_fingerprint);

    // No plant: both agree with nothing to log.
    let budgets = [1, 2, 4];
    let local = in_process(&manifest, &budgets);
    let wire = over_the_wire(&manifest, &budgets);
    assert_eq!(local.outcome, LockstepOutcome::Agreed);
    assert!(local.events.is_empty() && wire.events.is_empty());
    assert_eq!(verdict(&local), verdict(&wire));
    assert_eq!(local.survivors, wire.survivors);
}
