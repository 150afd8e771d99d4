//! Hooks are invisible: attaching a probe, a recorder, or both to an app's
//! one hook-taking entry point changes nothing a run is compared by — for
//! every app, at every thread count.

mod common;

use common::assert_portable_over;
use deterministic_galois::apps::recipe::Finished;
use deterministic_galois::core::{Hooks, ManifestRecorder, RoundLog};
use deterministic_galois::harness::{executor_for, load_input, App, InputConfig, Variant};
use deterministic_galois::runtime::fingerprint::RoundChain;

/// What the harness compares runs by: output hash, round-log hash, rounds,
/// committed tasks.
fn signature(done: Finished) -> (u64, u64, u64, u64) {
    let mut chain = RoundChain::new();
    for rec in done.logs.into_iter().flat_map(RoundLog::into_records) {
        chain.push(&rec);
    }
    (
        done.output_hash,
        chain.log_hash(),
        chain.rounds(),
        done.stats.committed,
    )
}

#[test]
fn hooks_are_invisible_for_every_app() {
    // (probe attached, recorder attached)
    let slots = [(false, false), (true, false), (false, true), (true, true)];
    for app in App::ALL {
        let (input, _) = load_input(app, &InputConfig::default());
        let sigs: Vec<_> = slots
            .iter()
            .flat_map(|&(probed, recorded)| {
                let label = format!("{app} (probe: {probed}, recorder: {recorded})");
                assert_portable_over(&label, &[1, 2], |threads| {
                    let exec = executor_for(app, Variant::Deterministic, threads, None);
                    let mut probe = RoundLog::new();
                    let mut recorder = ManifestRecorder::new();
                    let hooks = Hooks {
                        probe: probed.then_some(&mut probe),
                        recorder: recorded.then_some(&mut recorder),
                    };
                    let done = app.run(Variant::Deterministic, &exec, &input, hooks);
                    let sig = signature(done.unwrap().unwrap());
                    // An attached hook saw every round; a detached one none.
                    let rounds = sig.2;
                    assert_eq!(probe.len() as u64, if probed { rounds } else { 0 });
                    assert_eq!(recorder.rounds(), if recorded { rounds } else { 0 });
                    sig
                })
            })
            .collect();
        assert!(
            sigs.windows(2).all(|w| w[0] == w[1]),
            "{app}: attaching hooks changed the run: {sigs:?}"
        );
    }
}
