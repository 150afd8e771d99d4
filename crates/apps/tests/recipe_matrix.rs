//! [`App::run`] is the one dispatcher over the paper's (app × variant)
//! matrix: every cell an app has runs, is verified by the app's own
//! verifier and is hashed, and the deterministic cells — `g-d` and `pbbs` —
//! hash the same output at any thread count. Inputs are immutable values:
//! runs sharing one never wait for or see each other.

use galois_apps::recipe::{Finished, Input};
use galois_apps::{App, Variant};
use galois_core::{Hooks, Probe, RoundRecord};
use std::sync::mpsc::{channel, Receiver, Sender};

fn input(app: App) -> Input {
    app.materialize(app.default_size(), 42, 1, None).0
}

fn run(app: App, variant: Variant, threads: usize, input: &Input) -> Finished {
    run_hooked(app, variant, threads, input, Hooks::default())
}

fn run_hooked(
    app: App,
    variant: Variant,
    threads: usize,
    input: &Input,
    hooks: Hooks<'_>,
) -> Finished {
    let exec = app.executor(variant.schedule(), threads);
    match app.run(variant, &exec, input, hooks) {
        Ok(Ok(done)) => done,
        Ok(Err(fault)) => panic!("{app}/{}: {fault}", variant.label()),
        Err(invalid) => panic!("{}: {invalid}", variant.label()),
    }
}

#[test]
fn every_cell_runs_verified_and_pfp_has_no_pbbs() {
    for app in App::ALL {
        let input = input(app);
        for variant in Variant::ALL {
            if let Err(why) = app.check_variant(variant) {
                assert_eq!((app, variant), (App::Pfp, Variant::Pbbs));
                let exec = app.executor(variant.schedule(), 1);
                let refused = app.run(variant, &exec, &input, Hooks::default());
                assert_eq!(refused.err(), Some(why));
                continue;
            }
            let done = run(app, variant, 2, &input);
            assert!(
                done.stats.committed > 0,
                "{app}/{variant} committed nothing"
            );
        }
    }
}

#[test]
fn deterministic_cells_hash_the_same_output_at_1_and_3_threads() {
    for app in App::ALL {
        let input = input(app);
        for variant in [Variant::Deterministic, Variant::Pbbs] {
            if app.check_variant(variant).is_err() {
                continue;
            }
            let one = run(app, variant, 1, &input);
            let three = run(app, variant, 3, &input);
            assert_eq!(
                one.output_hash,
                three.output_hash,
                "{app}/{} output moved with the thread count",
                variant.label()
            );
        }
    }
}

/// Parks its run inside the first round: says so on `parked`, then waits
/// for `release`.
struct Park {
    parked: Sender<()>,
    release: Receiver<()>,
    first: bool,
}

impl Probe for Park {
    fn on_round(&mut self, _: RoundRecord) {
        if std::mem::take(&mut self.first) {
            self.parked.send(()).unwrap();
            self.release.recv().unwrap();
        }
    }
}

#[test]
fn a_pfp_run_parked_mid_run_does_not_block_another_on_the_same_network() {
    let input = input(App::Pfp);
    let reference = run(App::Pfp, Variant::Deterministic, 1, &input).output_hash;
    let (parked_tx, parked) = channel();
    let (release, release_rx) = channel();
    let shared = input.clone();
    let a = std::thread::spawn(move || {
        let mut park = Park {
            parked: parked_tx,
            release: release_rx,
            first: true,
        };
        let hooks = Hooks {
            probe: Some(&mut park),
            recorder: None,
        };
        run_hooked(App::Pfp, Variant::Deterministic, 2, &shared, hooks).output_hash
    });
    // An Err here means A ended without reaching a round.
    parked.recv().expect("run A parks in its first round");
    let b = run(App::Pfp, Variant::Deterministic, 2, &input);
    assert_eq!(b.output_hash, reference, "run B beside a parked run A");
    release.send(()).unwrap();
    assert_eq!(a.join().unwrap(), reference, "run A after run B");
}

#[test]
fn pbbs_reports_round_traces_when_the_executor_records_them() {
    let input = input(App::Mis);
    let exec = App::Mis
        .executor(Variant::Pbbs.schedule(), 2)
        .record_trace(true);
    let done = App::Mis
        .run(Variant::Pbbs, &exec, &input, Hooks::default())
        .unwrap()
        .unwrap();
    assert_eq!(done.stats.threads, 2);
    let Some(galois_runtime::simtime::ExecTrace::Rounds(rounds)) = done.trace else {
        panic!("a traced pbbs run reports its rounds");
    };
    assert_eq!(rounds.len() as u64, done.stats.rounds);
}

#[test]
fn variants_parse_from_the_wire_name_and_the_paper_label() {
    let spellings = [
        ("serial", "seq"),
        ("speculative", "g-n"),
        ("deterministic", "g-d"),
        ("pbbs", "pbbs"),
    ];
    for (v, (name, label)) in Variant::ALL.into_iter().zip(spellings) {
        assert_eq!((v.name(), v.label()), (name, label));
        assert_eq!(Variant::from_name(name), Some(v));
        assert_eq!(Variant::from_name(label), Some(v));
    }
    assert_eq!(Variant::from_name("hi_pr"), None);
}
