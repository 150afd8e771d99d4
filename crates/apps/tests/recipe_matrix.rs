//! [`App::run`] is the one dispatcher over the paper's (app × variant)
//! matrix: every cell an app has runs, is verified by the app's own
//! verifier and is hashed, and the deterministic cells — `g-d` and `pbbs` —
//! hash the same output at any thread count.

use galois_apps::recipe::{Finished, Input};
use galois_apps::{App, Variant};
use galois_core::Hooks;

fn input(app: App) -> Input {
    app.materialize(app.default_size(), 42, 1, None).0
}

fn run(app: App, variant: Variant, threads: usize, input: &Input) -> Finished {
    let exec = app.executor(variant.schedule(), threads);
    match app.run(variant, &exec, input, Hooks::default()) {
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
