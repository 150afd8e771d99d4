//! [`App::run`] is the one dispatcher over the paper's (app × variant)
//! matrix: every cell an app has runs, is verified by the app's own
//! verifier and is hashed, and the deterministic cells — `g-d` and `pbbs` —
//! hash the same output at any thread count. Inputs are immutable values:
//! runs sharing one never wait for or see each other.

use galois_apps::recipe::{Finished, Input};
use galois_apps::{dmr, dt, mis, mm, App, Variant};
use galois_core::{Hooks, Probe, RoundLog, RoundRecord};
use galois_runtime::simtime::ExecTrace;
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

/// [`run`] with the executor's trace on: the run and the rounds it traced.
fn run_traced(app: App, variant: Variant, threads: usize, input: &Input) -> (Finished, RoundLog) {
    let exec = app.executor(variant.schedule(), threads).record_trace(true);
    let mut done = app
        .run(variant, &exec, input, Hooks::default())
        .unwrap()
        .unwrap();
    let Some(ExecTrace::Rounds(log)) = done.trace.take() else {
        panic!("{app}/{}: a traced run reports its rounds", variant.label());
    };
    (done, log)
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

/// The apps with a pbbs variant.
fn pbbs_apps() -> impl Iterator<Item = App> {
    App::ALL
        .into_iter()
        .filter(|app| app.check_variant(Variant::Pbbs).is_ok())
}

#[test]
fn pbbs_round_counts_do_not_depend_on_the_thread_count() {
    let apps: Vec<App> = pbbs_apps().collect();
    assert_eq!(apps, [App::Bfs, App::Mis, App::Mm, App::Dt, App::Dmr]);
    for app in apps {
        let input = input(app);
        let rounds: Vec<u64> = [1, 2, 3]
            .map(|t| run(app, Variant::Pbbs, t, &input).stats.rounds)
            .into();
        assert!(rounds[0] > 1, "{app}: {rounds:?}");
        assert_eq!(
            rounds, [rounds[0]; 3],
            "{app} pbbs rounds at 1, 2, 3 threads"
        );
        // The rounds themselves, not only their count.
        let [one, three] = [1, 3].map(|t| run_traced(app, Variant::Pbbs, t, &input).1);
        assert_eq!(
            one.canonical_jsonl(),
            three.canonical_jsonl(),
            "{app} pbbs rounds at 1 and 3 threads"
        );
    }
}

#[test]
fn pbbs_counters_do_not_depend_on_the_thread_count() {
    for app in pbbs_apps() {
        let input = input(app);
        let cells: Vec<_> = [1, 2, 3]
            .map(|t| {
                let done = run(app, Variant::Pbbs, t, &input);
                let s = done.stats;
                (
                    s.committed,
                    s.aborted,
                    s.atomic_updates,
                    s.rounds,
                    done.output_hash,
                )
            })
            .into();
        // bfs is level-synchronous: it has no reservations to lose.
        if app != App::Bfs {
            assert!(cells[0].1 > 0, "{app} pbbs never retried: {cells:?}");
        }
        assert_eq!(cells, [cells[0]; 3], "{app} pbbs at 1, 2, 3 threads");
    }
}

/// Figure 5's atomics column means one thing for every reservations app:
/// the priority writes of its reserve phases.
#[test]
fn pbbs_atomic_updates_are_priority_writes() {
    for app in [App::Mis, App::Mm, App::Dt, App::Dmr] {
        let input = input(app);
        let writes = match &input {
            Input::Graph(g) if app == App::Mis => mis::pbbs(g, 2, false).1.priority_writes,
            Input::Graph(g) => mm::pbbs(g, 2, false).1.priority_writes,
            Input::Points { pts, seed } => dt::pbbs(pts, *seed, 2, false).1.priority_writes,
            Input::MeshSpec { n, seed } => {
                dmr::pbbs(&dmr::make_input(*n, *seed), 2, false).priority_writes
            }
            Input::Flow(_) => unreachable!("pfp has no pbbs variant"),
        };
        let done = run(app, Variant::Pbbs, 2, &input);
        assert_eq!(done.stats.atomic_updates, writes, "{app}");
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
fn traced_runs_report_one_record_per_round() {
    let (done, rounds) = run_traced(App::Mis, Variant::Pbbs, 2, &input(App::Mis));
    assert_eq!(done.stats.threads, 2);
    assert_eq!(rounds.len() as u64, done.stats.rounds);
    // pfp's bouts join into one trace, numbered like one run's rounds.
    let (done, rounds) = run_traced(App::Pfp, Variant::Deterministic, 2, &input(App::Pfp));
    assert!(done.stats.rounds > 0);
    assert_eq!(rounds.len() as u64, done.stats.rounds);
    let numbers: Vec<u64> = rounds.records().iter().map(|r| r.round).collect();
    assert_eq!(numbers, (0..done.stats.rounds).collect::<Vec<_>>());
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
