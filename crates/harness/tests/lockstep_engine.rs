//! Scenario table for the lockstep vote ([`galois_harness::lockstep`]).
//!
//! The machine is plain data, so every replication verdict the subprocess
//! battery proves with real sockets and a kill timer is checked here from
//! a scripted event order on one thread: no socket, sleep or subprocess,
//! and the same script always yields the same report.

use galois_core::manifest::{
    ExecConfig, LockstepEventKind as Kind, LockstepOutcome as Outcome, RunManifest,
    MANIFEST_VERSION,
};
use galois_core::Executor;
use galois_harness::lockstep::{exit_code, Action, Lockstep, Offer};

/// The recorded chain every scenario votes against.
const CHAIN: [u64; 3] = [0x11, 0x22, 0x33];
const FINGERPRINT: u64 = 0xf1f1;
const OUTPUT: u64 = 0x0a0a;

fn recording() -> RunManifest {
    RunManifest {
        version: MANIFEST_VERSION,
        app: "bfs".into(),
        input_key: "uniform-n2000-d5-s42".into(),
        input_seed: 42,
        size: 0,
        exec: ExecConfig::from_executor(&Executor::new()),
        round_hashes: CHAIN.to_vec(),
        final_fingerprint: FINGERPRINT,
    }
}

/// One scripted event, with what `offer` must answer where it matters.
#[derive(Debug, Clone)]
enum Ev {
    Offer(usize, u64, u64, Offer),
    Done(usize, u64, u64),
    Lost(usize, Kind),
}

/// Replica `i` offers recorded round `seq` and it is buffered.
fn ok(i: usize, seq: u64) -> Ev {
    Ev::Offer(i, seq, CHAIN[seq as usize], Offer::Taken)
}

/// Replica `i` offers `hash` for round `seq` and it is buffered.
fn claim(i: usize, seq: u64, hash: u64) -> Ev {
    Ev::Offer(i, seq, hash, Offer::Taken)
}

/// Replica `i` finishes after the whole recorded chain with its result.
fn done(i: usize) -> Ev {
    Ev::Done(i, CHAIN.len() as u64, FINGERPRINT)
}

/// Rounds `0..rounds` of the recording from every replica in `ids`,
/// interleaved round by round.
fn lockstep_rounds(ids: &[usize], rounds: u64) -> Vec<Ev> {
    (0..rounds)
        .flat_map(|seq| ids.iter().map(move |&i| ok(i, seq)))
        .collect()
}

/// `(kind, round, replica, expected, actual)` of one logged event.
type Logged = (Kind, u64, Option<u64>, u64, u64);

struct Scenario {
    name: &'static str,
    replicas: usize,
    window: usize,
    script: Vec<Ev>,
    outcome: Outcome,
    survivors: &'static [u64],
    /// Rounds settled against the recording when the verdict fell.
    rounds: u64,
    events: Vec<Logged>,
    /// `(replica, round)` of every `Action::Evict`, in order.
    evictions: &'static [(usize, u64)],
    /// A substring the last event's detail must carry.
    detail: &'static str,
}

fn scenarios() -> Vec<Scenario> {
    let divergence = |round, replica, expected, actual| {
        [
            (Kind::Divergence, round, Some(replica), expected, actual),
            (Kind::Eviction, round, Some(replica), 0, 0),
        ]
    };
    vec![
        Scenario {
            name: "clean agreement",
            replicas: 3,
            window: 64,
            script: [
                lockstep_rounds(&[0, 1, 2], 3),
                vec![done(0), done(1), done(2)],
            ]
            .concat(),
            outcome: Outcome::Agreed,
            survivors: &[0, 1, 2],
            rounds: 3,
            events: vec![],
            evictions: &[],
            detail: "",
        },
        Scenario {
            name: "strict minority evicted at the exact round",
            replicas: 3,
            window: 64,
            script: [
                lockstep_rounds(&[0, 1, 2], 1),
                vec![
                    ok(0, 1),
                    claim(2, 1, 0x99),
                    ok(1, 1),
                    ok(0, 2),
                    ok(1, 2),
                    done(0),
                    done(1),
                ],
            ]
            .concat(),
            outcome: Outcome::Diverged,
            survivors: &[0, 1],
            rounds: 3,
            events: divergence(1, 2, CHAIN[1], 0x99).to_vec(),
            evictions: &[(2, 1)],
            detail: "replica 2 evicted",
        },
        Scenario {
            name: "1 of 2 contradicting is a refusal",
            replicas: 2,
            window: 64,
            script: vec![ok(0, 0), claim(1, 0, 0x99)],
            outcome: Outcome::NoQuorum,
            survivors: &[],
            rounds: 0,
            events: vec![(Kind::Refusal, 0, None, 0, 0)],
            evictions: &[],
            detail: "1 of 2",
        },
        Scenario {
            name: "2 of 3 contradicting is a refusal, even when they agree with each other",
            replicas: 3,
            window: 64,
            script: [
                lockstep_rounds(&[0, 1, 2], 2),
                vec![claim(0, 2, 0x99), ok(1, 2), claim(2, 2, 0x99)],
            ]
            .concat(),
            outcome: Outcome::NoQuorum,
            survivors: &[],
            rounds: 2,
            events: vec![(Kind::Refusal, 2, None, 0, 0)],
            evictions: &[],
            detail: "2 of 3",
        },
        Scenario {
            name: "running past the recorded chain",
            replicas: 3,
            window: 64,
            script: [
                lockstep_rounds(&[0, 1, 2], 3),
                vec![claim(2, 3, 0x44), done(0), done(1)],
            ]
            .concat(),
            outcome: Outcome::Diverged,
            survivors: &[0, 1],
            rounds: 3,
            events: divergence(3, 2, 0, 0x44).to_vec(),
            evictions: &[(2, 3)],
            detail: "replica 2 evicted",
        },
        Scenario {
            name: "chain shorter than the recording",
            replicas: 3,
            window: 64,
            script: [
                lockstep_rounds(&[0, 1, 2], 2),
                vec![
                    Ev::Done(2, 2, FINGERPRINT),
                    ok(0, 2),
                    ok(1, 2),
                    done(0),
                    done(1),
                ],
            ]
            .concat(),
            outcome: Outcome::Diverged,
            survivors: &[0, 1],
            rounds: 3,
            events: divergence(2, 2, CHAIN[2], 0).to_vec(),
            evictions: &[(2, 2)],
            detail: "replica 2 evicted",
        },
        Scenario {
            name: "out-of-order seq is a death, and the quorum carries on",
            replicas: 3,
            window: 64,
            script: [
                vec![Ev::Offer(2, 1, CHAIN[1], Offer::Dropped)],
                lockstep_rounds(&[0, 1], 3),
                vec![done(0), done(1)],
            ]
            .concat(),
            outcome: Outcome::Agreed,
            survivors: &[0, 1],
            rounds: 3,
            events: vec![(Kind::Death, 0, Some(2), 0, 0)],
            evictions: &[],
            detail: "sent round 1, expected 0",
        },
        Scenario {
            name: "losses below quorum are a refusal",
            replicas: 3,
            window: 64,
            script: [
                lockstep_rounds(&[0, 1, 2], 1),
                vec![Ev::Lost(1, Kind::Death), Ev::Lost(2, Kind::Timeout)],
            ]
            .concat(),
            outcome: Outcome::NoQuorum,
            survivors: &[],
            rounds: 1,
            events: vec![
                (Kind::Death, 1, Some(1), 0, 0),
                (Kind::Timeout, 1, Some(2), 0, 0),
                (Kind::Refusal, 1, None, 0, 0),
            ],
            evictions: &[],
            detail: "quorum lost: 1 of 3",
        },
        Scenario {
            name: "an offer beyond the window is reported full and consumes nothing",
            replicas: 2,
            window: 2,
            script: vec![
                ok(0, 0),
                ok(0, 1),
                Ev::Offer(0, 2, CHAIN[2], Offer::Full),
                Ev::Offer(0, 2, CHAIN[2], Offer::Full),
                ok(1, 0),
                ok(0, 2),
                ok(1, 1),
                ok(1, 2),
                done(0),
                done(1),
            ],
            outcome: Outcome::Agreed,
            survivors: &[0, 1],
            rounds: 3,
            events: vec![],
            evictions: &[],
            detail: "",
        },
        Scenario {
            name: "a final fingerprint the recording contradicts is evicted",
            replicas: 3,
            window: 64,
            script: [
                lockstep_rounds(&[0, 1, 2], 3),
                vec![done(0), Ev::Done(1, 3, 0xbad), done(2)],
            ]
            .concat(),
            outcome: Outcome::Diverged,
            survivors: &[0, 2],
            rounds: 3,
            events: divergence(3, 1, FINGERPRINT, 0xbad).to_vec(),
            evictions: &[(1, 3)],
            detail: "replica 1 evicted",
        },
    ]
}

#[test]
fn scripted_sessions_reach_the_scripted_verdict() {
    for sc in scenarios() {
        let name = sc.name;
        let mut vote = Lockstep::new(&recording(), sc.replicas, sc.window);
        let mut actions = Vec::new();
        for ev in &sc.script {
            assert_eq!(vote.verdict(), None, "{name}: verdict before {ev:?}");
            match *ev {
                Ev::Offer(i, seq, hash, want) => {
                    assert_eq!(vote.offer(i, seq, hash), want, "{name}: {ev:?}")
                }
                Ev::Done(i, rounds, fingerprint) => vote.done(i, rounds, OUTPUT, fingerprint),
                Ev::Lost(i, kind) => vote.lost(i, kind, format!("replica {i} gone")),
            }
            actions.extend(vote.advance());
        }

        assert_eq!(vote.verdict(), Some(sc.outcome), "{name}");
        assert_eq!(
            actions.last(),
            Some(&Action::Verdict(sc.outcome)),
            "{name}: the verdict is the last action"
        );
        let evictions: Vec<(usize, u64)> = actions
            .iter()
            .filter_map(|a| match *a {
                Action::Evict { replica, round } => Some((replica, round)),
                Action::Verdict(_) => None,
            })
            .collect();
        assert_eq!(evictions, sc.evictions, "{name}");
        assert_eq!(actions.len(), evictions.len() + 1, "{name}: one verdict");

        let report = vote.report();
        assert_eq!(report.outcome, sc.outcome, "{name}");
        assert_eq!(report.survivors, sc.survivors, "{name}");
        assert_eq!(report.rounds, sc.rounds, "{name}");
        assert_eq!(report.replicas as usize, sc.replicas, "{name}");
        assert_eq!(report.window as usize, sc.window, "{name}");
        assert!(report.max_buffered <= report.window, "{name}");
        let logged: Vec<Logged> = report
            .events
            .iter()
            .map(|e| (e.kind, e.round, e.replica, e.expected, e.actual))
            .collect();
        assert_eq!(logged, sc.events, "{name}");
        if let Some(last) = report.events.last() {
            assert!(last.detail.contains(sc.detail), "{name}: {}", last.detail);
        }
        // A result is released exactly when the session was not refused.
        let released = if sc.outcome == Outcome::NoQuorum {
            (0, 0)
        } else {
            (OUTPUT, FINGERPRINT)
        };
        assert_eq!(
            (report.output_hash, report.final_fingerprint),
            released,
            "{name}"
        );
        // The report survives its on-disk form.
        let reloaded = galois_core::manifest::LockstepReport::from_json(&report.to_json());
        assert_eq!(reloaded.as_ref(), Ok(&report), "{name}");

        // After the verdict nothing moves.
        assert_eq!(vote.offer(0, 0, 0), Offer::Dropped, "{name}");
        vote.lost(0, Kind::Death, "late".into());
        assert!(vote.advance().is_empty(), "{name}");
        assert_eq!(vote.report(), report, "{name}");
    }
}

/// A fault is anchored to the round the faulting replica had reached, not
/// to the frontier the slower voters hold the session at.
#[test]
fn fault_is_logged_at_the_faulting_replicas_round() {
    let mut vote = Lockstep::new(&recording(), 3, 64);
    assert_eq!(vote.offer(0, 0, CHAIN[0]), Offer::Taken);
    assert_eq!(vote.offer(0, 1, CHAIN[1]), Offer::Taken);
    vote.lost(0, Kind::Fault, "replica 0 faulted".into());
    assert!(vote.advance().is_empty());
    let report = vote.report();
    assert_eq!(report.rounds, 0);
    assert_eq!(report.events[0].round, 2);
    assert_eq!(report.outcome, Outcome::NoQuorum, "nothing released yet");
}

#[test]
fn outcomes_map_to_the_documented_exit_codes() {
    assert_eq!(exit_code(Outcome::Agreed), 0);
    assert_eq!(exit_code(Outcome::Diverged), 13);
    assert_eq!(exit_code(Outcome::NoQuorum), 14);
}
