//! Every interleaving of the lockstep vote, enumerated.
//!
//! Three replicas each follow a script over a three-round recording:
//! offer the rounds in order, then `done` — optionally with one wrong hash
//! (round 3 standing for the final fingerprint), or a `lost` at one round
//! boundary. The explorer drives the vote the way the coordinator's readers
//! do and tries every order in which the scripts' events can reach it: an
//! offer the vote answers `Full` is not an event — that replica is blocked
//! until a later event moves the frontier — and a replica whose offer is
//! `Dropped` (it was evicted) sends nothing more. On every interleaving it
//! checks what must hold whatever the timing:
//!
//! - the session never stalls before its verdict, and has exactly one;
//! - an eviction only ever takes a strict minority of the voters;
//! - no replica buffers more than the window;
//! - a released result is the recording's;
//! - outcome, survivors and divergence rounds are the same in every
//!   interleaving of the same scripts.
//!
//! The number of interleavings explored is pinned, so a pruning bug cannot
//! quietly shrink the search.

use galois_core::manifest::{
    ExecConfig, LockstepEventKind as Kind, LockstepOutcome as Outcome, RunManifest,
    MANIFEST_VERSION,
};
use galois_core::Executor;
use galois_harness::lockstep::{Action, Lockstep, Offer};

const CHAIN: [u64; 3] = [0x11, 0x22, 0x33];
const FINGERPRINT: u64 = 0xf1f1;
const OUTPUT: u64 = 0x0a0a;
const WRONG: u64 = 0x99;
const REPLICAS: usize = 3;

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

/// One replica's script.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// Every recorded round, then the recorded result.
    Clean,
    /// As `Clean`, but round `r`'s hash is wrong (`r == 3`: the final
    /// fingerprint is).
    Wrong(u64),
    /// The first `b` rounds, then the connection is lost.
    Lost(u64),
}

/// One event a replica's reader hands the vote.
#[derive(Debug, Clone, Copy)]
enum Event {
    Round(u64, u64),
    Done(u64),
    Lost,
}

impl Script {
    fn events(self) -> Vec<Event> {
        let rounds = match self {
            Script::Lost(b) => b,
            _ => CHAIN.len() as u64,
        };
        let mut events: Vec<Event> = (0..rounds)
            .map(|seq| match self {
                Script::Wrong(r) if r == seq => Event::Round(seq, WRONG),
                _ => Event::Round(seq, CHAIN[seq as usize]),
            })
            .collect();
        events.push(match self {
            Script::Lost(_) => Event::Lost,
            Script::Wrong(3) => Event::Done(WRONG),
            _ => Event::Done(FINGERPRINT),
        });
        events
    }
}

/// What must not depend on the interleaving.
type Verdict = (Outcome, Vec<u64>, Vec<(Option<u64>, u64)>);

/// The scripts of one enumeration, and the recording they vote against.
struct Scripts {
    manifest: RunManifest,
    window: usize,
    events: Vec<Vec<Event>>,
}

/// One session, driven one event at a time.
struct Session<'s> {
    vote: Lockstep,
    scripts: &'s Scripts,
    /// Per replica: events handed over so far.
    sent: Vec<usize>,
    /// Per replica: its reader stopped (after `done`, `lost` or `Dropped`).
    stopped: Vec<bool>,
    /// Per replica: still a voter, as far as the driver can tell.
    voting: Vec<bool>,
    verdicts: usize,
}

impl<'s> Session<'s> {
    fn new(scripts: &'s Scripts) -> Session<'s> {
        let n = scripts.events.len();
        Session {
            vote: Lockstep::new(&scripts.manifest, n, scripts.window),
            scripts,
            sent: vec![0; n],
            stopped: vec![false; n],
            voting: vec![true; n],
            verdicts: 0,
        }
    }

    /// Replays `path` (replica ids, one per event) into a fresh session.
    fn replay(scripts: &'s Scripts, path: &[usize]) -> Session<'s> {
        let mut session = Session::new(scripts);
        for &i in path {
            assert!(session.step(i), "a replayed event was refused");
        }
        session
    }

    /// Hands replica `i`'s next event to the vote; `false` = the vote
    /// answered `Full`, so that was no event and nothing changed.
    fn step(&mut self, i: usize) -> bool {
        match self.scripts.events[i][self.sent[i]] {
            Event::Round(seq, hash) => match self.vote.offer(i, seq, hash) {
                Offer::Full => return false,
                Offer::Taken => {}
                Offer::Dropped => self.stopped[i] = true,
            },
            Event::Done(fingerprint) => {
                self.vote.done(i, CHAIN.len() as u64, OUTPUT, fingerprint);
                self.stopped[i] = true;
            }
            Event::Lost => {
                if self.vote.verdict().is_none() {
                    self.voting[i] = false;
                }
                self.vote.lost(i, Kind::Death, format!("replica {i} lost"));
                self.stopped[i] = true;
            }
        }
        self.sent[i] += 1;
        self.stopped[i] |= self.sent[i] == self.scripts.events[i].len();
        let actions = self.vote.advance();
        self.check(&actions);
        true
    }

    /// The invariants one `advance` must keep.
    fn check(&mut self, actions: &[Action]) {
        let mut i = 0;
        while i < actions.len() {
            match actions[i] {
                Action::Evict { round, .. } => {
                    // The evictions one decision makes share its round.
                    let group: Vec<usize> = actions[i..]
                        .iter()
                        .map_while(|a| match *a {
                            Action::Evict { replica, round: r } if r == round => Some(replica),
                            _ => None,
                        })
                        .collect();
                    let voters = self.voting.iter().filter(|&&v| v).count();
                    assert!(
                        group.len() * 2 < voters,
                        "evicted {group:?} of {voters} voters at round {round}"
                    );
                    for &replica in &group {
                        self.voting[replica] = false;
                    }
                    i += group.len();
                }
                Action::Verdict(outcome) => {
                    self.verdicts += 1;
                    assert_eq!(self.verdicts, 1, "a second verdict");
                    let report = self.vote.report();
                    let released = (report.output_hash, report.final_fingerprint);
                    if outcome == Outcome::NoQuorum {
                        assert_eq!(released, (0, 0), "a refusal released a result");
                    } else {
                        assert_eq!(released, (OUTPUT, FINGERPRINT));
                    }
                    i += 1;
                }
            }
        }
    }

    /// Once the session is over, the verdict that must not depend on the
    /// interleaving.
    fn verdict(&self) -> Verdict {
        assert_eq!(self.verdicts, 1, "the session stalled before a verdict");
        let report = self.vote.report();
        // `max_buffered` is a running maximum: checking it last checks it
        // after every event.
        assert!(report.max_buffered <= report.window);
        let divergences = report
            .events_of(Kind::Divergence)
            .iter()
            .map(|e| (e.replica, e.round))
            .collect();
        (report.outcome, report.survivors, divergences)
    }
}

/// Explores every interleaving that extends `path`, the events that led to
/// `session`, depth first; returns how many complete sessions it ran, each
/// compared against `verdict`. A refused offer changes nothing, so the
/// session it was tried on serves the next replica; every other move
/// replays `path` into a fresh one.
fn explore(session: Session, path: &mut Vec<usize>, verdict: &mut Option<Verdict>) -> u64 {
    let scripts = session.scripts;
    let mut spare = Some(session);
    let mut sessions = 0;
    for i in 0..scripts.events.len() {
        let mut next = spare
            .take()
            .unwrap_or_else(|| Session::replay(scripts, path));
        if next.vote.verdict().is_some() || next.stopped[i] || !next.step(i) {
            spare = Some(next);
            continue;
        }
        path.push(i);
        sessions += explore(next, path, verdict);
        path.pop();
    }
    if let Some(end) = spare.filter(|_| sessions == 0) {
        let end = end.verdict();
        match verdict {
            None => *verdict = Some(end),
            Some(first) => assert_eq!(&end, first, "interleaving {path:?}"),
        }
        sessions = 1;
    }
    sessions
}

/// Every interleaving of `scripts` at `window`: the number explored and the
/// one verdict they all reach.
fn enumerate(scripts: [Script; REPLICAS], window: usize) -> (u64, Verdict) {
    let scripts = Scripts {
        manifest: recording(),
        window,
        events: scripts.iter().map(|s| s.events()).collect(),
    };
    let mut verdict = None;
    let sessions = explore(Session::new(&scripts), &mut Vec::new(), &mut verdict);
    (sessions, verdict.expect("at least one interleaving"))
}

#[test]
fn an_unbounded_window_explores_every_interleaving() {
    // No offer is ever refused at window 3, so the clean sessions are all
    // 12!/(4! 4! 4!) orders of three 4-event scripts.
    let (sessions, verdict) = enumerate([Script::Clean; REPLICAS], CHAIN.len());
    assert_eq!(sessions, 34_650);
    assert_eq!(verdict, (Outcome::Agreed, vec![0, 1, 2], vec![]));
}

#[test]
fn every_interleaving_of_every_script_reaches_one_verdict() {
    use Script::{Clean, Lost, Wrong};
    let diverged = |survivors: &[u64], replica: u64, round: u64| {
        (
            Outcome::Diverged,
            survivors.to_vec(),
            vec![(Some(replica), round)],
        )
    };
    // Script sets the vote does not pass are left out: a loss racing a
    // divergence ([Wrong(1), Clean, Lost(2)]) is refused in every order, but
    // whether the divergence is logged first depends on the order; and two
    // wrong final fingerprints of three ([Wrong(3), Clean, Wrong(3)]) are
    // both evicted, a majority, before the refusal.
    let cases: Vec<([Script; REPLICAS], Verdict)> = vec![
        (
            [Clean, Clean, Clean],
            (Outcome::Agreed, vec![0, 1, 2], vec![]),
        ),
        ([Clean, Clean, Wrong(0)], diverged(&[0, 1], 2, 0)),
        ([Wrong(1), Clean, Clean], diverged(&[1, 2], 0, 1)),
        ([Clean, Wrong(2), Clean], diverged(&[0, 2], 1, 2)),
        ([Clean, Clean, Wrong(3)], diverged(&[0, 1], 2, 3)),
        (
            [Lost(0), Clean, Clean],
            (Outcome::Agreed, vec![1, 2], vec![]),
        ),
        (
            [Clean, Lost(2), Clean],
            (Outcome::Agreed, vec![0, 2], vec![]),
        ),
        (
            [Clean, Clean, Lost(3)],
            (Outcome::Agreed, vec![0, 1], vec![]),
        ),
        (
            [Wrong(1), Clean, Wrong(1)],
            (Outcome::NoQuorum, vec![], vec![]),
        ),
        (
            [Lost(1), Lost(2), Clean],
            (Outcome::NoQuorum, vec![], vec![]),
        ),
    ];
    let mut explored = [0u64; 2];
    for (scripts, expected) in cases {
        for (w, window) in [1, 2].into_iter().enumerate() {
            let (sessions, verdict) = enumerate(scripts, window);
            assert_eq!(verdict, expected, "{scripts:?} at window {window}");
            explored[w] += sessions;
        }
    }
    assert_eq!(
        explored,
        [16_134, 125_262],
        "interleavings explored at windows 1 and 2"
    );
}
