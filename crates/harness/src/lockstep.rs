//! The lockstep vote: N replicas re-execute one recorded run and offer a
//! prefix hash per barrier; this machine decides who agrees with the
//! recording.
//!
//! It is plain data. Events go in ([`offer`](Lockstep::offer),
//! [`done`](Lockstep::done), [`lost`](Lockstep::lost)),
//! [`advance`](Lockstep::advance) returns the [`Action`]s a driver must
//! perform, and [`report`](Lockstep::report) renders the session. Nothing
//! here touches a socket, a clock, a lock or a thread: blocking a replica
//! that hit the window bound, and turning silence into a `lost` event, are
//! the drivers' jobs. Two drivers exist — [`crate::run_lockstep`] (replica
//! threads in this process) and `galois_serve::lockstep::Coordinator`
//! (replica processes over TCP) — and a simulated network can be a third.
//!
//! The rules, in the order [`advance`](Lockstep::advance) applies them at
//! the frontier round:
//!
//! - The recorded chain is **binding**. A replica's claim for a round is
//!   its hash, or "my chain ended before this round"; a claim agrees when
//!   it equals what the recording holds there (including "nothing").
//! - A **strict minority** of the live replicas contradicting the recording
//!   is evicted, the first divergent round pinned in the event log, and
//!   the session continues with the rest.
//! - **Half or more** contradicting is a refusal: a majority is never voted
//!   over the recording.
//! - Losing replicas (death, timeout, fault) is tolerated while a quorum —
//!   a majority of the original N — remains in the vote.
//! - Once the chain is settled, every remaining replica's final
//!   fingerprint must equal the recording's; the result is released only
//!   if a quorum passes.

use galois_core::manifest::{
    LockstepEvent, LockstepEventKind, LockstepOutcome, LockstepReport, LOCKSTEP_REPORT_VERSION,
};
use galois_core::RunManifest;
use std::collections::VecDeque;

/// Process exit code for a session that completed from a quorum after
/// evicting divergent replicas (the code `galois replay` uses for a
/// divergence).
pub const EXIT_DIVERGENCE: i32 = 13;

/// Process exit code for a refused session: quorum lost, or half or more of
/// the live replicas contradicted the recording.
pub const EXIT_NO_QUORUM: i32 = 14;

/// How far a replica may run ahead of the slowest voter unless a driver is
/// configured otherwise.
pub const DEFAULT_WINDOW: usize = 64;

/// The process exit code a session's outcome maps to.
pub fn exit_code(outcome: LockstepOutcome) -> i32 {
    match outcome {
        LockstepOutcome::Agreed => 0,
        LockstepOutcome::Diverged => EXIT_DIVERGENCE,
        LockstepOutcome::NoQuorum => EXIT_NO_QUORUM,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replica {
    Running,
    Finished {
        rounds: u64,
        output_hash: u64,
        fingerprint: u64,
    },
    /// Evicted or lost.
    Out,
}

impl Replica {
    fn votes(self) -> bool {
        self != Replica::Out
    }
}

/// What became of an offered round hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Buffered for the vote.
    Taken,
    /// The replica already has `window` unsettled hashes buffered. Nothing
    /// was consumed: offer the same round again once the frontier moved.
    Full,
    /// The replica is not (or, after an out-of-order `seq`, no longer) in
    /// the vote; stop feeding it.
    Dropped,
}

/// What a driver must do after [`Lockstep::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `replica` diverged at `round` and is out of the vote: tell it and
    /// hang up.
    Evict {
        /// The evicted replica.
        replica: usize,
        /// Its first divergent round.
        round: u64,
    },
    /// The session is over; no further event changes anything.
    Verdict(LockstepOutcome),
}

/// One lockstep session's state.
#[derive(Debug)]
pub struct Lockstep {
    app: String,
    input_key: String,
    reference: Vec<u64>,
    final_fingerprint: u64,
    quorum: usize,
    window: usize,
    /// Per-replica received-but-unsettled hashes; the front is the claim
    /// for round `settled`.
    pending: Vec<VecDeque<u64>>,
    /// Round hashes accepted per replica (the next expected `seq`).
    arrived: Vec<u64>,
    state: Vec<Replica>,
    settled: u64,
    max_buffered: u64,
    events: Vec<LockstepEvent>,
    outcome: Option<LockstepOutcome>,
    survivors: Vec<u64>,
    /// Agreed `(output_hash, fingerprint)`; zeros unless a result was
    /// released.
    agreed: (u64, u64),
}

impl Lockstep {
    /// A session of `replicas` replicas (ids `0..replicas`) voting against
    /// `manifest`'s chain, each buffering at most `window` unsettled rounds.
    pub fn new(manifest: &RunManifest, replicas: usize, window: usize) -> Self {
        Lockstep {
            app: manifest.app.clone(),
            input_key: manifest.input_key.clone(),
            reference: manifest.round_hashes.clone(),
            final_fingerprint: manifest.final_fingerprint,
            quorum: replicas / 2 + 1,
            window: window.max(1),
            pending: vec![VecDeque::new(); replicas],
            arrived: vec![0; replicas],
            state: vec![Replica::Running; replicas],
            settled: 0,
            max_buffered: 0,
            events: Vec::new(),
            outcome: None,
            survivors: Vec::new(),
            agreed: (0, 0),
        }
    }

    /// How the session ended, once it has.
    pub fn verdict(&self) -> Option<LockstepOutcome> {
        self.outcome
    }

    fn running(&self, i: usize) -> bool {
        self.outcome.is_none() && self.state[i] == Replica::Running
    }

    /// Replica `i` finished round `seq` with prefix hash `hash`. Rounds
    /// must arrive in order; a gap or repeat takes the replica out as a
    /// death.
    pub fn offer(&mut self, i: usize, seq: u64, hash: u64) -> Offer {
        if !self.running(i) {
            return Offer::Dropped;
        }
        let expected_seq = self.arrived[i];
        if seq != expected_seq {
            self.lost(
                i,
                LockstepEventKind::Death,
                format!("replica {i} sent round {seq}, expected {expected_seq}"),
            );
            return Offer::Dropped;
        }
        if self.pending[i].len() >= self.window {
            return Offer::Full;
        }
        self.arrived[i] += 1;
        self.pending[i].push_back(hash);
        self.max_buffered = self.max_buffered.max(self.pending[i].len() as u64);
        Offer::Taken
    }

    /// Replica `i` completed its run: `rounds` in its chain, and the result
    /// it would release.
    pub fn done(&mut self, i: usize, rounds: u64, output_hash: u64, fingerprint: u64) {
        if self.running(i) {
            self.state[i] = Replica::Finished {
                rounds,
                output_hash,
                fingerprint,
            };
        }
    }

    /// Replica `i` will send nothing more — it died, went silent or
    /// faulted. `kind` classifies the event; a fault is anchored to the
    /// round the replica had reached, anything else to the frontier.
    pub fn lost(&mut self, i: usize, kind: LockstepEventKind, detail: String) {
        if !self.running(i) {
            return;
        }
        self.state[i] = Replica::Out;
        self.pending[i].clear();
        let round = if kind == LockstepEventKind::Fault {
            self.arrived[i]
        } else {
            self.settled
        };
        self.events.push(LockstepEvent {
            round,
            replica: Some(i as u64),
            kind,
            expected: 0,
            actual: 0,
            detail,
        });
    }

    /// Settles every round the buffered claims allow and returns what the
    /// driver must now do. Call after each event. Returns nothing while the
    /// frontier round still waits on a running replica.
    pub fn advance(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        while self.outcome.is_none() && self.step(&mut actions) {}
        actions
    }

    /// One decision at the frontier; `false` = blocked on input.
    fn step(&mut self, actions: &mut Vec<Action>) -> bool {
        let n = self.state.len();
        let voters = self.state.iter().filter(|s| s.votes()).count();
        if voters < self.quorum {
            let detail = format!(
                "quorum lost: {voters} of {n} replicas live, need {}",
                self.quorum
            );
            self.refuse(detail, actions);
            return true;
        }
        // A running replica with nothing buffered owes the frontier hash
        // (or its `done` / `lost`).
        if (0..n).any(|i| self.state[i] == Replica::Running && self.pending[i].is_empty()) {
            return false;
        }

        let r = self.settled;
        let expected = self.reference.get(r as usize).copied();
        // `None` on either side reads "the chain ended before this round".
        let contradicting: Vec<(usize, Option<u64>)> = (0..n)
            .filter(|&i| self.state[i].votes())
            .map(|i| (i, self.pending[i].front().copied()))
            .filter(|&(_, claim)| claim != expected)
            .collect();

        if contradicting.is_empty() {
            if expected.is_some() {
                for queue in &mut self.pending {
                    queue.pop_front();
                }
                self.settled += 1;
            } else {
                self.finalize(actions);
            }
        } else if contradicting.len() * 2 >= voters {
            let detail = match expected {
                Some(_) => format!(
                    "{} of {voters} live replicas contradict the reference at round {r} — \
                     refusing to vote a majority against the recording",
                    contradicting.len()
                ),
                None => format!(
                    "{} of {voters} live replicas ran past the recorded {}-round chain",
                    contradicting.len(),
                    self.reference.len()
                ),
            };
            self.refuse(detail, actions);
        } else {
            for (i, claim) in contradicting {
                self.evict(i, expected.unwrap_or(0), claim.unwrap_or(0), actions);
            }
        }
        true
    }

    /// Logs the divergence + eviction pair for replica `i` at the frontier
    /// and takes it out of the vote.
    fn evict(&mut self, i: usize, expected: u64, actual: u64, actions: &mut Vec<Action>) {
        let round = self.settled;
        let replica = Some(i as u64);
        self.events.push(LockstepEvent {
            round,
            replica,
            kind: LockstepEventKind::Divergence,
            expected,
            actual,
            detail: format!("replica {i} first diverged from the reference chain at round {round}"),
        });
        self.events.push(LockstepEvent {
            round,
            replica,
            kind: LockstepEventKind::Eviction,
            expected: 0,
            actual: 0,
            detail: format!("replica {i} evicted; continuing with the survivors"),
        });
        self.state[i] = Replica::Out;
        self.pending[i].clear();
        actions.push(Action::Evict { replica: i, round });
    }

    fn refuse(&mut self, detail: String, actions: &mut Vec<Action>) {
        self.events.push(LockstepEvent {
            round: self.settled,
            replica: None,
            kind: LockstepEventKind::Refusal,
            expected: 0,
            actual: 0,
            detail,
        });
        self.conclude(LockstepOutcome::NoQuorum, actions);
    }

    fn conclude(&mut self, outcome: LockstepOutcome, actions: &mut Vec<Action>) {
        self.outcome = Some(outcome);
        actions.push(Action::Verdict(outcome));
    }

    /// The whole recorded chain is settled and every voter has finished
    /// exactly there; their results must now match the recording's.
    fn finalize(&mut self, actions: &mut Vec<Action>) {
        let n = self.state.len();
        let mut survivors = Vec::new();
        let mut agreed: Option<(u64, u64)> = None;
        for i in 0..n {
            let Replica::Finished {
                rounds,
                output_hash,
                fingerprint,
            } = self.state[i]
            else {
                continue;
            };
            if rounds != self.settled || fingerprint != self.final_fingerprint {
                self.evict(i, self.final_fingerprint, fingerprint, actions);
                continue;
            }
            match agreed {
                None => agreed = Some((output_hash, fingerprint)),
                // Same fingerprint, different output hash: impossible
                // through honest hashing, so a divergence.
                Some((h, _)) if h != output_hash => {
                    self.evict(i, h, output_hash, actions);
                    continue;
                }
                Some(_) => {}
            }
            survivors.push(i as u64);
        }
        if survivors.len() < self.quorum {
            let detail = format!(
                "only {} of {n} replicas reproduced the recorded fingerprint, need {}",
                survivors.len(),
                self.quorum
            );
            return self.refuse(detail, actions);
        }
        self.survivors = survivors;
        self.agreed = agreed.unwrap_or((0, 0));
        let diverged = self
            .events
            .iter()
            .any(|e| e.kind == LockstepEventKind::Divergence);
        self.conclude(
            if diverged {
                LockstepOutcome::Diverged
            } else {
                LockstepOutcome::Agreed
            },
            actions,
        );
    }

    /// The session's structured account. Before a verdict the outcome reads
    /// `NoQuorum`: no result has been released.
    pub fn report(&self) -> LockstepReport {
        LockstepReport {
            version: LOCKSTEP_REPORT_VERSION,
            app: self.app.clone(),
            input_key: self.input_key.clone(),
            replicas: self.state.len() as u64,
            window: self.window as u64,
            rounds: self.settled,
            outcome: self.outcome.unwrap_or(LockstepOutcome::NoQuorum),
            survivors: self.survivors.clone(),
            max_buffered: self.max_buffered,
            output_hash: self.agreed.0,
            final_fingerprint: self.agreed.1,
            events: self.events.clone(),
        }
    }
}
