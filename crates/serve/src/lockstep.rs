//! Distributed lockstep replication: N replicas re-execute one recorded
//! deterministic run, streaming per-round prefix hashes to a coordinator
//! that cross-checks them against the recorded reference chain within a
//! bounded window.
//!
//! This is the wire-level payoff of deterministic execution (Aviram &
//! Ford): because a run is a pure function of `(program, input, executor
//! config)`, replica fault detection collapses to hash comparison — no
//! state transfer, no output shipping, 16 bytes per barrier.
//!
//! Who agrees with the recording is decided by the vote in
//! [`galois_harness::lockstep`], a plain-data machine. The [`Coordinator`]
//! here is its only driver: it owns the connections, and the replica side
//! ([`join`], then [`JoinedReplica::stream`]) is the harness's replay
//! recipe with a sink that writes frames. Replicas may be processes
//! (`galois replicate`) or threads of this process ([`run_local`], which
//! `galois replay --lockstep` runs); the coordinator cannot tell them
//! apart.
//!
//! 1. **Join**: each replica connects, sends a versioned `HELLO`, and
//!    receives a `JOB` frame carrying the reference [`RunManifest`] (input
//!    key + `ExecConfig`) and its thread budget. Budgets may differ per
//!    replica — portability *is* the redundancy claim. Every connection's
//!    `HELLO` is read on a thread of its own, so a silent connection holds
//!    up no other, and replica ids follow the order `HELLO`s arrive in.
//!    The join waits on events, not a clock: the last replica's `HELLO`
//!    ends it, and if [`LockstepConfig::join_timeout`] passes first, a
//!    watchdog wakes the blocked `accept` with a self-connect.
//! 2. **Stream**: replicas re-execute and send one `ROUND` frame per
//!    barrier. One reader thread per replica turns frames into the vote's
//!    `offer` / `done` events. A replica may run at most
//!    [`LockstepConfig::window`] rounds ahead of the slowest voter before
//!    its reader stops reading, so TCP back-pressures it — coordinator
//!    memory is bounded by `window × replicas` hashes, never by run length.
//! 3. **Degrade**: a dropped socket, silence past the timeout, a `FAULT`
//!    frame or an unexpected one becomes the vote's `lost` event.
//! 4. **Act**: an eviction the vote returns becomes an `EVICT` frame and a
//!    hang-up; the verdict an `ACK` to every survivor.
//!
//! The whole session is summarized in a versioned, checksummed
//! [`LockstepReport`].

use crate::wire::{self, Frame, WireError, WIRE_VERSION};
use galois_core::manifest::{ExecConfig, LockstepEventKind, LockstepReport};
use galois_core::{Executor, RunManifest};
use galois_harness::lockstep::{exit_code, Action, Lockstep, Offer, DEFAULT_WINDOW};
pub use galois_harness::lockstep::{EXIT_DIVERGENCE, EXIT_NO_QUORUM};
use galois_harness::{replay_with, ReplayError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Exit code a replica uses after being evicted by its coordinator.
pub const EXIT_REPLICA_EVICTED: i32 = 3;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct LockstepConfig {
    /// Replicas that must join before the run starts.
    pub replicas: usize,
    /// Round-count comparison window: how far any replica may run ahead of
    /// the slowest live voter before its stream is back-pressured.
    pub window: usize,
    /// Per-replica thread budgets, cycled over replica ids; empty = every
    /// replica runs at the manifest's recorded budget.
    pub threads: Vec<usize>,
    /// Idle budget per replica: silence longer than this is a timeout
    /// death.
    pub timeout: Duration,
    /// One budget for the whole join: every one of `replicas` must connect
    /// and send its `HELLO` within it, however many connections stay
    /// silent in the meantime.
    pub join_timeout: Duration,
}

impl Default for LockstepConfig {
    fn default() -> Self {
        LockstepConfig {
            replicas: 3,
            window: DEFAULT_WINDOW,
            threads: Vec::new(),
            timeout: Duration::from_secs(60),
            join_timeout: Duration::from_secs(60),
        }
    }
}

/// What a finished lockstep session reduces to.
#[derive(Debug, Clone)]
pub struct LockstepRunResult {
    /// The structured session account.
    pub report: LockstepReport,
    /// `0` clean, [`EXIT_DIVERGENCE`], or [`EXIT_NO_QUORUM`].
    pub exit_code: i32,
}

/// The vote shared by the reader threads, and the condition readers
/// blocked at the window bound (and `run`, waiting for the verdict) sleep
/// on.
struct Session {
    vote: Mutex<Lockstep>,
    turn: Condvar,
}

const POISONED: &str = "a lockstep coordinator thread panicked";

/// The join's shared state.
struct Lobby {
    /// Admitted replicas; a replica's id is its index.
    admitted: Vec<TcpStream>,
    /// Per accepted connection, a handle while its `HELLO` is awaited.
    waiting: Vec<Option<TcpStream>>,
    /// The join has ended; no one else is admitted.
    over: bool,
}

/// A bound coordinator, ready to accept replica joins.
pub struct Coordinator {
    listener: TcpListener,
    addr: SocketAddr,
    manifest: RunManifest,
    config: LockstepConfig,
}

impl Coordinator {
    /// Binds the coordinator's listening socket (use port 0 for an
    /// ephemeral port, then read [`addr`](Self::addr)).
    pub fn bind(
        manifest: RunManifest,
        config: LockstepConfig,
        addr: &str,
    ) -> std::io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Coordinator {
            listener,
            addr,
            manifest,
            config,
        })
    }

    /// The bound address replicas should `--join`.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the session to completion: join, stream, vote, settle.
    /// `Err` is an orchestration failure (bind/join problems), not a
    /// replication verdict — verdicts come back in the result's report.
    pub fn run(self) -> Result<LockstepRunResult, String> {
        let n = self.config.replicas;
        if n == 0 {
            return Err("lockstep needs at least one replica".into());
        }
        let streams = self.join()?;
        let inbound = streams
            .iter()
            .map(TcpStream::try_clone)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("clone a replica stream: {e}"))?;

        // ---- Stream + vote: one reader thread per replica ---------------
        let session = Session {
            vote: Mutex::new(Lockstep::new(&self.manifest, n, self.config.window)),
            turn: Condvar::new(),
        };
        let timeout = self.config.timeout;
        let report = std::thread::scope(|s| {
            for (i, mut stream) in inbound.into_iter().enumerate() {
                let (session, streams) = (&session, &streams);
                s.spawn(move || reader_loop(&mut stream, i, session, streams, timeout));
            }
            let mut vote = session.vote.lock().expect(POISONED);
            while vote.verdict().is_none() {
                vote = session.turn.wait(vote).expect(POISONED);
            }
            let report = vote.report();
            drop(vote);
            // Courtesy frames, then hang up: survivors get an ACK, everyone
            // else is already evicted/dead. The shutdowns unblock every
            // reader (and any replica) still mid-stream.
            for &i in &report.survivors {
                send(&streams[i as usize], &Frame::Ack);
            }
            for stream in &streams {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            report
        });
        let exit_code = exit_code(report.outcome);
        Ok(LockstepRunResult { report, exit_code })
    }

    /// Accepts connections, each greeted on a thread of its own, until every
    /// replica has been admitted or one is accepted past the join deadline.
    /// Whichever comes first wakes the blocked `accept` with a self-connect
    /// (the HTTP server's stop nudge): the greeter admitting the last
    /// replica, or a watchdog whose wait ends only after the deadline.
    /// Connections still silent then are shut down, ending their greeters.
    fn join(&self) -> Result<Vec<TcpStream>, String> {
        let n = self.config.replicas;
        let deadline = Instant::now() + self.config.join_timeout;
        let manifest_json = self.manifest.to_json();
        let lobby = Mutex::new(Lobby {
            admitted: Vec::with_capacity(n),
            waiting: Vec::new(),
            over: false,
        });
        let over = Condvar::new();
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                let left = deadline.saturating_duration_since(Instant::now());
                let lobby = lobby.lock().expect(POISONED);
                let (_lobby, wait) = over
                    .wait_timeout_while(lobby, left, |lobby| !lobby.over)
                    .expect(POISONED);
                if wait.timed_out() {
                    let _ = TcpStream::connect(self.addr);
                }
            });
            let outcome = loop {
                let accepted = self.listener.accept();
                let mut guard = lobby.lock().expect(POISONED);
                let outcome = match accepted {
                    Err(e) => Some(Err(format!("accept: {e}"))),
                    Ok(_) if guard.admitted.len() == n => Some(Ok(())),
                    Ok(_) if Instant::now() >= deadline => Some(Err(format!(
                        "only {} of {n} replicas joined within {:?}",
                        guard.admitted.len(),
                        self.config.join_timeout
                    ))),
                    Ok((stream, _)) => {
                        if let Ok(handle) = stream.try_clone() {
                            let slot = guard.waiting.len();
                            guard.waiting.push(Some(handle));
                            let (lobby, manifest_json) = (&lobby, &manifest_json);
                            s.spawn(move || {
                                self.greet(stream, slot, lobby, manifest_json, deadline)
                            });
                        }
                        None
                    }
                };
                if let Some(outcome) = outcome {
                    guard.over = true;
                    for silent in guard.waiting.iter().flatten() {
                        let _ = silent.shutdown(std::net::Shutdown::Both);
                    }
                    break outcome;
                }
            };
            over.notify_one();
            outcome
        });
        outcome.map(|()| lobby.into_inner().expect(POISONED).admitted)
    }

    /// Reads one connection's `HELLO`, with only the time left to the join
    /// `deadline` as its idle budget, and admits it under the next id while
    /// the join is open. A version mismatch is answered with `REJECT`;
    /// anything else is dropped without taking an id.
    fn greet(
        &self,
        mut stream: TcpStream,
        slot: usize,
        lobby: &Mutex<Lobby>,
        manifest_json: &str,
        deadline: Instant,
    ) {
        let left = deadline.saturating_duration_since(Instant::now());
        let hello = crate::http::prepare(&stream, crate::http::READ_TIMEOUT)
            .map_err(WireError::Io)
            .and_then(|()| wire::read_frame(&mut stream, left));
        let n = self.config.replicas;
        let mut guard = lobby.lock().expect(POISONED);
        guard.waiting[slot] = None;
        match hello {
            Ok(Frame::Hello { version }) if version != WIRE_VERSION => {
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Reject {
                        reason: format!("wire version {version} != coordinator's {WIRE_VERSION}"),
                    },
                );
            }
            Ok(Frame::Hello { .. }) if !guard.over && guard.admitted.len() < n => {
                let id = guard.admitted.len();
                let job = Frame::Job {
                    replica: id as u32,
                    threads: self
                        .config
                        .threads
                        .get(id % self.config.threads.len().max(1))
                        .copied()
                        .unwrap_or(0) as u32,
                    manifest: manifest_json.to_string(),
                };
                if wire::write_frame(&mut stream, &job).is_ok() {
                    guard.admitted.push(stream);
                    if guard.admitted.len() == n {
                        drop(guard);
                        let _ = TcpStream::connect(self.addr);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Best-effort control frame to a replica that may already be gone.
fn send(stream: &TcpStream, frame: &Frame) {
    if let Ok(mut s) = stream.try_clone() {
        let _ = wire::write_frame(&mut s, frame);
    }
}

/// One replica's reader: translates its frames (and its connection's end)
/// into vote events, blocks at the window bound so TCP back-pressures the
/// replica, and performs the actions each event unlocks.
fn reader_loop(
    stream: &mut TcpStream,
    id: usize,
    session: &Session,
    streams: &[TcpStream],
    timeout: Duration,
) {
    loop {
        let frame = wire::read_frame(stream, timeout);
        let mut vote = session.vote.lock().expect(POISONED);
        let streaming = match frame {
            Ok(Frame::Round { seq, hash }) => {
                let mut offer = vote.offer(id, seq, hash);
                while offer == Offer::Full {
                    vote = session.turn.wait(vote).expect(POISONED);
                    offer = vote.offer(id, seq, hash);
                }
                offer == Offer::Taken
            }
            Ok(Frame::Done {
                rounds,
                output_hash,
                fingerprint,
            }) => {
                vote.done(id, rounds, output_hash, fingerprint);
                false
            }
            ended => {
                use LockstepEventKind::{Death, Fault, Timeout};
                let (kind, detail) = match ended {
                    Ok(Frame::Fault { exit_code, message }) => {
                        (Fault, format!("faulted (exit {exit_code}): {message}"))
                    }
                    Ok(other) => (Death, format!("sent unexpected {other:?}")),
                    Err(WireError::Timeout) => (Timeout, format!("silent past {timeout:?}")),
                    Err(e) => (Death, format!("connection lost: {e}")),
                };
                vote.lost(id, kind, format!("replica {id} {detail}"));
                false
            }
        };
        for action in vote.advance() {
            if let Action::Evict { replica, round } = action {
                send(
                    &streams[replica],
                    &Frame::Evict {
                        round,
                        reason: "diverged from reference chain".into(),
                    },
                );
                let _ = streams[replica].shutdown(std::net::Shutdown::Both);
            }
        }
        session.turn.notify_all();
        if !streaming {
            return;
        }
    }
}

/// Replica-side knobs (the `galois replicate` flag surface, and one
/// in-process replica of [`run_local`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaOptions {
    /// Overrides the `JOB` frame's thread budget.
    pub threads: Option<usize>,
    /// Overrides the job's `locality_spread` — a *planted* deterministic
    /// schedule perturbation, used by the battery to manufacture a replica
    /// that diverges at a stable first round.
    pub perturb_spread: Option<usize>,
    /// Runs the job under this chaos seed (`None` keeps the manifest's
    /// chaos configuration). Under a healthy deterministic scheduler the
    /// seed changes no round hash.
    pub chaos_seed: Option<u64>,
}

/// How a replica's session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaEnd {
    /// The replica process's exit code: `0` settled,
    /// [`EXIT_REPLICA_EVICTED`] evicted or hung up on mid-stream, the
    /// fault's own exit code if the run faulted.
    pub exit_code: i32,
    /// The coordinator's `EVICT`, if it sent one: the first divergent
    /// round, and why.
    pub evicted: Option<(u64, String)>,
}

/// A replica the coordinator has admitted, and its job.
pub struct JoinedReplica {
    /// The replica id the coordinator assigned.
    pub id: u32,
    stream: TcpStream,
    /// The `JOB` frame's thread budget; `0` = the manifest's.
    threads: usize,
    manifest: RunManifest,
}

/// Connects to the coordinator at `addr`, sends `HELLO` and waits for the
/// `JOB` frame. When this returns, the coordinator has admitted the replica
/// under its [`id`](JoinedReplica::id).
pub fn join(addr: &str) -> Result<JoinedReplica, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    crate::http::prepare(&stream, crate::http::READ_TIMEOUT).map_err(|e| e.to_string())?;
    let hello = Frame::Hello {
        version: WIRE_VERSION,
    };
    wire::write_frame(&mut stream, &hello).map_err(|e| format!("hello: {e}"))?;
    let job = wire::read_frame(&mut stream, Duration::from_secs(120))
        .map_err(|e| format!("waiting for job: {e}"))?;
    match job {
        Frame::Job {
            replica,
            threads,
            manifest,
        } => Ok(JoinedReplica {
            id: replica,
            stream,
            threads: threads as usize,
            manifest: RunManifest::from_json(&manifest)
                .map_err(|e| format!("job manifest: {e}"))?,
        }),
        Frame::Reject { reason } => Err(format!("coordinator rejected join: {reason}")),
        other => Err(format!("expected JOB, got {other:?}")),
    }
}

impl JoinedReplica {
    /// Re-executes the job and streams per-round prefix hashes, then waits
    /// for the verdict. `Err` = the job cannot be run here at all (the
    /// manifest names an input this build cannot replay), or the
    /// conversation broke.
    pub fn stream(self, opts: ReplicaOptions) -> Result<ReplicaEnd, String> {
        let JoinedReplica {
            stream: mut control,
            threads,
            manifest,
            ..
        } = self;
        let threads = opts
            .threads
            .or((threads != 0).then_some(threads))
            .unwrap_or(manifest.exec.threads);
        let shape = |_, mut exec: Executor| {
            if let Some(locality_spread) = opts.perturb_spread {
                exec = ExecConfig {
                    locality_spread,
                    ..manifest.exec.clone()
                }
                .to_executor(threads);
            }
            match opts.chaos_seed {
                Some(seed) => exec.chaos(seed),
                None => exec,
            }
        };

        // Stream hashes from inside the barrier hook. The hook must never
        // panic (it runs on an executor thread), so a failed send latches
        // `muted` and ends the sending — the coordinator hanging up on us
        // (eviction, refusal) is an expected way for a session to end.
        let muted = Arc::new(AtomicBool::new(false));
        let hook = {
            let muted = Arc::clone(&muted);
            let mut out = control.try_clone().map_err(|e| e.to_string())?;
            move |seq, hash| {
                if !muted.load(Ordering::Relaxed)
                    && wire::write_frame(&mut out, &Frame::Round { seq, hash }).is_err()
                {
                    muted.store(true, Ordering::Relaxed);
                }
            }
        };
        let final_frame = match replay_with(&manifest, threads, None, shape, Some(Box::new(hook))) {
            Ok((out, _)) => Frame::Done {
                rounds: out.rounds,
                output_hash: out.output_hash,
                fingerprint: out.fingerprint,
            },
            Err(ReplayError::Exec(fault)) => Frame::Fault {
                exit_code: fault.exit_code() as u32,
                message: fault.to_string(),
            },
            Err(ReplayError::Validation(validation)) => Frame::Fault {
                exit_code: 1,
                message: format!("validation failed: {validation}"),
            },
            Err(e) => return Err(e.to_string()),
        };
        if wire::write_frame(&mut control, &final_frame).is_err() {
            muted.store(true, Ordering::Relaxed);
        }
        let end = |exit_code| ReplicaEnd {
            exit_code,
            evicted: None,
        };
        if let Frame::Fault { exit_code, .. } = final_frame {
            return Ok(end(exit_code as i32));
        }

        // Wait for the verdict: ACK (settled), EVICT, or a hang-up.
        match wire::read_frame(&mut control, Duration::from_secs(120)) {
            Ok(Frame::Ack) => Ok(end(0)),
            Ok(Frame::Evict { round, reason }) => Ok(ReplicaEnd {
                evicted: Some((round, reason)),
                ..end(EXIT_REPLICA_EVICTED)
            }),
            _ if muted.load(Ordering::Relaxed) => Ok(end(EXIT_REPLICA_EVICTED)),
            Ok(other) => Err(format!("expected verdict, got {other:?}")),
            Err(WireError::Closed) => Ok(end(0)),
            Err(e) => Err(format!("waiting for verdict: {e}")),
        }
    }
}

/// Joins a coordinator at `addr`, re-executes the job it assigns, and
/// streams per-round prefix hashes: [`join`], then
/// [`JoinedReplica::stream`]. Returns the process exit code.
pub fn run_replica(addr: &str, opts: ReplicaOptions) -> Result<i32, String> {
    Ok(join(addr)?.stream(opts)?.exit_code)
}

/// Runs one lockstep session inside this process: a [`Coordinator`] with
/// the default [`LockstepConfig`] on a loopback port, and one replica
/// thread per entry of `replicas`. Each replica
/// joins only after the one before it has its `JOB`, so replica `i` has
/// id `i`, and the report is a function of the manifest and `replicas`
/// alone (`max_buffered` excepted: how far ahead a replica got is timing).
///
/// `Err` is an orchestration failure, or the first replica's error when
/// the job cannot be run here at all — never a verdict.
pub fn run_local(
    manifest: &RunManifest,
    replicas: &[ReplicaOptions],
) -> Result<LockstepRunResult, String> {
    let config = LockstepConfig {
        replicas: replicas.len(),
        ..LockstepConfig::default()
    };
    let coordinator = Coordinator::bind(manifest.clone(), config, "127.0.0.1:0")
        .map_err(|e| format!("bind a loopback coordinator: {e}"))?;
    let addr = coordinator.addr().to_string();
    std::thread::scope(|s| {
        let session = s.spawn(|| coordinator.run());
        // A replica that cannot join leaves the join short, which the
        // coordinator reports.
        let streams: Vec<_> = replicas
            .iter()
            .map_while(|&opts| {
                let replica = join(&addr).ok()?;
                Some(s.spawn(move || replica.stream(opts)))
            })
            .collect();
        let result = session.join().expect(POISONED)?;
        for stream in streams {
            stream.join().expect("a lockstep replica thread panicked")?;
        }
        Ok(result)
    })
}
