//! Distributed lockstep replication: N replica *processes* re-execute one
//! recorded deterministic run, streaming per-round prefix hashes to a
//! coordinator that cross-checks them against the recorded reference
//! chain within a bounded window.
//!
//! This is the wire-level payoff of deterministic execution (Aviram &
//! Ford): because a run is a pure function of `(program, input, executor
//! config)`, replica fault detection collapses to hash comparison — no
//! state transfer, no output shipping, 16 bytes per barrier.
//!
//! Who agrees with the recording is decided by the vote in
//! [`galois_harness::lockstep`] — a plain-data machine that the in-process
//! mode (`harness::run_lockstep`) drives too. This module is its socket
//! driver: the [`Coordinator`] owns the connections, and the replica side
//! ([`run_replica`]) is the harness's replay recipe with a sink that
//! writes frames.
//!
//! 1. **Join**: each replica connects, sends a versioned `HELLO`, and
//!    receives a `JOB` frame carrying the reference [`RunManifest`] (input
//!    key + `ExecConfig`) and its thread budget. Budgets may differ per
//!    replica — portability *is* the redundancy claim. The join waits on
//!    events, not a clock: the last replica's `HELLO` ends it, and if
//!    [`LockstepConfig::join_timeout`] passes first, a watchdog wakes the
//!    blocked `accept` with a self-connect.
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
        let manifest_json = self.manifest.to_json();

        // ---- Join phase -------------------------------------------------
        // `accept` blocks. The deadline is a watchdog: unless the last HELLO
        // is admitted first, it wakes the blocked accept with a self-connect,
        // the nudge the HTTP server's stop uses. Its wait ends only after the
        // deadline, so the accept it wakes finds the deadline passed.
        let deadline = Instant::now() + self.config.join_timeout;
        let joined = Mutex::new(false);
        let join_over = Condvar::new();
        let streams = std::thread::scope(|s| {
            s.spawn(|| {
                let left = deadline.saturating_duration_since(Instant::now());
                let guard = joined.lock().expect(POISONED);
                let (_guard, wait) = join_over
                    .wait_timeout_while(guard, left, |joined| !*joined)
                    .expect(POISONED);
                if wait.timed_out() {
                    let _ = TcpStream::connect(self.addr);
                }
            });
            let streams = self.join(deadline, &manifest_json);
            *joined.lock().expect(POISONED) = true;
            join_over.notify_one();
            streams
        })?;
        let mut inbound = Vec::with_capacity(n);
        for (i, stream) in streams.iter().enumerate() {
            inbound.push(
                stream
                    .try_clone()
                    .map_err(|e| format!("clone replica {i} stream: {e}"))?,
            );
        }

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

    /// Accepts connections until every replica has joined, or until one is
    /// accepted past the join `deadline`.
    fn join(&self, deadline: Instant, manifest_json: &str) -> Result<Vec<TcpStream>, String> {
        let n = self.config.replicas;
        let mut streams = Vec::with_capacity(n);
        while streams.len() < n {
            let (stream, _) = self.listener.accept().map_err(|e| format!("accept: {e}"))?;
            if Instant::now() >= deadline {
                return Err(format!(
                    "only {} of {n} replicas joined within {:?}",
                    streams.len(),
                    self.config.join_timeout
                ));
            }
            let id = streams.len() as u32;
            if let Some(stream) = self.admit(stream, id, manifest_json, deadline) {
                streams.push(stream);
            }
        }
        Ok(streams)
    }

    /// Handshakes one joining connection, with only the time left to the
    /// join `deadline` as the idle budget for its `HELLO`; `None` = rejected
    /// (does not consume a replica slot).
    fn admit(
        &self,
        mut stream: TcpStream,
        id: u32,
        manifest_json: &str,
        deadline: Instant,
    ) -> Option<TcpStream> {
        crate::http::prepare(&stream, crate::http::READ_TIMEOUT).ok()?;
        let left = deadline.saturating_duration_since(Instant::now());
        match wire::read_frame(&mut stream, left) {
            Ok(Frame::Hello { version }) if version == WIRE_VERSION => {
                let job = Frame::Job {
                    replica: id,
                    threads: self
                        .config
                        .threads
                        .get(id as usize % self.config.threads.len().max(1))
                        .copied()
                        .unwrap_or(0) as u32,
                    manifest: manifest_json.to_string(),
                };
                wire::write_frame(&mut stream, &job).ok()?;
                Some(stream)
            }
            Ok(Frame::Hello { version }) => {
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Reject {
                        reason: format!("wire version {version} != coordinator's {WIRE_VERSION}"),
                    },
                );
                None
            }
            _ => None,
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
            Ok(Frame::Fault { exit_code, message }) => {
                vote.lost(
                    id,
                    LockstepEventKind::Fault,
                    format!("replica {id} faulted (exit {exit_code}): {message}"),
                );
                false
            }
            Ok(other) => {
                vote.lost(
                    id,
                    LockstepEventKind::Death,
                    format!("replica {id} sent unexpected {other:?}"),
                );
                false
            }
            Err(WireError::Timeout) => {
                vote.lost(
                    id,
                    LockstepEventKind::Timeout,
                    format!("replica {id} silent past {timeout:?}"),
                );
                false
            }
            Err(e) => {
                vote.lost(
                    id,
                    LockstepEventKind::Death,
                    format!("replica {id} connection lost: {e}"),
                );
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

/// Replica-side knobs (the `galois replicate` flag surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaOptions {
    /// Overrides the `JOB` frame's thread budget.
    pub threads: Option<usize>,
    /// Overrides the job's `locality_spread` — a *planted* deterministic
    /// schedule perturbation, used by the battery to manufacture a replica
    /// that diverges at a stable first round.
    pub perturb_spread: Option<usize>,
    /// Sleep this long in the round-hash hook (slow-replica testing;
    /// timing is hash-invariant).
    pub throttle_ms: u64,
}

/// Joins a coordinator at `addr`, re-executes the job it assigns, and
/// streams per-round prefix hashes. Returns the process exit code: `0`
/// settled, [`EXIT_REPLICA_EVICTED`] evicted, the fault's own exit code if
/// the run faulted.
pub fn run_replica(addr: &str, opts: ReplicaOptions) -> Result<i32, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    crate::http::prepare(&stream, crate::http::READ_TIMEOUT).map_err(|e| e.to_string())?;
    let mut control = stream.try_clone().map_err(|e| e.to_string())?;
    wire::write_frame(
        &mut control,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )
    .map_err(|e| format!("hello: {e}"))?;
    let job = wire::read_frame(&mut control, Duration::from_secs(120))
        .map_err(|e| format!("waiting for job: {e}"))?;
    let (replica_id, job_threads, manifest_json) = match job {
        Frame::Job {
            replica,
            threads,
            manifest,
        } => (replica, threads as usize, manifest),
        Frame::Reject { reason } => return Err(format!("coordinator rejected join: {reason}")),
        other => return Err(format!("expected JOB, got {other:?}")),
    };
    let manifest =
        RunManifest::from_json(&manifest_json).map_err(|e| format!("job manifest: {e}"))?;
    let threads = opts
        .threads
        .or((job_threads != 0).then_some(job_threads))
        .unwrap_or(manifest.exec.threads);
    let perturb = |_, exec: Executor| match opts.perturb_spread {
        Some(locality_spread) => ExecConfig {
            locality_spread,
            ..manifest.exec.clone()
        }
        .to_executor(threads),
        None => exec,
    };

    // Stream hashes from inside the barrier hook. The hook must never
    // panic (it runs on an executor thread), so send failures latch a flag
    // and mute further sends — the coordinator hanging up on us (eviction,
    // refusal) is an expected way for a session to end.
    let hook_stream = Arc::new(Mutex::new(stream.try_clone().map_err(|e| e.to_string())?));
    let send_failed = Arc::new(AtomicBool::new(false));
    let throttle = Duration::from_millis(opts.throttle_ms);
    let hook = {
        let hook_stream = Arc::clone(&hook_stream);
        let send_failed = Arc::clone(&send_failed);
        move |seq: u64, hash: u64| {
            if opts.throttle_ms != 0 {
                std::thread::sleep(throttle);
            }
            if send_failed.load(Ordering::Relaxed) {
                return;
            }
            let mut s = hook_stream.lock().unwrap();
            if wire::write_frame(&mut s, &Frame::Round { seq, hash }).is_err() {
                send_failed.store(true, Ordering::Relaxed);
            }
        }
    };

    let final_frame = match replay_with(&manifest, threads, None, perturb, Some(Box::new(hook))) {
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
    let fault_exit = match &final_frame {
        Frame::Fault { exit_code, .. } => Some(*exit_code as i32),
        _ => None,
    };
    {
        let mut s = hook_stream.lock().unwrap();
        if wire::write_frame(&mut s, &final_frame).is_err() {
            send_failed.store(true, Ordering::Relaxed);
        }
    }
    if let Some(code) = fault_exit {
        return Ok(code);
    }

    // Wait for the verdict: ACK (settled), EVICT, or a hang-up.
    match wire::read_frame(&mut control, Duration::from_secs(120)) {
        Ok(Frame::Ack) => Ok(0),
        Ok(Frame::Evict { round, reason }) => {
            eprintln!("replica {replica_id}: evicted at round {round}: {reason}");
            Ok(EXIT_REPLICA_EVICTED)
        }
        _ if send_failed.load(Ordering::Relaxed) => Ok(EXIT_REPLICA_EVICTED),
        Ok(other) => Err(format!("expected verdict, got {other:?}")),
        Err(WireError::Closed) => Ok(0),
        Err(e) => Err(format!("waiting for verdict: {e}")),
    }
}
