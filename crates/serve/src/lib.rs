//! `galois-serve`: a resident deterministic compute service.
//!
//! The paper's executors are pure functions of `(program, input, executor
//! config)` — which makes them *servable*: a resident process can answer
//! "run bfs over input seed 42 deterministically with a 4-thread budget"
//! over and over, keeping the expensive part (input materialization)
//! warm across requests, and every response is a replayable, portable
//! artifact. This crate is that process:
//!
//! - a hand-rolled HTTP/1.1 + JSON front end over `std::net::TcpListener`
//!   (the tree is registry-free — no tokio, no hyper): an accept loop
//!   feeds a blocking worker pool, each worker serving one keep-alive
//!   connection to completion;
//! - requests route through the same [`executor_for`] / [`run_resident`]
//!   path the differential harness proves deterministic, over inputs kept
//!   resident in a [`InputStore`];
//! - a faulting run (operator panic, stall, quarantine overflow) comes
//!   back as a *structured* error response — kind, exit code, canonical
//!   message — and the server stays up: the fault was contained by
//!   `try_run`, and the worker additionally wraps routing in
//!   `catch_unwind` so even a server-side bug downgrades to a 500;
//! - deterministic responses exclude the thread budget, timing, and cache
//!   residency from the body (those ride HTTP headers), so the *bytes* of
//!   a response are a pure function of `(app, input key, seed, executor
//!   config)` — the service-level restatement of the paper's portability
//!   property, and what the e2e battery asserts. (The one exception is an
//!   explicitly requested manifest, which *documents* the budget it was
//!   recorded at; its budget-independence is proven by replay instead.)
//!
//! # Routes
//!
//! | Route | Effect |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /stats` | request / fault / cache counters |
//! | `POST /run` | execute one run (flat JSON request, see [`RunRequest`]) |
//! | `POST /replay` | re-execute a [`RunManifest`] body, verify bit-identity |
//! | `POST /shutdown` | drain and stop the server |

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod lockstep;
pub mod wire;

use galois_core::json::{self, escape, Value};
use galois_core::manifest::ManifestRecorder;
use galois_core::{ExecError, RunManifest};
use galois_harness::{
    executor_for, input_key, replay_run, run_resident, App, InputConfig, InputStore, ReplayError,
    Variant,
};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most worker threads a request may ask for. The executors are portable
/// at any count, but a served budget beyond this is a client bug, not a
/// measurement.
pub const MAX_THREAD_BUDGET: usize = 64;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is
    /// reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads. Each worker serves one connection to completion,
    /// so this is also the number of concurrently-served clients; excess
    /// connections queue.
    pub workers: usize,
    /// On-disk input cache backing cold loads; `None` generates inputs
    /// from scratch.
    pub cache_dir: Option<PathBuf>,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            cache_dir: None,
            max_body: 1 << 20,
        }
    }
}

/// One coherent reading of the request counters. Also the *delta* type:
/// each served request accumulates its outcome tallies into a local
/// `StatsSnapshot` and commits them (together with `requests`) in a single
/// critical section, so a concurrent `GET /stats` can never observe a torn
/// set — e.g. a request counted in `requests` but not yet in `ok`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests parsed off the wire (any route).
    pub requests: u64,
    /// `/run` requests that completed and validated.
    pub ok: u64,
    /// `/run` requests whose run faulted (contained; structured response).
    pub faults: u64,
    /// `/run` requests whose clean run failed app-level validation.
    pub invalid: u64,
    /// Requests rejected before execution (parse/field errors).
    pub bad_requests: u64,
    /// Requests for unknown routes.
    pub not_found: u64,
    /// Routing panics downgraded to 500 by the worker's `catch_unwind`.
    pub worker_panics: u64,
    /// `/replay` requests accepted for re-execution.
    pub replays: u64,
    /// `/replay` requests that diverged from their manifest.
    pub divergences: u64,
}

impl StatsSnapshot {
    fn add(&mut self, delta: &StatsSnapshot) {
        self.requests += delta.requests;
        self.ok += delta.ok;
        self.faults += delta.faults;
        self.invalid += delta.invalid;
        self.bad_requests += delta.bad_requests;
        self.not_found += delta.not_found;
        self.worker_panics += delta.worker_panics;
        self.replays += delta.replays;
        self.divergences += delta.divergences;
    }
}

/// Monotone service counters, exposed at `GET /stats`. All counters live
/// under one mutex: writers commit a whole request's tallies atomically
/// and [`snapshot`](Self::snapshot) reads them all in one lock
/// acquisition.
#[derive(Debug, Default)]
pub struct ServeStats {
    inner: Mutex<StatsSnapshot>,
}

impl ServeStats {
    /// Applies `delta` in one critical section.
    pub fn commit(&self, delta: &StatsSnapshot) {
        self.inner.lock().unwrap().add(delta);
    }

    /// All counters, read coherently under one lock acquisition.
    pub fn snapshot(&self) -> StatsSnapshot {
        *self.inner.lock().unwrap()
    }
}

struct Shared {
    stats: ServeStats,
    store: InputStore,
    stop: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    addr: SocketAddr,
    max_body: usize,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Flags shutdown and unblocks everything that may be waiting: the
    /// accept loop (via a self-connect nudge) and idle workers (via the
    /// condvar). Idle keep-alive connections notice on their next read
    /// timeout tick.
    fn signal_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        self.ready.notify_all();
    }
}

/// A running server. Dropping the handle shuts the server down and joins
/// its threads.
pub struct Server;

/// Handle to a started server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts a server; returns once the accept loop is live.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stats: ServeStats::default(),
            store: InputStore::new(config.cache_dir.clone()),
            stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            addr,
            max_body: config.max_body,
        });

        let mut threads = Vec::with_capacity(config.workers + 1);
        for _ in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(listener, &shared)));
        }
        Ok(ServerHandle { shared, threads })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates shutdown and joins every server thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.signal_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (e.g. via `POST /shutdown`). Used by
    /// the `galois serve` CLI, which has nothing else to do.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.stopped() {
            break;
        }
        let Ok(stream) = stream else { continue };
        if http::prepare(&stream, http::READ_TIMEOUT).is_err() {
            continue;
        }
        let mut queue = shared.queue.lock().unwrap();
        queue.push_back(stream);
        drop(queue);
        shared.ready.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(conn) = queue.pop_front() {
                    break conn;
                }
                if shared.stopped() {
                    return;
                }
                queue = shared.ready.wait(queue).unwrap();
            }
        };
        serve_connection(conn, shared);
    }
}

/// Serves one keep-alive connection to completion.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    // Pipeline buffer: bytes past one request's body are the start of the
    // next pipelined request and must survive between read_request calls.
    let mut carry = Vec::new();
    loop {
        let req = match http::read_request(&mut stream, &shared.stop, shared.max_body, &mut carry) {
            Ok(http::ReadOutcome::Request(req)) => req,
            Ok(http::ReadOutcome::Closed) => return,
            Err(e) => {
                let body = format!(
                    "{{\"status\":\"error\",\"error\":\"{}\"}}",
                    escape(&e.to_string())
                );
                let _ = http::write_response(&mut stream, 400, &[], &body, false);
                return;
            }
        };
        let keep_alive = !req.wants_close() && !shared.stopped();

        // The run itself is already panic-contained by `try_run`; this
        // outer net catches *server* bugs (routing, serialization) so one
        // bad request can never take the process down.
        let t0 = Instant::now();
        let mut delta = StatsSnapshot {
            requests: 1,
            ..StatsSnapshot::default()
        };
        let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route(&req, shared, &mut delta)
        }));
        let (status, mut headers, body) = routed.unwrap_or_else(|_| {
            delta = StatsSnapshot {
                requests: 1,
                worker_panics: 1,
                ..StatsSnapshot::default()
            };
            (
                500,
                Vec::new(),
                "{\"status\":\"error\",\"error\":\"internal server panic\"}".to_string(),
            )
        });
        // One critical section commits the whole request's tallies: a
        // concurrent /stats reader sees either none of them or all.
        shared.stats.commit(&delta);
        headers.push((
            "X-Galois-Micros".to_string(),
            t0.elapsed().as_micros().to_string(),
        ));
        headers.push(stage_header("Read", req.read));
        if http::write_response(&mut stream, status, &headers, &body, keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

type Reply = (u16, Vec<(String, String)>, String);

/// A request's server time, split into consecutive stages: each
/// [`lap`](Self::lap) closes the stage begun at the previous one. The
/// stages lie inside the interval `X-Galois-Micros` measures, so their
/// `X-Galois-Stage-*-Us` headers never sum past it.
struct Stages {
    mark: Instant,
    headers: Vec<(String, String)>,
}

impl Stages {
    fn start() -> Self {
        Stages {
            mark: Instant::now(),
            headers: Vec::new(),
        }
    }

    fn lap(&mut self, stage: &str) {
        let now = Instant::now();
        self.headers.push(stage_header(stage, now - self.mark));
        self.mark = now;
    }
}

fn stage_header(stage: &str, took: Duration) -> (String, String) {
    (
        format!("X-Galois-Stage-{stage}-Us"),
        took.as_micros().to_string(),
    )
}

fn route(req: &http::Request, shared: &Shared, delta: &mut StatsSnapshot) -> Reply {
    match (req.method.as_str(), req.path()) {
        ("GET", "/healthz") => (200, Vec::new(), "{\"status\":\"ok\"}".to_string()),
        ("GET", "/stats") => (200, Vec::new(), stats_body(shared)),
        ("POST", "/run") => handle_run(req, shared, delta),
        ("POST", "/replay") => handle_replay(req, shared, delta),
        ("POST", "/shutdown") => {
            shared.signal_stop();
            (200, Vec::new(), "{\"status\":\"stopping\"}".to_string())
        }
        ("GET" | "POST", _) => {
            delta.not_found += 1;
            (
                404,
                Vec::new(),
                "{\"status\":\"error\",\"error\":\"no such route\"}".to_string(),
            )
        }
        _ => (
            405,
            Vec::new(),
            "{\"status\":\"error\",\"error\":\"method not allowed\"}".to_string(),
        ),
    }
}

fn stats_body(shared: &Shared) -> String {
    // Two lock acquisitions total — one per counter family — each yielding
    // an internally-coherent set (no torn request tallies, no warm hit
    // without its resident entry).
    let s = shared.stats.snapshot();
    let store = shared.store.snapshot();
    format!(
        "{{\"requests\":{},\"ok\":{},\"faults\":{},\"invalid\":{},\"bad_requests\":{},\
         \"not_found\":{},\"worker_panics\":{},\"replays\":{},\"divergences\":{},\
         \"warm_hits\":{},\"cold_loads\":{},\"rebuilds\":{},\"resident_inputs\":{}}}",
        s.requests,
        s.ok,
        s.faults,
        s.invalid,
        s.bad_requests,
        s.not_found,
        s.worker_panics,
        s.replays,
        s.divergences,
        store.warm_hits,
        store.cold_loads,
        store.rebuilds,
        store.resident_inputs,
    )
}

/// One parsed `/run` request.
///
/// The wire form is a flat JSON object; `app` is the only required field:
///
/// ```json
/// {"app": "bfs", "variant": "deterministic", "threads": 4, "seed": 42,
///  "size": 2000, "chaos_seed": 7, "chaos_panics": 3,
///  "round_log": true, "manifest": true}
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    pub app: App,
    pub variant: Variant,
    /// Worker-thread budget for this run (1..=[`MAX_THREAD_BUDGET`]).
    pub threads: usize,
    pub seed: u64,
    pub size: Option<usize>,
    /// Chaos scheduling seed (timing perturbation; fingerprint-invariant
    /// for deterministic runs).
    pub chaos_seed: Option<u64>,
    /// Panic-injection seed: arms operator faults, exercising the
    /// quarantine path.
    pub chaos_panics: Option<u64>,
    /// Stream the canonical round log in the response (deterministic
    /// variant only).
    pub round_log: bool,
    /// Record and return a replayable [`RunManifest`] (deterministic
    /// variant only).
    pub manifest: bool,
}

impl RunRequest {
    /// Parses the JSON wire form, rejecting unknown keys, missing
    /// `app`, and out-of-range budgets — a request either means exactly
    /// one run or names the reason it does not.
    pub fn parse(body: &str) -> Result<RunRequest, String> {
        let mut out = RunRequest {
            app: App::Bfs,
            variant: Variant::Deterministic,
            threads: 2,
            seed: 42,
            size: None,
            chaos_seed: None,
            chaos_panics: None,
            round_log: false,
            manifest: false,
        };
        let mut saw_app = false;
        let mut size = None;
        let Value::Object(fields) = json::parse(body).map_err(|e| e.to_string())? else {
            return Err("a request must be a JSON object".into());
        };
        for (key, value) in fields {
            if value == Value::Null {
                continue;
            }
            match key.as_str() {
                "app" => {
                    let name = value.as_str().ok_or("`app` must be a string")?;
                    out.app =
                        App::from_name(name).ok_or_else(|| format!("unknown app `{name}`"))?;
                    saw_app = true;
                }
                "variant" => {
                    let name = value.as_str().ok_or("`variant` must be a string")?;
                    out.variant = Variant::from_name(name)
                        .ok_or_else(|| format!("unknown variant `{name}`"))?;
                }
                "threads" => {
                    let t = value.as_u64().ok_or("`threads` must be an integer")? as usize;
                    if t == 0 || t > MAX_THREAD_BUDGET {
                        return Err(format!(
                            "`threads` must be in 1..={MAX_THREAD_BUDGET}, got {t}"
                        ));
                    }
                    out.threads = t;
                }
                "seed" => out.seed = value.as_u64().ok_or("`seed` must be an integer")?,
                "size" => {
                    let n = value.as_u64().ok_or("`size` must be an integer")?;
                    if n == 0 {
                        return Err("`size` must be positive".into());
                    }
                    size = Some(n);
                }
                "chaos_seed" => {
                    out.chaos_seed = Some(value.as_u64().ok_or("`chaos_seed` must be an integer")?)
                }
                "chaos_panics" => {
                    out.chaos_panics =
                        Some(value.as_u64().ok_or("`chaos_panics` must be an integer")?)
                }
                "round_log" => {
                    out.round_log = value.as_bool().ok_or("`round_log` must be a boolean")?
                }
                "manifest" => {
                    out.manifest = value.as_bool().ok_or("`manifest` must be a boolean")?
                }
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        if !saw_app {
            return Err("missing required field `app`".into());
        }
        // Checked once the app is known, whatever the field order: a size
        // past the app's maximum would exhaust memory in the build.
        if let Some(n) = size {
            out.size = Some(out.app.check_size(n).map_err(|e| format!("`size`: {e}"))?);
        }
        // Only deterministic runs have rounds, so only they have a round
        // log or a hash chain to record.
        if out.round_log && out.variant != Variant::Deterministic {
            return Err("`round_log` requires the deterministic variant".into());
        }
        if out.manifest && out.variant != Variant::Deterministic {
            return Err("`manifest` requires the deterministic variant".into());
        }
        Ok(out)
    }

    fn input(&self) -> InputConfig {
        InputConfig {
            seed: self.seed,
            size: self.size,
            ..Default::default()
        }
    }
}

fn bad_request(delta: &mut StatsSnapshot, msg: &str) -> Reply {
    delta.bad_requests += 1;
    (
        400,
        Vec::new(),
        format!("{{\"status\":\"error\",\"error\":\"{}\"}}", escape(msg)),
    )
}

fn handle_run(req: &http::Request, shared: &Shared, delta: &mut StatsSnapshot) -> Reply {
    let mut stages = Stages::start();
    let run_req = match req.body_str().and_then(RunRequest::parse) {
        Ok(r) => r,
        Err(e) => return bad_request(delta, &e),
    };
    stages.lap("Parse");
    let input = run_req.input();
    let key = input_key(run_req.app, &input);
    let (resident, residency) = shared.store.get(run_req.app, &input);
    stages.lap("Store");

    let mut exec = executor_for(
        run_req.app,
        run_req.variant,
        run_req.threads,
        run_req.chaos_seed,
    );
    if let Some(panic_seed) = run_req.chaos_panics {
        exec = exec.chaos_panics(panic_seed);
    }
    if run_req.round_log {
        exec = exec.record_rounds(true);
    }
    let mut rec = run_req.manifest.then(ManifestRecorder::new);

    let result = run_resident(run_req.app, &exec, &resident, rec.as_mut());
    stages.lap("Run");

    let prelude = format!(
        "\"app\":\"{}\",\"variant\":\"{}\",\"input_key\":\"{}\",\"seed\":{}",
        run_req.app.name(),
        run_req.variant.name(),
        escape(&key),
        run_req.seed
    );
    let (status, body) = match result {
        Err(validation) => {
            delta.invalid += 1;
            (500, invalid_body(&prelude, &validation))
        }
        Ok(Err(fault)) => {
            delta.faults += 1;
            (500, fault_body(&prelude, &fault))
        }
        Ok(Ok(run)) => {
            delta.ok += 1;
            let out = &run.outcome;
            let mut body = format!(
                "{{\"status\":\"ok\",{prelude},\"fingerprint\":\"{:016x}\",\
                 \"output_hash\":\"{:016x}\",\"log_hash\":\"{:016x}\",\
                 \"rounds\":{},\"committed\":{},\"aborted\":{},\"injected_aborts\":{}",
                out.fingerprint,
                out.output_hash,
                out.log_hash,
                out.rounds,
                out.committed,
                out.aborted,
                out.injected_aborts
            );
            if run_req.round_log {
                // Only the chain-hashed scalars are streamed: these five
                // fields are exactly what `RoundChain::push` digests, so a
                // client can recompute `log_hash` from the streamed log —
                // and they are thread-invariant for deterministic runs.
                body.push_str(",\"round_log\":[");
                for (i, r) in run.records.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&format!(
                        "{{\"round\":{},\"window\":{},\"attempted\":{},\"committed\":{},\"failed\":{}}}",
                        r.round, r.window, r.attempted, r.committed, r.failed
                    ));
                }
                body.push(']');
            }
            if let Some(rec) = rec {
                let manifest = rec.finish(
                    run_req.app.name(),
                    &key,
                    run_req.seed,
                    run_req.size.map(|s| s as u64).unwrap_or(0),
                    out.output_hash,
                );
                body.push_str(",\"manifest\":");
                body.push_str(manifest.to_json().trim_end());
            }
            body.push('}');
            (200, body)
        }
    };
    stages.lap("Serialize");
    // Residency and timing ride headers, never the body: response bodies
    // must be byte-identical across thread budgets and cache states.
    let mut headers = vec![("X-Galois-Cache".to_string(), residency.name().to_string())];
    headers.append(&mut stages.headers);
    (status, headers, body)
}

fn invalid_body(prelude: &str, error: &str) -> String {
    format!(
        "{{\"status\":\"invalid\",{prelude},\"error\":\"{}\"}}",
        escape(error)
    )
}

fn fault_body(prelude: &str, fault: &ExecError) -> String {
    let mut body = format!(
        "{{\"status\":\"fault\",{prelude},\"kind\":\"{}\",\"exit_code\":{},\"error\":\"{}\"",
        fault.kind(),
        fault.exit_code(),
        escape(&fault.to_string())
    );
    if let ExecError::OperatorPanic { task_id, round, .. } = fault {
        body.push_str(&format!(",\"task_id\":{task_id},\"round\":{round}"));
    }
    body.push('}');
    body
}

fn handle_replay(req: &http::Request, shared: &Shared, delta: &mut StatsSnapshot) -> Reply {
    let mut stages = Stages::start();
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return bad_request(delta, &e),
    };
    let manifest = match RunManifest::from_json(body) {
        Ok(m) => m,
        Err(e) => return bad_request(delta, &format!("manifest rejected: {e}")),
    };
    let threads = match req.query("threads") {
        None => 2,
        Some(t) => match t.parse::<usize>() {
            Ok(t) if (1..=MAX_THREAD_BUDGET).contains(&t) => t,
            _ => return bad_request(delta, "`threads` must be in 1..=64"),
        },
    };
    delta.replays += 1;
    stages.lap("Parse");
    // The input build happens inside the replay, so Run includes it.
    let cache_dir = shared.store.cache_dir().map(|p| p.to_path_buf());
    let result = replay_run(&manifest, threads, cache_dir);
    stages.lap("Run");
    let prelude = format!(
        "\"app\":\"{}\",\"input_key\":\"{}\"",
        escape(&manifest.app),
        escape(&manifest.input_key)
    );
    let (status, body) = match result {
        Ok(out) => (
            200,
            format!(
                "{{\"status\":\"ok\",{prelude},\"fingerprint\":\"{:016x}\",\"rounds\":{}}}",
                out.fingerprint, out.rounds
            ),
        ),
        Err(ReplayError::Divergence(d)) => {
            delta.divergences += 1;
            (
                409,
                format!(
                    "{{\"status\":\"diverged\",{prelude},\"round\":{},\
                     \"expected\":\"{:016x}\",\"actual\":\"{:016x}\"}}",
                    d.round, d.expected, d.actual
                ),
            )
        }
        Err(ReplayError::Exec(fault)) => {
            delta.faults += 1;
            (500, fault_body(&prelude, &fault))
        }
        Err(e @ (ReplayError::Manifest(_) | ReplayError::Mismatch(_))) => {
            return bad_request(delta, &e.to_string())
        }
        Err(e @ ReplayError::Validation(_)) => {
            delta.invalid += 1;
            (500, invalid_body(&prelude, &e.to_string()))
        }
    };
    stages.lap("Serialize");
    (status, stages.headers, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_defaults_and_rejections() {
        let r = RunRequest::parse(r#"{"app":"bfs"}"#).unwrap();
        assert_eq!(r.app, App::Bfs);
        assert_eq!(r.variant, Variant::Deterministic);
        assert_eq!(r.threads, 2);
        assert_eq!(r.seed, 42);
        assert!(!r.round_log && !r.manifest);

        let r =
            RunRequest::parse(r#"{"app":"mis","variant":"g-n","threads":8,"seed":7,"size":500}"#)
                .unwrap();
        assert_eq!(r.app, App::Mis);
        assert_eq!(r.variant, Variant::Speculative);
        assert_eq!((r.threads, r.seed, r.size), (8, 7, Some(500)));
        let r = RunRequest::parse(r#"{"app":"mis","round_log":true}"#).unwrap();
        assert!(r.round_log);

        assert!(RunRequest::parse(r#"{}"#).is_err());
        assert!(RunRequest::parse(r#"{"app":"nope"}"#).is_err());
        assert!(RunRequest::parse(r#"{"app":"bfs","threads":0}"#).is_err());
        assert!(RunRequest::parse(r#"{"app":"bfs","threads":65}"#).is_err());
        assert!(RunRequest::parse(r#"{"app":"bfs","bogus":1}"#).is_err());
        assert!(RunRequest::parse(r#"{"app":"bfs","variant":"g-n","manifest":true}"#).is_err());
        assert!(RunRequest::parse(r#"{"app":"bfs","variant":"g-n","round_log":true}"#).is_err());

        // Sizes are bounded per app, checked whatever the field order.
        let max = App::Dmr.max_size();
        let at_max = RunRequest::parse(&format!(r#"{{"size":{max},"app":"dmr"}}"#)).unwrap();
        assert_eq!(at_max.size, Some(max));
        for size in [max as u64 + 1, u64::MAX] {
            let err = RunRequest::parse(&format!(r#"{{"size":{size},"app":"dmr"}}"#)).unwrap_err();
            assert!(err.contains("exceeds dmr's maximum"), "{err}");
        }
    }

    /// The two bodies that carry a free-form message (a validator's
    /// rejection, a panic payload) are strict JSON whatever it holds.
    #[test]
    fn invalid_and_fault_bodies_are_strict_json() {
        let prelude = "\"app\":\"bfs\",\"seed\":42";
        let nasty = "line\n \"quoted\" back\\slash \u{1} é";
        let invalid = json::parse(&invalid_body(prelude, nasty)).unwrap();
        assert_eq!(invalid.get("error").and_then(Value::as_str), Some(nasty));
        let fault = ExecError::OperatorPanic {
            task_id: 7,
            round: 3,
            message: nasty.to_string(),
        };
        let body = json::parse(&fault_body(prelude, &fault)).unwrap();
        assert_eq!(body.get("status").and_then(Value::as_str), Some("fault"));
        assert_eq!(body.get("task_id").and_then(Value::as_u64), Some(7));
    }

    #[test]
    fn healthz_and_shutdown_round_trip() {
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let resp = client::get(&addr, "/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"status\":\"ok\"}");
        let resp = client::get(&addr, "/nope").unwrap();
        assert_eq!(resp.status, 404);
        let resp = client::post(&addr, "/shutdown", "").unwrap();
        assert_eq!(resp.status, 200);
        handle.shutdown();
    }
}
