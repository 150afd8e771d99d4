//! The run recipe of each application: the one home of per-app facts and
//! of the paper's (app × variant) evaluation matrix (§4.1).
//!
//! "The program and its input" — what a deterministic run's output is a
//! function of — is, per app: the executor shape it runs under (locality
//! spread, worklist), its input family (default size, identity key,
//! generator call), and how a finished run is verified and hashed. Every
//! surface that runs an app by name (differential harness, `galois` CLI,
//! `galois-serve`, benches) looks those facts up here, so a CLI run, a served
//! request and a recorded manifest name the same computation.
//!
//! A new observer is a [`Hooks`] field and a new surface is a caller of
//! [`App::run`] — never another per-app entry point.

use crate::{bfs, dmr, dt, mis, mm, pfp};
use galois_core::{
    DetOptions, ExecError, Executor, Hooks, RoundLog, RunReport, Schedule, WorklistPolicy,
};
use galois_graph::cache::{self, CacheOutcome};
use galois_graph::{gen, CsrGraph, FlowNetwork};
use galois_mesh::Mesh;
use galois_runtime::fingerprint::{hash_u32s, Fnv64};
use galois_runtime::simtime::ExecTrace;
use galois_runtime::stats::ExecStats;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark applications (§4.1 of the paper, plus maximal matching).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Breadth-first search labelling.
    Bfs,
    /// Maximal independent set.
    Mis,
    /// Maximal matching.
    Mm,
    /// Delaunay triangulation.
    Dt,
    /// Delaunay mesh refinement.
    Dmr,
    /// Preflow-push max-flow.
    Pfp,
}

/// How an app is run: the columns of the paper's evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The app's operator under the serial executor (`seq`) — the
    /// differential oracle.
    Serial,
    /// Non-deterministic speculative Galois (`g-n`).
    Speculative,
    /// Deterministically scheduled Galois (`g-d`).
    Deterministic,
    /// Handwritten determinism-by-construction implementation on
    /// [`pbbs_det`] primitives (`pbbs`).
    Pbbs,
}

impl Variant {
    /// Every variant, in the paper's column order.
    pub const ALL: [Variant; 4] = [
        Variant::Serial,
        Variant::Speculative,
        Variant::Deterministic,
        Variant::Pbbs,
    ];

    /// Name used in manifests and over HTTP.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Serial => "serial",
            Variant::Speculative => "speculative",
            Variant::Deterministic => "deterministic",
            Variant::Pbbs => "pbbs",
        }
    }

    /// The paper's label, used on the command line and in tables.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Serial => "seq",
            Variant::Speculative => "g-n",
            Variant::Deterministic => "g-d",
            Variant::Pbbs => "pbbs",
        }
    }

    /// Parses either spelling ([`name`](Self::name) or
    /// [`label`](Self::label)).
    pub fn from_name(name: &str) -> Option<Variant> {
        Variant::ALL
            .into_iter()
            .find(|v| v.name() == name || v.label() == name)
    }

    /// The schedule this variant runs the app's operator under. pbbs runs
    /// no operator — [`App::run`] reads only its executor's thread count and
    /// trace flag — so it is given the serial schedule.
    pub fn schedule(self) -> Schedule {
        match self {
            Variant::Serial | Variant::Pbbs => Schedule::Serial,
            Variant::Speculative => Schedule::Speculative,
            Variant::Deterministic => Schedule::deterministic(),
        }
    }

    /// The executor variant `exec` runs: the one its schedule names.
    pub fn of(exec: &Executor) -> Variant {
        match exec.scheduler() {
            Schedule::Serial => Variant::Serial,
            Schedule::Speculative => Variant::Speculative,
            Schedule::Deterministic(_) => Variant::Deterministic,
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An app's input, materialized for (potentially repeated) execution.
#[derive(Clone)]
pub enum Input {
    /// CSR graph (bfs directed, mis/mm undirected) — immutable, shared.
    Graph(Arc<CsrGraph>),
    /// Point set for Delaunay triangulation, plus the BRIO seed.
    Points {
        /// The points themselves.
        pts: Arc<Vec<galois_geometry::point::Point>>,
        /// Seed for the biased randomized insertion order.
        seed: u64,
    },
    /// A mesh *recipe* for dmr: refinement consumes the mesh, so only the
    /// generator parameters are kept and the mesh is rebuilt per run.
    MeshSpec {
        /// Input point count.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Flow network for pfp — immutable, shared: each run owns its
    /// residual capacities.
    Flow(Arc<FlowNetwork>),
}

/// A completed, verified run, reduced to what cross-run comparison needs.
#[derive(Debug)]
pub struct Finished {
    /// Hash of the app's output (distances, flags, mates, canonical mesh
    /// geometry, flow value).
    pub output_hash: u64,
    /// The run's round logs when the executor recorded rounds — one per
    /// executor pass (pfp runs one pass per bout; join them with
    /// [`RoundLog::concat`]).
    pub logs: Vec<RoundLog>,
    /// Executor statistics, merged across passes. A pbbs run fills the
    /// commit, abort, atomic-update and round counts, the elapsed time of
    /// its compute section and the thread count.
    pub stats: ExecStats,
    /// Virtual-time trace, when the executor recorded one (pfp's bouts
    /// merged into one trace).
    pub trace: Option<ExecTrace>,
    /// Per-thread abstract-location access streams, when the executor
    /// recorded them.
    pub accesses: Option<Vec<Vec<u32>>>,
}

impl Finished {
    fn one_pass(output_hash: u64, mut report: RunReport) -> Finished {
        Finished {
            output_hash,
            logs: report.take_round_log().into_iter().collect(),
            accesses: report.accesses.map(|per| {
                per.into_iter()
                    .map(|v| v.into_iter().map(|a| a.loc).collect())
                    .collect()
            }),
            trace: report.trace,
            stats: report.stats,
        }
    }
}

/// `f`'s result and how long it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// One per-thread access stream for a multi-bout run: each thread's bouts
/// back to back.
fn merge_accesses(bouts: &mut [RunReport]) -> Option<Vec<Vec<u32>>> {
    let mut merged: Option<Vec<Vec<u32>>> = None;
    for per in bouts.iter_mut().filter_map(|bout| bout.accesses.take()) {
        let merged = merged.get_or_insert_with(Vec::new);
        merged.resize_with(merged.len().max(per.len()), Vec::new);
        for (tid, stream) in per.into_iter().enumerate() {
            merged[tid].extend(stream.into_iter().map(|a| a.loc));
        }
    }
    merged
}

fn hash_mesh(mesh: &Mesh) -> u64 {
    let mut h = Fnv64::new();
    for tri in galois_mesh::check::canonical_triangles(mesh) {
        for (x, y) in tri {
            h.write_i64(x);
            h.write_i64(y);
        }
    }
    h.finish()
}

impl App {
    /// Every app, in the order the harness sweeps them.
    pub const ALL: [App; 6] = [App::Bfs, App::Mis, App::Mm, App::Dt, App::Dmr, App::Pfp];

    /// Lowercase name used on command lines, in manifests and over HTTP.
    pub fn name(self) -> &'static str {
        match self {
            App::Bfs => "bfs",
            App::Mis => "mis",
            App::Mm => "mm",
            App::Dt => "dt",
            App::Dmr => "dmr",
            App::Pfp => "pfp",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<App> {
        App::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The executor this app runs under at `threads` workers: `schedule`
    /// with the app's locality spread (dt/dmr tasks adjacent in creation
    /// order have overlapping cavities, so their ids are spread across
    /// rounds — §3.3) and the app's worklist (label-correcting bfs and
    /// wave-propagating pfp need breadth-like order under speculation; the
    /// deterministic and serial schedulers never read it).
    pub fn executor(self, schedule: Schedule, threads: usize) -> Executor {
        let (locality_spread, worklist) = match self {
            App::Dt | App::Dmr => (16, WorklistPolicy::Lifo),
            App::Bfs | App::Pfp => (1, WorklistPolicy::Fifo),
            App::Mis | App::Mm => (1, WorklistPolicy::Lifo),
        };
        let schedule = match schedule {
            Schedule::Deterministic(opts) => Schedule::Deterministic(DetOptions {
                locality_spread,
                ..opts
            }),
            other => other,
        };
        Executor::new()
            .threads(threads)
            .schedule(schedule)
            .worklist(worklist)
    }

    /// The size (nodes / points) of this app's default corpus input — what a
    /// manifest's `size: 0` means.
    pub fn default_size(self) -> usize {
        match self {
            App::Bfs => 2_000,
            App::Mis | App::Mm => 1_500,
            App::Dt => 300,
            App::Dmr => 120,
            App::Pfp => 96,
        }
    }

    /// The size a `galois <app>` run builds when no `--size` is given:
    /// larger than the corpus, so a one-shot run has work to measure.
    pub fn cli_size(self) -> usize {
        match self {
            App::Bfs | App::Mis | App::Mm => 200_000,
            App::Dt => 25_000,
            App::Dmr => 3_000,
            App::Pfp => 8_192,
        }
    }

    /// The largest size a request, a manifest or a CLI `--size` may name:
    /// above every size the CLI defaults, tests and benches use (the
    /// generator bench's 10^6 nodes included), and small enough that one
    /// build — and the run over it — stays well under 1 GB.
    pub fn max_size(self) -> usize {
        match self {
            App::Bfs | App::Mis | App::Mm => 1 << 20,
            App::Dt | App::Pfp => 1 << 18,
            App::Dmr => 1 << 15,
        }
    }

    /// `n` as a size of this app, or why it is refused (above
    /// [`max_size`](Self::max_size)): a build that large would exhaust
    /// memory or overflow a capacity instead of answering.
    pub fn check_size(self, n: u64) -> Result<usize, String> {
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.max_size())
            .ok_or_else(|| format!("size {n} exceeds {self}'s maximum of {}", self.max_size()))
    }

    /// The canonical identity of the size-`n`, seed-`seed` input: the string
    /// on-disk cache files are named by and a manifest pins. mis and mm
    /// share one undirected graph family, hence one key.
    pub fn input_key(self, n: usize, seed: u64) -> String {
        match self {
            App::Bfs => format!("uniform-n{n}-d5-s{seed}"),
            App::Mis | App::Mm => format!("uniform-und-n{n}-d4-s{seed}"),
            App::Dt => format!("points-n{n}-s{seed}"),
            App::Dmr => format!("mesh-n{n}-s{seed}"),
            App::Pfp => format!("flowrand-n{n}-d4-c100-s{seed}"),
        }
    }

    /// Builds the input [`input_key`](Self::input_key) names, on
    /// `build_threads` threads (the parallel generators are byte-identical
    /// for every value), through the on-disk cache in `cache_dir` when one
    /// is given. The point-set inputs (dt, dmr) are too cheap to cache and
    /// always report [`CacheOutcome::Disabled`].
    pub fn materialize(
        self,
        n: usize,
        seed: u64,
        build_threads: usize,
        cache_dir: Option<&Path>,
    ) -> (Input, CacheOutcome) {
        let key = self.input_key(n, seed);
        let graph = |(g, cached)| (Input::Graph(Arc::new(g)), cached);
        match self {
            App::Bfs => graph(cache::load_or_build_graph(cache_dir, &key, || {
                gen::uniform_random_parallel(n, 5, seed, build_threads)
            })),
            App::Mis | App::Mm => graph(cache::load_or_build_graph(cache_dir, &key, || {
                gen::uniform_random_undirected_parallel(n, 4, seed, build_threads)
            })),
            App::Dt => {
                let pts = Arc::new(dt::make_input(n, seed));
                (Input::Points { pts, seed }, CacheOutcome::Disabled)
            }
            App::Dmr => (Input::MeshSpec { n, seed }, CacheOutcome::Disabled),
            App::Pfp => {
                let (net, cached) = cache::load_or_build_flow(cache_dir, &key, || {
                    FlowNetwork::random_parallel(n, 4, 100, seed, build_threads)
                });
                (Input::Flow(Arc::new(net)), cached)
            }
        }
    }

    /// `variant` as a variant of this app, or why the app has none: pfp
    /// has no PBBS counterpart (§4.1).
    pub fn check_variant(self, variant: Variant) -> Result<(), String> {
        match (self, variant) {
            (App::Pfp, Variant::Pbbs) => Err("pfp has no PBBS variant (§4.1)".into()),
            _ => Ok(()),
        }
    }

    /// What this app's verifier establishes of an output it accepts.
    pub fn verified_claim(self) -> &'static str {
        match self {
            App::Bfs => "distances exact",
            App::Mis => "independent and maximal",
            App::Mm => "valid maximal matching",
            App::Dt => "valid Delaunay triangulation",
            App::Dmr => "conforming refined Delaunay mesh",
            App::Pfp => "valid flow assignment",
        }
    }

    /// Runs `variant` of this app over `input`, verifies the output with the
    /// app's own verifier and hashes it. The executor variants run the app's
    /// operator under `exec` with `hooks` attached; [`Variant::Pbbs`] runs
    /// the handwritten implementation and reads only `exec`'s thread count
    /// and trace flag. Three endings: outer `Err` = the output failed
    /// verification (or the app has no such variant, or `input` is another
    /// app's kind), inner `Err` = a contained executor fault (no output to
    /// verify), inner `Ok` = a verified [`Finished`].
    pub fn run(
        self,
        variant: Variant,
        exec: &Executor,
        input: &Input,
        hooks: Hooks<'_>,
    ) -> Result<Result<Finished, ExecError>, String> {
        self.check_variant(variant)?;
        let pbbs = variant == Variant::Pbbs;
        let (threads, trace) = (exec.thread_count(), exec.records_trace());
        // A pbbs run's counts `[committed, aborted, atomic_updates, rounds]`
        // as executor statistics, with its rounds as the trace when asked
        // for. `atomic_updates` (Figure 5's atomics column) counts the
        // priority writes of bfs, dt and dmr but the reserve invocations of
        // mis and mm.
        let pbbs_done = |output_hash,
                         [committed, aborted, atomic_updates, rounds]: [u64; 4],
                         elapsed,
                         round_log| Finished {
            output_hash,
            logs: Vec::new(),
            stats: ExecStats {
                committed,
                aborted,
                atomic_updates,
                rounds,
                elapsed,
                threads,
                ..ExecStats::default()
            },
            trace: trace.then_some(ExecTrace::Rounds(round_log)),
            accesses: None,
        };
        // Each arm: the app's verifier verdict beside the reduced run.
        let ran = match (self, input) {
            (App::Bfs, Input::Graph(g)) if pbbs => {
                let ((dist, _parents, s), t) = timed(|| bfs::pbbs(g, 0, threads, trace));
                // Atomics: the edge relaxations' priority writes.
                let counts = [s.visited, 0, s.atomic_updates, s.rounds];
                let done = pbbs_done(hash_u32s(&dist), counts, t, s.round_log);
                Ok((bfs::verify(g, 0, &dist), done))
            }
            (App::Bfs, Input::Graph(g)) => bfs::run(g, 0, exec, hooks).map(|(dist, r)| {
                let verdict = bfs::verify(g, 0, &dist);
                (verdict, Finished::one_pass(hash_u32s(&dist), r))
            }),
            (App::Mis, Input::Graph(g)) if pbbs => {
                let ((flags, s), t) = timed(|| mis::pbbs(g, threads, trace));
                // Atomics: the reserve invocations.
                let counts = [s.committed, s.aborted, s.reserved, s.rounds];
                let done = pbbs_done(hash_u32s(&flags), counts, t, s.round_log);
                Ok((mis::verify(g, &flags), done))
            }
            (App::Mis, Input::Graph(g)) => mis::run(g, exec, hooks).map(|(flags, r)| {
                let verdict = mis::verify(g, &flags);
                (verdict, Finished::one_pass(hash_u32s(&flags), r))
            }),
            (App::Mm, Input::Graph(g)) if pbbs => {
                let ((mate, s), t) = timed(|| mm::pbbs(g, threads, trace));
                // Atomics: the reserve invocations.
                let counts = [s.committed, s.aborted, s.reserved, s.rounds];
                let done = pbbs_done(hash_u32s(&mate), counts, t, s.round_log);
                Ok((mm::verify(g, &mate), done))
            }
            (App::Mm, Input::Graph(g)) => mm::run(g, exec, hooks).map(|(mate, r)| {
                let verdict = mm::verify(g, &mate);
                (verdict, Finished::one_pass(hash_u32s(&mate), r))
            }),
            (App::Dt, Input::Points { pts, seed }) if pbbs => {
                let ((mesh, s), t) = timed(|| dt::pbbs(pts, *seed, threads, trace));
                // Atomics: the lock-set priority writes.
                let counts = [s.committed, s.aborted, s.priority_writes, s.rounds];
                let done = pbbs_done(hash_mesh(&mesh), counts, t, s.round_log);
                Ok((dt::verify(&mesh), done))
            }
            (App::Dt, Input::Points { pts, seed }) => dt::run(pts, *seed, exec, hooks)
                .map(|(mesh, r)| (dt::verify(&mesh), Finished::one_pass(hash_mesh(&mesh), r))),
            (App::Dmr, Input::MeshSpec { n, seed }) if pbbs => {
                let mesh = dmr::make_input(*n, *seed);
                let (s, t) = timed(|| dmr::pbbs(&mesh, threads, trace));
                // Atomics: the lock-set priority writes.
                let counts = [s.committed, s.aborted, s.priority_writes, s.rounds];
                let done = pbbs_done(hash_mesh(&mesh), counts, t, s.round_log);
                Ok((dmr::verify(&mesh), done))
            }
            (App::Dmr, Input::MeshSpec { n, seed }) => {
                let mesh = dmr::make_input(*n, *seed);
                dmr::run(&mesh, exec, hooks)
                    .map(|r| (dmr::verify(&mesh), Finished::one_pass(hash_mesh(&mesh), r)))
            }
            (App::Pfp, Input::Flow(net)) => pfp::run(net, exec, hooks).map(|(flow, mut r)| {
                let mut h = Fnv64::new();
                h.write_i64(flow.value);
                let finished = Finished {
                    output_hash: h.finish(),
                    logs: r.take_round_logs(),
                    trace: ExecTrace::concat(
                        r.reports.iter_mut().filter_map(|bout| bout.trace.take()),
                    ),
                    accesses: merge_accesses(&mut r.reports),
                    stats: r.stats,
                };
                (pfp::verify(&flow), finished)
            }),
            _ => return Err(format!("input does not match app {self} — keys crossed")),
        };
        let (verdict, finished) = match ran {
            Ok(ran) => ran,
            Err(fault) => return Ok(Err(fault)),
        };
        verdict.map_err(|e| format!("{self}: {e}"))?;
        Ok(Ok(finished))
    }
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}
