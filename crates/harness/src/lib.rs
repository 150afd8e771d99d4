//! Cross-executor differential harness.
//!
//! The paper's determinism claim is a *portability* claim: a deterministic
//! Galois run is a pure function of the algorithm and its input, not of the
//! thread count or of how the OS happens to interleave threads. The chaos
//! layer ([`galois_runtime::chaos`]) makes "how the OS interleaves threads"
//! an explicit, seeded input; this crate closes the loop by running every
//! benchmark application under three executors and checking what each one
//! owes:
//!
//! - **serial** — the semantic oracle; one thread, no chaos, ever.
//! - **speculative** (`g-n`) — output need only *validate* (per-app
//!   verifier, plus equality with the oracle where the output value is
//!   unique, e.g. BFS distances and the max-flow value).
//! - **deterministic** (`g-d`) — output *and* the canonical round log must
//!   be byte-identical across **every** (thread count, chaos seed) pair.
//!
//! On a deterministic divergence the harness does not just fail: it shrinks
//! the failing matrix to a minimal `(app, threads, seeds)` cell pair and
//! prints a one-line `cargo run` reproduction command, so a scheduler bug
//! found on an 8-thread × 8-seed sweep arrives as a two-run repro.

#![forbid(unsafe_code)]

use galois_core::manifest::{
    ManifestError, ManifestRecorder, ReplayDivergence, RunManifest, ScheduleKind,
};
use galois_core::{ExecError, Executor, RoundLog, RoundRecord};
use galois_graph::cache::CacheOutcome;
use galois_runtime::fingerprint::{run_fingerprint, RoundChain};
use galois_runtime::stats::ExecStats;
use std::fmt;
use std::path::PathBuf;

pub mod lockstep;
pub mod resident;
pub mod subprocess;
pub mod sweep;

pub use galois_apps as apps;
/// The benchmark applications the harness covers and the variants they run
/// in, with their run recipes ([`galois_apps::recipe`]).
pub use galois_apps::recipe::{App, Variant};
pub use galois_graph::cache::CacheOutcome as InputCacheOutcome;
pub use resident::{
    load_input, run_resident, InputStore, Residency, ResidentInput, ResidentRun, StoreSnapshot,
};
// The harness used to carry its own private FNV implementation; all hashing
// now goes through the runtime's single authority (see
// `galois_runtime::fingerprint`). The re-export keeps the harness API.
pub use galois_runtime::fingerprint::Fnv64;

/// What one run is reduced to for cross-run comparison.
///
/// `fingerprint` folds together everything that must be invariant for a
/// deterministic run: the output hash, the canonical round log hash, and
/// the schedule-derived counters. `injected_aborts` is deliberately **not**
/// part of it — it is seed-dependent by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    pub fingerprint: u64,
    pub output_hash: u64,
    pub log_hash: u64,
    pub rounds: u64,
    pub committed: u64,
    pub aborted: u64,
    pub injected_aborts: u64,
}

/// Chains rounds across multi-pass runs (pfp bouts) into one monotone
/// sequence ([`RoundLog::concat`], which the CLI's --round-log writer
/// calls too) and reduces the run to a [`RunOutcome`] plus the renumbered
/// records themselves (so a server can stream the canonical round log
/// without re-running). The chain covers the
/// schedule-derived scalars of each round but NOT the conflict
/// attribution: conflict entries name abstract lock ids, and for the
/// mesh apps those are arena triangle ids whose allocation order is
/// thread-count-dependent even though the schedule (and the geometry,
/// covered by `output_hash`) is not.
pub(crate) fn reduce_run(
    output_hash: u64,
    logs: Vec<RoundLog>,
    stats: &ExecStats,
) -> (RunOutcome, Vec<RoundRecord>) {
    let records = RoundLog::concat(logs).into_records();
    let mut chain = RoundChain::new();
    for rec in &records {
        chain.push(rec);
    }
    let log_hash = chain.log_hash();
    let rounds = chain.rounds();
    let outcome = RunOutcome {
        fingerprint: run_fingerprint(
            output_hash,
            log_hash,
            rounds,
            stats.committed,
            stats.aborted,
        ),
        output_hash,
        log_hash,
        rounds,
        committed: stats.committed,
        aborted: stats.aborted,
        injected_aborts: stats.injected_aborts,
    };
    (outcome, records)
}

#[cfg(test)]
fn outcome(output_hash: u64, logs: Vec<RoundLog>, stats: &ExecStats) -> RunOutcome {
    reduce_run(output_hash, logs, stats).0
}

/// Hook that may replace the executor a run would use — the harness's
/// mutation-testing seam. The identity hook is [`unperturbed`]; the
/// harness's own tests plant scheduler perturbations here and assert the
/// differential sweep catches them.
pub type Mutation<'a> = &'a (dyn Fn(App, Variant, usize, Option<u64>, Executor) -> Executor + Sync);

/// The identity [`Mutation`].
pub fn unperturbed(_: App, _: Variant, _: usize, _: Option<u64>, exec: Executor) -> Executor {
    exec
}

/// The executor each app runs under: the app's own shape
/// ([`App::executor`]) with the harness's round recording and chaos on top.
/// The CLI and the serving layer build their executors here too, so a CLI
/// run, a served request and a differential-sweep cell are the same
/// computation. [`Variant::Pbbs`] runs no operator: its executor carries
/// the thread count [`App::run`] reads. The round log it records feeds
/// the run fingerprint, which reads no conflicts, so it collects none.
pub fn executor_for(
    app: App,
    variant: Variant,
    threads: usize,
    chaos_seed: Option<u64>,
) -> Executor {
    let mut exec = app
        .executor(variant.schedule(), threads)
        // Only the deterministic scheduler has rounds to log.
        .record_rounds(variant == Variant::Deterministic);
    if let Some(seed) = chaos_seed {
        exec = exec.chaos(seed);
    }
    exec
}

/// How one run's input is produced: the generator seed, the thread count
/// the input *builder* uses (the parallel generators are byte-identical
/// for every value, so this never affects results), and an optional
/// on-disk cache directory for generated inputs.
#[derive(Debug, Clone)]
pub struct InputConfig {
    /// Seed for the input generators.
    pub seed: u64,
    /// Threads used to generate and CSR-build the input.
    pub build_threads: usize,
    /// Directory for the on-disk input cache; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Input size override (nodes / points / triangles per app); `None`
    /// uses each app's default corpus size.
    pub size: Option<usize>,
}

impl Default for InputConfig {
    fn default() -> Self {
        InputConfig {
            seed: 42,
            build_threads: 1,
            cache_dir: None,
            size: None,
        }
    }
}

impl InputConfig {
    /// An uncached, sequentially-built input from `seed` — the historical
    /// `run_app` behaviour.
    pub fn from_seed(seed: u64) -> Self {
        InputConfig {
            seed,
            ..Default::default()
        }
    }

    /// The effective size parameter for `app` (the override, or the app's
    /// default corpus size).
    pub fn size_for(&self, app: App) -> usize {
        self.size.unwrap_or(app.default_size())
    }
}

/// The canonical input-identity key for one `(app, size, seed)` — the same
/// string the on-disk input cache files are named by, and the string a
/// [`RunManifest`] pins so a replay provably re-runs the same input family.
pub fn input_key(app: App, input: &InputConfig) -> String {
    app.input_key(input.size_for(app), input.seed)
}

/// Runs one `(app, variant, threads, chaos seed)` cell: builds (or loads
/// from cache) the input described by `input`, runs, validates the output,
/// and reduces the run to a [`RunOutcome`]. Validation failure is an `Err`
/// with the verifier's message.
///
/// Without panic chaos armed an executor fault is a containment-layer bug,
/// so it propagates as a panic carrying the fault's message. Use
/// [`run_app_panic`] when faults are expected.
///
/// The returned [`CacheOutcome`] says whether the input came from the
/// cache; the point-set apps (dt, dmr) generate inputs too cheap to cache
/// and always report [`CacheOutcome::Disabled`].
pub fn run_app(
    app: App,
    variant: Variant,
    threads: usize,
    chaos_seed: Option<u64>,
    input: &InputConfig,
    mutation: Mutation,
) -> Result<(RunOutcome, CacheOutcome), String> {
    let exec = mutation(
        app,
        variant,
        threads,
        chaos_seed,
        executor_for(app, variant, threads, chaos_seed),
    );
    let (result, cached) = run_cell(app, &exec, input, None)?;
    Ok((result.unwrap_or_else(|e| panic!("{e}")), cached))
}

/// Runs one cell under `exec`, separating the three ways it can end:
/// outer `Err` = the output failed validation, inner `Err` = the executor
/// reported a fault (no output to validate), inner `Ok` = a validated
/// [`RunOutcome`]. A [`ManifestRecorder`] passed in `rec` rides the run in
/// the recorder slot of the app's [`galois_core::Hooks`], capturing (or
/// replay-verifying) the canonical hash chain.
pub fn run_cell(
    app: App,
    exec: &Executor,
    input: &InputConfig,
    rec: Option<&mut ManifestRecorder>,
) -> Result<(Result<RunOutcome, ExecError>, CacheOutcome), String> {
    let (resident, cached) = resident::load_input(app, input);
    let result = resident::run_resident(app, exec, &resident, rec)?;
    Ok((result.map(|run| run.outcome), cached))
}

/// What one panic-injection run reduces to for cross-run comparison.
///
/// Under [`Variant::Deterministic`] the whole value — including the
/// captured panic message inside [`ExecError::OperatorPanic`] — must be
/// identical at every thread count for a fixed panic seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The drawn fault set missed every executed task; the run completed
    /// and validated, reduced to its deterministic fingerprint.
    Clean(u64),
    /// The run faulted with this structured, canonical-in-det-mode error.
    Faulted(ExecError),
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOutcome::Clean(fp) => write!(f, "clean (fingerprint {fp:016x})"),
            FaultOutcome::Faulted(e) => write!(f, "fault [exit {}]: {e}", e.exit_code()),
        }
    }
}

/// Runs one `(app, variant, threads, panic seed)` cell with panic
/// injection armed ([`Executor::chaos_panics`]) and reduces it to a
/// [`FaultOutcome`]. `Err` means a *clean* run failed validation — a
/// faulted run skips validation, since quarantined tasks legitimately
/// leave the output partial.
pub fn run_app_panic(
    app: App,
    variant: Variant,
    threads: usize,
    panic_seed: u64,
    input: &InputConfig,
) -> Result<FaultOutcome, String> {
    let exec = executor_for(app, variant, threads, None).chaos_panics(panic_seed);
    let (result, _cached) = run_cell(app, &exec, input, None)?;
    Ok(match result {
        Ok(out) => FaultOutcome::Clean(out.fingerprint),
        Err(e) => FaultOutcome::Faulted(e),
    })
}

/// Why a record, replay or lockstep run failed.
#[derive(Debug)]
pub enum ReplayError {
    /// The manifest file was rejected (corrupt, wrong version, unreadable).
    Manifest(ManifestError),
    /// The manifest does not describe a run this harness can re-execute
    /// (unknown app, non-deterministic schedule, oversize input, foreign
    /// input key).
    Mismatch(String),
    /// The re-executed run's output failed its app-level validator.
    Validation(String),
    /// The re-executed run faulted.
    Exec(ExecError),
    /// The replay ran, validated — and hashed differently. The structured
    /// payload names the exact first divergent round.
    Divergence(ReplayDivergence),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Manifest(e) => write!(f, "{e}"),
            ReplayError::Mismatch(msg) => write!(f, "manifest mismatch: {msg}"),
            ReplayError::Validation(msg) => write!(f, "replayed output failed validation: {msg}"),
            ReplayError::Exec(e) => write!(f, "replayed run faulted: {e}"),
            ReplayError::Divergence(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<ManifestError> for ReplayError {
    fn from(e: ManifestError) -> Self {
        ReplayError::Manifest(e)
    }
}

/// Resolves a manifest back to the `(app, input)` pair it was recorded
/// from, rejecting manifests this harness cannot faithfully re-execute or
/// whose size is above the app's [`App::max_size`].
fn manifest_target(manifest: &RunManifest) -> Result<(App, InputConfig), ReplayError> {
    let app = App::from_name(&manifest.app)
        .ok_or_else(|| ReplayError::Mismatch(format!("unknown app `{}`", manifest.app)))?;
    if manifest.exec.schedule != ScheduleKind::Deterministic {
        return Err(ReplayError::Mismatch(format!(
            "only deterministic runs replay bit-identically (manifest recorded a {:?} run)",
            manifest.exec.schedule
        )));
    }
    let size = match manifest.size {
        0 => None,
        n => Some(app.check_size(n).map_err(ReplayError::Mismatch)?),
    };
    let input = InputConfig {
        seed: manifest.input_seed,
        build_threads: 1,
        cache_dir: None,
        size,
    };
    let key = input_key(app, &input);
    if key != manifest.input_key {
        return Err(ReplayError::Mismatch(format!(
            "input key `{}` is not this harness's `{key}` for {app} \
             (size {}, seed {}) — different input family or generator version",
            manifest.input_key, manifest.size, manifest.input_seed
        )));
    }
    Ok((app, input))
}

/// Records one deterministic run of `app` into a [`RunManifest`]: input
/// identity, executor configuration, the canonical per-round hash chain,
/// and the final fingerprint. The manifest replays bit-identically at any
/// thread count via [`replay_run`].
pub fn record_run(
    app: App,
    threads: usize,
    chaos_seed: Option<u64>,
    input: &InputConfig,
) -> Result<RunManifest, ReplayError> {
    let exec = executor_for(app, Variant::Deterministic, threads, chaos_seed);
    let mut rec = ManifestRecorder::new();
    let (result, _cached) =
        run_cell(app, &exec, input, Some(&mut rec)).map_err(ReplayError::Validation)?;
    let out = result.map_err(ReplayError::Exec)?;
    let manifest = rec.finish(
        app.name(),
        &input_key(app, input),
        input.seed,
        input.size.map(|s| s as u64).unwrap_or(0),
        out.output_hash,
    );
    // One hashing authority: the recorder's chained fingerprint and the
    // harness's round-log fingerprint are the same bytes through the same
    // FNV, so they cannot disagree.
    debug_assert_eq!(manifest.final_fingerprint, out.fingerprint);
    Ok(manifest)
}

/// Each barrier's `(chain sequence index, prefix hash)`, as a replay
/// produces them.
pub type RoundSink = Box<dyn FnMut(u64, u64) + Send>;

/// The one replay recipe: resolve the manifest back to its `(app, input)`,
/// rebuild the executor from `manifest.exec` at `threads` workers (`shape`
/// may then perturb it — chaos seeds, planted schedule changes), attach a
/// replay-mode [`ManifestRecorder`] streaming every round hash into `sink`,
/// and run. Returns the validated outcome and the recorder's verdict
/// against the manifest (`None` = reproduced bit for bit).
///
/// [`replay_run`] is this plus "a divergence is an error"; a lockstep
/// replica (`galois_serve::lockstep::JoinedReplica::stream`) is this with a
/// sink feeding the vote, which renders its own verdict.
pub fn replay_with(
    manifest: &RunManifest,
    threads: usize,
    cache_dir: Option<PathBuf>,
    shape: impl FnOnce(App, Executor) -> Executor,
    sink: Option<RoundSink>,
) -> Result<(RunOutcome, Option<ReplayDivergence>), ReplayError> {
    let (app, mut input) = manifest_target(manifest)?;
    input.cache_dir = cache_dir;
    // record_rounds keeps the harness's own fingerprint path alive so the
    // returned outcome is directly comparable with fresh runs.
    let exec = shape(app, manifest.exec.to_executor(threads)).record_rounds(true);
    let mut rec = ManifestRecorder::replaying(manifest);
    if let Some(sink) = sink {
        rec = rec.on_round_hash(sink);
    }
    let (result, _cached) =
        run_cell(app, &exec, &input, Some(&mut rec)).map_err(ReplayError::Validation)?;
    let out = result.map_err(ReplayError::Exec)?;
    Ok((out, rec.verify(manifest, out.output_hash).err()))
}

/// Re-executes a recorded run at `threads` workers and verifies it against
/// the manifest: every per-round prefix hash, the round count, and the
/// final fingerprint must match bit for bit. The first divergent round
/// comes back as [`ReplayError::Divergence`].
///
/// `cache_dir` optionally serves the input from (or stores it into) the
/// on-disk input cache; the manifest's input key is the cache key, so a
/// replay and its recording share cache entries.
pub fn replay_run(
    manifest: &RunManifest,
    threads: usize,
    cache_dir: Option<PathBuf>,
) -> Result<RunOutcome, ReplayError> {
    match replay_with(manifest, threads, cache_dir, |_, exec| exec, None)? {
        (out, None) => Ok(out),
        (_, Some(divergence)) => Err(ReplayError::Divergence(divergence)),
    }
}

/// One differential sweep's shape.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    pub apps: Vec<App>,
    pub threads: Vec<usize>,
    pub chaos_seeds: Vec<u64>,
    pub input_seed: u64,
    /// Threads the input *builders* use (never affects outputs).
    pub build_threads: usize,
    /// On-disk input cache directory; `None` regenerates every input.
    pub cache_dir: Option<PathBuf>,
    /// Also run the speculative executor over the matrix and validate each
    /// run against the serial oracle. Off for pure det-invariance sweeps.
    pub check_spec: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            apps: App::ALL.to_vec(),
            threads: vec![1, 2, 4, 8],
            chaos_seeds: (1..=8).collect(),
            input_seed: 42,
            build_threads: 1,
            cache_dir: None,
            check_spec: true,
        }
    }
}

impl DiffConfig {
    /// The [`InputConfig`] every cell of this sweep uses.
    pub fn input(&self) -> InputConfig {
        InputConfig {
            seed: self.input_seed,
            build_threads: self.build_threads,
            cache_dir: self.cache_dir.clone(),
            size: None,
        }
    }

    /// The one-line reproduction command for a (sub)matrix of this sweep.
    pub fn repro_line(&self, app: App, threads: &[usize], seeds: &[u64]) -> String {
        let join_usize = |v: &[usize]| {
            v.iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let join_u64 = |v: &[u64]| {
            v.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut line = format!(
            "cargo run --release -p galois-harness --bin differential -- \
             --app {app} --threads {} --chaos-seeds {} --input-seed {}",
            join_usize(threads),
            join_u64(seeds),
            self.input_seed,
        );
        if self.build_threads != 1 {
            line.push_str(&format!(" --build-threads {}", self.build_threads));
        }
        line
    }

    /// [`repro_line`](Self::repro_line) for the panic-injection matrix:
    /// the seed list rides on `--panic-chaos` instead of `--chaos-seeds`.
    pub fn repro_line_panic(&self, app: App, threads: &[usize], seeds: &[u64]) -> String {
        let threads = threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let seeds = seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "cargo run --release -p galois-harness --bin differential -- \
             --app {app} --threads {threads} --panic-chaos {seeds} --input-seed {}",
            self.input_seed,
        )
    }
}

/// A differential failure, shrunk to a minimal reproduction.
#[derive(Debug, Clone)]
pub struct DiffFailure {
    pub app: App,
    /// Human-readable account of what diverged or failed validation.
    pub detail: String,
    /// One-line `cargo run` command reproducing the failure.
    pub repro: String,
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}\n  repro: {}", self.app, self.detail, self.repro)
    }
}

/// A successful sweep's summary.
#[derive(Debug, Clone)]
pub struct DiffSummary {
    /// Total individual runs executed.
    pub runs: usize,
    /// The (app, deterministic fingerprint) pairs the sweep converged on.
    pub det_fingerprints: Vec<(App, u64)>,
    /// Input loads served from the on-disk cache.
    pub cache_hits: usize,
    /// Input loads that generated (and stored) a fresh input.
    pub cache_misses: usize,
}

fn diverges(a: &RunOutcome, b: &RunOutcome) -> Option<String> {
    if a.fingerprint == b.fingerprint {
        return None;
    }
    let mut parts = Vec::new();
    if a.output_hash != b.output_hash {
        parts.push(format!(
            "output {:016x} vs {:016x}",
            a.output_hash, b.output_hash
        ));
    }
    if a.log_hash != b.log_hash {
        parts.push(format!(
            "round log {:016x} vs {:016x}",
            a.log_hash, b.log_hash
        ));
    }
    if a.rounds != b.rounds {
        parts.push(format!("rounds {} vs {}", a.rounds, b.rounds));
    }
    if a.committed != b.committed {
        parts.push(format!("committed {} vs {}", a.committed, b.committed));
    }
    if a.aborted != b.aborted {
        parts.push(format!("aborted {} vs {}", a.aborted, b.aborted));
    }
    Some(parts.join(", "))
}

/// Shrinks a deterministic divergence between the reference cell
/// `(t0, s0)` and a failing cell `(tb, sb)` to a minimal axis: a single
/// chaos seed if thread count alone reproduces it, a single thread count
/// if the seed alone does, both axes otherwise.
fn minimize(
    app: App,
    cfg: &DiffConfig,
    mutation: Mutation,
    reference: &RunOutcome,
    (t0, s0): (usize, u64),
    (tb, sb): (usize, u64),
) -> (Vec<usize>, Vec<u64>) {
    let input = cfg.input();
    if sb != s0 && tb != t0 {
        // Both axes moved; probe each alone (two cheap extra runs).
        if let Ok((out, _)) = run_app(app, Variant::Deterministic, t0, Some(sb), &input, mutation) {
            if diverges(reference, &out).is_some() {
                return (vec![t0], vec![s0, sb]);
            }
        }
        if let Ok((out, _)) = run_app(app, Variant::Deterministic, tb, Some(s0), &input, mutation) {
            if diverges(reference, &out).is_some() {
                return (vec![t0, tb], vec![s0]);
            }
        }
        (vec![t0, tb], vec![s0, sb])
    } else if tb != t0 {
        (vec![t0, tb], vec![s0])
    } else {
        (vec![t0], vec![s0, sb])
    }
}

/// Runs the differential sweep: serial oracle, deterministic invariance
/// matrix, and (optionally) speculative validation, for every configured
/// app. The first failure is minimized and returned.
pub fn run_differential(cfg: &DiffConfig, mutation: Mutation) -> Result<DiffSummary, DiffFailure> {
    assert!(!cfg.threads.is_empty() && !cfg.chaos_seeds.is_empty());
    let input = cfg.input();
    let mut runs = 0usize;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut tally = |cached: CacheOutcome| match cached {
        CacheOutcome::Hit => cache_hits += 1,
        CacheOutcome::MissStored => cache_misses += 1,
        CacheOutcome::Disabled => {}
    };
    let mut det_fingerprints = Vec::new();
    for &app in &cfg.apps {
        // Serial oracle: one thread, no chaos, no mutation — ever.
        let (oracle, cached) = run_app(app, Variant::Serial, 1, None, &input, &unperturbed)
            .map_err(|e| DiffFailure {
                app,
                detail: format!("serial oracle failed validation: {e}"),
                repro: cfg.repro_line(app, &cfg.threads[..1], &cfg.chaos_seeds[..1]),
            })?;
        tally(cached);
        runs += 1;

        // Deterministic invariance matrix.
        let mut reference: Option<((usize, u64), RunOutcome)> = None;
        for &t in &cfg.threads {
            for &s in &cfg.chaos_seeds {
                let (out, cached) =
                    run_app(app, Variant::Deterministic, t, Some(s), &input, mutation).map_err(
                        |e| DiffFailure {
                            app,
                            detail: format!(
                                "deterministic run (threads={t}, seed={s}) failed validation: {e}"
                            ),
                            repro: cfg.repro_line(app, &[t], &[s]),
                        },
                    )?;
                tally(cached);
                runs += 1;
                match &reference {
                    None => reference = Some(((t, s), out)),
                    Some((cell0, r)) => {
                        if let Some(diff) = diverges(r, &out) {
                            let (ts, ss) = minimize(app, cfg, mutation, r, *cell0, (t, s));
                            return Err(DiffFailure {
                                app,
                                detail: format!(
                                    "deterministic fingerprint diverged between \
                                     (threads={}, seed={}) and (threads={t}, seed={s}): {diff}",
                                    cell0.0, cell0.1,
                                ),
                                repro: cfg.repro_line(app, &ts, &ss),
                            });
                        }
                    }
                }
            }
        }
        let (_, det_ref) = reference.expect("non-empty matrix");

        // Where the output value is mathematically unique, the deterministic
        // answer must equal the oracle's, not merely validate.
        if matches!(app, App::Bfs | App::Pfp) && det_ref.output_hash != oracle.output_hash {
            return Err(DiffFailure {
                app,
                detail: format!(
                    "deterministic output {:016x} != serial oracle {:016x}",
                    det_ref.output_hash, oracle.output_hash
                ),
                repro: cfg.repro_line(app, &cfg.threads[..1], &cfg.chaos_seeds[..1]),
            });
        }

        // Speculative runs: per-run validation plus oracle equality where
        // the output value is unique. No cross-run invariance is owed.
        if cfg.check_spec {
            for &t in &cfg.threads {
                for &s in &cfg.chaos_seeds {
                    let (out, cached) =
                        run_app(app, Variant::Speculative, t, Some(s), &input, mutation).map_err(
                            |e| DiffFailure {
                                app,
                                detail: format!(
                            "speculative run (threads={t}, seed={s}) failed validation: {e}"
                        ),
                                repro: cfg.repro_line(app, &[t], &[s]),
                            },
                        )?;
                    tally(cached);
                    runs += 1;
                    if matches!(app, App::Bfs | App::Pfp) && out.output_hash != oracle.output_hash {
                        return Err(DiffFailure {
                            app,
                            detail: format!(
                                "speculative output (threads={t}, seed={s}) {:016x} \
                                 != serial oracle {:016x}",
                                out.output_hash, oracle.output_hash
                            ),
                            repro: cfg.repro_line(app, &[t], &[s]),
                        });
                    }
                }
            }
        }
        det_fingerprints.push((app, det_ref.fingerprint));
    }
    Ok(DiffSummary {
        runs,
        det_fingerprints,
        cache_hits,
        cache_misses,
    })
}

/// A successful panic-injection sweep's summary: one fault fingerprint per
/// `(app, panic seed)`, each proven invariant over every thread count.
#[derive(Debug, Clone)]
pub struct PanicDiffSummary {
    /// Total individual runs executed (deterministic + speculative).
    pub runs: usize,
    /// `(app, panic seed, the invariant deterministic outcome)`.
    pub fault_fingerprints: Vec<(App, u64, FaultOutcome)>,
}

/// Runs the panic-injection differential sweep: for every configured app
/// and every seed in `cfg.chaos_seeds` (reinterpreted as *panic* seeds),
/// the deterministic executor's [`FaultOutcome`] must be identical at
/// every thread count — the report of a faulted run is as portable as the
/// output of a clean one. Speculative runs are exercised for termination
/// and (when clean) validity only; their fault reports are non-canonical
/// by design and owe no cross-run invariance.
pub fn run_panic_differential(cfg: &DiffConfig) -> Result<PanicDiffSummary, DiffFailure> {
    assert!(!cfg.threads.is_empty() && !cfg.chaos_seeds.is_empty());
    let input = cfg.input();
    let mut runs = 0usize;
    let mut fault_fingerprints = Vec::new();
    for &app in &cfg.apps {
        for &seed in &cfg.chaos_seeds {
            let mut reference: Option<(usize, FaultOutcome)> = None;
            for &t in &cfg.threads {
                let out =
                    run_app_panic(app, Variant::Deterministic, t, seed, &input).map_err(|e| {
                        DiffFailure {
                            app,
                            detail: format!(
                                "deterministic panic run (threads={t}, panic seed={seed}) \
                             failed validation: {e}"
                            ),
                            repro: cfg.repro_line_panic(app, &[t], &[seed]),
                        }
                    })?;
                runs += 1;
                match &reference {
                    None => reference = Some((t, out)),
                    Some((t0, r)) => {
                        if *r != out {
                            return Err(DiffFailure {
                                app,
                                detail: format!(
                                    "fault report diverged between threads={t0} and \
                                     threads={t} at panic seed {seed}: {r} vs {out}"
                                ),
                                repro: cfg.repro_line_panic(app, &[*t0, t], &[seed]),
                            });
                        }
                    }
                }
            }
            if cfg.check_spec {
                for &t in &cfg.threads {
                    run_app_panic(app, Variant::Speculative, t, seed, &input).map_err(|e| {
                        DiffFailure {
                            app,
                            detail: format!(
                                "speculative panic run (threads={t}, panic seed={seed}) \
                                 failed validation: {e}"
                            ),
                            repro: cfg.repro_line_panic(app, &[t], &[seed]),
                        }
                    })?;
                    runs += 1;
                }
            }
            let (_, out) = reference.expect("non-empty thread list");
            fault_fingerprints.push((app, seed, out));
        }
    }
    Ok(PanicDiffSummary {
        runs,
        fault_fingerprints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        let mut h = Fnv64::new();
        h.write_bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn app_names_round_trip() {
        for app in App::ALL {
            assert_eq!(App::from_name(app.name()), Some(app));
        }
        assert_eq!(App::from_name("nope"), None);
    }

    #[test]
    fn repro_line_is_a_single_cargo_command() {
        let cfg = DiffConfig::default();
        let line = cfg.repro_line(App::Mis, &[1, 4], &[3]);
        assert!(line.starts_with("cargo run --release -p galois-harness"));
        assert!(line.contains("--app mis"));
        assert!(line.contains("--threads 1,4"));
        assert!(line.contains("--chaos-seeds 3"));
        assert!(line.contains("--input-seed 42"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn outcome_matches_legacy_private_fingerprint() {
        // The harness used to hash round logs with its own private FNV:
        // per record (seq, window, attempted, committed, failed) as u64 LE
        // into one running hash, then fold (output, log hash, rounds,
        // committed, aborted). The runtime-owned `RoundChain` +
        // `run_fingerprint` must reproduce that byte stream exactly on the
        // seed corpus, or every historical fingerprint shifts.
        use galois_core::RoundRecord;
        let corpus: Vec<Vec<RoundRecord>> = (0u64..4)
            .map(|seed| {
                (0..5 + seed)
                    .map(|i| RoundRecord {
                        round: i,
                        window: 16 << (i % 3),
                        attempted: 10 + seed + i,
                        committed: 8 + i,
                        failed: 2 + seed,
                        ..Default::default()
                    })
                    .collect()
            })
            .collect();
        for (seed, records) in corpus.iter().enumerate() {
            // Legacy implementation, inlined verbatim.
            let mut legacy = Fnv64::new();
            let mut rounds = 0u64;
            for rec in records {
                legacy.write_u64(rounds);
                legacy.write_u64(rec.window);
                legacy.write_u64(rec.attempted);
                legacy.write_u64(rec.committed);
                legacy.write_u64(rec.failed);
                rounds += 1;
            }
            let mut legacy_fp = Fnv64::new();
            legacy_fp.write_u64(7);
            legacy_fp.write_u64(legacy.finish());
            legacy_fp.write_u64(rounds);
            legacy_fp.write_u64(100);
            legacy_fp.write_u64(3);

            let mut log = RoundLog::new();
            for rec in records {
                use galois_core::Probe;
                log.on_round(rec.clone());
            }
            let stats = ExecStats {
                committed: 100,
                aborted: 3,
                ..Default::default()
            };
            let out = outcome(7, vec![log], &stats);
            assert_eq!(out.log_hash, legacy.finish(), "log hash, corpus {seed}");
            assert_eq!(
                out.fingerprint,
                legacy_fp.finish(),
                "fingerprint, corpus {seed}"
            );
        }
    }

    #[test]
    fn recorded_manifest_agrees_with_run_app_fingerprint() {
        // The recorder path (ManifestRecorder through LoopSpec::record) and
        // the round-log path (record_rounds + outcome) hash through the one
        // runtime implementation; their fingerprints must coincide on the
        // seed corpus.
        for seed in [42u64, 7] {
            let input = InputConfig::from_seed(seed);
            let manifest = record_run(App::Mis, 2, None, &input).unwrap();
            let (out, _) = run_app(
                App::Mis,
                Variant::Deterministic,
                2,
                None,
                &input,
                &unperturbed,
            )
            .unwrap();
            assert_eq!(manifest.final_fingerprint, out.fingerprint, "seed {seed}");
            assert_eq!(manifest.round_hashes.len() as u64, out.rounds);
        }
    }

    #[test]
    fn input_keys_match_historical_cache_keys() {
        // The default-size keys are the exact strings pre-manifest harness
        // versions used as cache filenames; changing them silently orphans
        // every cached input.
        let input = InputConfig::from_seed(42);
        assert_eq!(input_key(App::Bfs, &input), "uniform-n2000-d5-s42");
        assert_eq!(input_key(App::Mis, &input), "uniform-und-n1500-d4-s42");
        assert_eq!(input_key(App::Mm, &input), "uniform-und-n1500-d4-s42");
        assert_eq!(input_key(App::Pfp, &input), "flowrand-n96-d4-c100-s42");
        assert_eq!(input_key(App::Dt, &input), "points-n300-s42");
        assert_eq!(input_key(App::Dmr, &input), "mesh-n120-s42");
    }

    #[test]
    fn single_cell_runs_validate() {
        // One cheap cell per variant exercises the whole run_app plumbing.
        for variant in [
            Variant::Serial,
            Variant::Speculative,
            Variant::Deterministic,
        ] {
            let threads = if variant == Variant::Serial { 1 } else { 2 };
            let chaos = (variant != Variant::Serial).then_some(7u64);
            let input = InputConfig::from_seed(42);
            let (out, cached) = run_app(App::Mis, variant, threads, chaos, &input, &unperturbed)
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
            assert!(out.committed > 0, "{variant} committed nothing");
            assert_eq!(cached, CacheOutcome::Disabled);
        }
    }
}
