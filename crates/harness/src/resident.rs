//! Resident inputs: the request→run plumbing behind `galois-serve`.
//!
//! A one-shot CLI run builds its input, runs, and exits; a resident server
//! answering the same request family over and over should pay the input
//! build once. This module splits the harness's `run_cell` into its two
//! halves — *materialize the input* ([`load_input`] / [`InputStore::get`])
//! and *run an executor over an already-materialized input*
//! ([`run_resident`]) — so a server can keep inputs warm in memory across
//! requests while every run still goes through the exact validation and
//! fingerprint reduction the differential harness uses.
//!
//! Every input but one stays resident, as an immutable value that
//! concurrent requests share (`Arc`):
//!
//! - **bfs / mis / mm** — the CSR graph is read-only during a run.
//! - **dt** — the point set is read-only (the run builds a fresh mesh).
//! - **pfp** — the flow network holds topology and capacities only; each
//!   run owns its [`Residual`], so concurrent pfp requests on one input
//!   key run side by side and never see each other's flow.
//! - **dmr** — refinement consumes the mesh; the input is rebuilt per
//!   request ([`Residency::Uncacheable`]).
//!
//! [`Residual`]: galois_graph::Residual

use crate::{input_key, reduce_run, App, InputConfig, RunOutcome, Variant};
use galois_core::manifest::ManifestRecorder;
use galois_core::{ExecError, Executor, Hooks, RoundRecord};
use galois_graph::cache::CacheOutcome;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An input materialized for (potentially repeated) execution.
pub use galois_apps::recipe::Input as ResidentInput;

/// Where a request's input came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Served from the in-memory resident store.
    Warm,
    /// Materialized now (generated, or loaded from the on-disk input
    /// cache) and made resident for subsequent requests.
    Cold,
    /// Rebuilt for this request because the run consumes its input (dmr).
    Uncacheable,
}

impl Residency {
    /// Lowercase label used in HTTP headers and stats.
    pub fn name(self) -> &'static str {
        match self {
            Residency::Warm => "warm",
            Residency::Cold => "cold",
            Residency::Uncacheable => "uncacheable",
        }
    }
}

/// Materializes the input described by `input` for `app`, honoring the
/// on-disk input cache in `input.cache_dir`. One-shot: no in-memory
/// residency (that is [`InputStore`]'s job).
pub fn load_input(app: App, input: &InputConfig) -> (ResidentInput, CacheOutcome) {
    app.materialize(
        input.size_for(app),
        input.seed,
        input.build_threads,
        input.cache_dir.as_deref(),
    )
}

/// What [`run_resident`] reduces a completed run to: the harness's
/// cross-run [`RunOutcome`] plus the canonical round records (renumbered
/// into one monotone sequence across multi-bout runs), so a server can
/// stream the round log without re-running.
#[derive(Debug, Clone)]
pub struct ResidentRun {
    /// The fingerprint reduction every harness comparison uses.
    pub outcome: RunOutcome,
    /// Canonical round records; byte-identical at any thread count for
    /// deterministic runs.
    pub records: Vec<RoundRecord>,
}

/// Runs `exec` over an already-materialized input through the app's run
/// recipe ([`App::run`] of the variant `exec`'s schedule names: run,
/// verify, hash) and reduces the run exactly as
/// the differential harness does. The layering mirrors `run_cell`: outer
/// `Err` = validation failure (or an app/input mismatch), inner `Err` = a
/// contained executor fault, inner `Ok` = a validated [`ResidentRun`]. A
/// [`ManifestRecorder`] in `rec` rides the run, capturing (or
/// replay-verifying) the canonical chain.
pub fn run_resident(
    app: App,
    exec: &Executor,
    input: &ResidentInput,
    rec: Option<&mut ManifestRecorder>,
) -> Result<Result<ResidentRun, ExecError>, String> {
    let hooks = Hooks {
        recorder: rec,
        ..Hooks::default()
    };
    Ok(app.run(Variant::of(exec), exec, input, hooks)?.map(|done| {
        let (outcome, records) = reduce_run(done.output_hash, done.logs, &done.stats);
        ResidentRun { outcome, records }
    }))
}

/// One coherent reading of the store's counters, taken under a single
/// lock acquisition — a concurrent observer never sees a torn set (e.g. a
/// warm hit counted but the resident entry not yet visible).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Requests served from memory.
    pub warm_hits: u64,
    /// Requests that materialized (and retained) a new input.
    pub cold_loads: u64,
    /// Requests whose input had to be rebuilt (uncacheable apps).
    pub rebuilds: u64,
    /// Distinct inputs currently resident.
    pub resident_inputs: usize,
}

struct StoreInner {
    map: HashMap<String, ResidentInput>,
    warm: u64,
    cold: u64,
    rebuilt: u64,
}

/// Thread-safe resident input store: one materialized input per input key,
/// kept warm across requests. mis and mm share an entry (their input key
/// is identical by construction). Residency map and counters live under
/// *one* mutex so every counter update is atomic with the map change that
/// justifies it, and [`snapshot`](Self::snapshot) reads a coherent set.
pub struct InputStore {
    cache_dir: Option<PathBuf>,
    inner: Mutex<StoreInner>,
}

impl InputStore {
    /// An empty store; `cache_dir` optionally backs cold loads with the
    /// on-disk input cache.
    pub fn new(cache_dir: Option<PathBuf>) -> Self {
        InputStore {
            cache_dir,
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                warm: 0,
                cold: 0,
                rebuilt: 0,
            }),
        }
    }

    /// The store's one lock. A panic while it was held (a build that
    /// overflowed, say) does not leave the map half-changed: the map only
    /// changes after a build has returned. So a poisoned guard is
    /// recovered, and one failed build cannot refuse every later request.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The on-disk cache directory backing this store, if any.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// Materializes (or returns the resident copy of) the input for
    /// `(app, input)`. The store's own `cache_dir` overrides the one in
    /// `input`. Builds happen under the store lock, so concurrent requests
    /// for the same missing key build it exactly once. (dmr inputs are
    /// consumed per run; only their counter takes the lock, the rebuild
    /// itself runs unlocked so concurrent dmr requests don't serialize.)
    pub fn get(&self, app: App, input: &InputConfig) -> (ResidentInput, Residency) {
        let mut input = input.clone();
        input.cache_dir = self.cache_dir.clone();
        if matches!(app, App::Dmr) {
            self.lock().rebuilt += 1;
            let (built, _) = load_input(app, &input);
            return (built, Residency::Uncacheable);
        }
        let key = input_key(app, &input);
        let mut inner = self.lock();
        if let Some(found) = inner.map.get(&key).cloned() {
            inner.warm += 1;
            return (found, Residency::Warm);
        }
        let (built, _) = load_input(app, &input);
        inner.map.insert(key, built.clone());
        inner.cold += 1;
        (built, Residency::Cold)
    }

    /// All counters, read coherently under one lock acquisition.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.lock();
        StoreSnapshot {
            warm_hits: inner.warm,
            cold_loads: inner.cold,
            rebuilds: inner.rebuilt,
            resident_inputs: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor_for;

    #[test]
    fn store_serves_warm_after_first_load() {
        let store = InputStore::new(None);
        let input = InputConfig::from_seed(42);
        let (_, r1) = store.get(App::Mis, &input);
        assert_eq!(r1, Residency::Cold);
        let (_, r2) = store.get(App::Mis, &input);
        assert_eq!(r2, Residency::Warm);
        // mm shares mis's undirected entry.
        let (_, r3) = store.get(App::Mm, &input);
        assert_eq!(r3, Residency::Warm);
        assert_eq!(
            store.snapshot(),
            StoreSnapshot {
                warm_hits: 2,
                cold_loads: 1,
                rebuilds: 0,
                resident_inputs: 1,
            }
        );
    }

    #[test]
    fn a_poisoned_store_keeps_serving() {
        let store = InputStore::new(None);
        let input = InputConfig::from_seed(42);
        store.get(App::Mis, &input);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = store.lock();
                panic!("a build panicked under the store lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(store.inner.is_poisoned());
        let (_, residency) = store.get(App::Mis, &input);
        assert_eq!(residency, Residency::Warm);
        assert_eq!(store.snapshot().resident_inputs, 1);
    }

    #[test]
    fn dmr_is_rebuilt_per_request() {
        let store = InputStore::new(None);
        let input = InputConfig::from_seed(42);
        let (_, r1) = store.get(App::Dmr, &input);
        let (_, r2) = store.get(App::Dmr, &input);
        assert_eq!(r1, Residency::Uncacheable);
        assert_eq!(r2, Residency::Uncacheable);
        assert_eq!(
            store.snapshot(),
            StoreSnapshot {
                rebuilds: 2,
                ..StoreSnapshot::default()
            }
        );
    }

    /// `run_resident` is the recipe's `g-d` cell plus the harness's
    /// reduction: residency adds nothing to what runs.
    #[test]
    fn run_resident_fingerprints_the_recipes_deterministic_cell() {
        let input = InputConfig::from_seed(42);
        for app in App::ALL {
            let (res, _) = load_input(app, &input);
            let exec = executor_for(app, Variant::Deterministic, 2, None);
            let done = app
                .run(Variant::Deterministic, &exec, &res, Hooks::default())
                .unwrap()
                .unwrap();
            let (direct, _) = reduce_run(done.output_hash, done.logs, &done.stats);
            let resident = run_resident(app, &exec, &res, None).unwrap().unwrap();
            assert_eq!(resident.outcome.fingerprint, direct.fingerprint, "{app}");
        }
    }

    #[test]
    fn resident_run_matches_oneshot_fingerprint() {
        // A run over a store-resident input must fingerprint identically to
        // the one-shot run_app path — residency is invisible to results.
        let input = InputConfig::from_seed(42);
        let (oneshot, _) = crate::run_app(
            App::Mis,
            Variant::Deterministic,
            2,
            None,
            &input,
            &crate::unperturbed,
        )
        .unwrap();
        let store = InputStore::new(None);
        let (res, _) = store.get(App::Mis, &input);
        let exec = executor_for(App::Mis, Variant::Deterministic, 2, None);
        let run = run_resident(App::Mis, &exec, &res, None).unwrap().unwrap();
        assert_eq!(run.outcome.fingerprint, oneshot.fingerprint);
        // Repeated pfp runs on one resident network: each run starts from
        // its own zero flow, so the fingerprint is stable run over run.
        let (flow_in, _) = store.get(App::Pfp, &input);
        let exec = executor_for(App::Pfp, Variant::Deterministic, 2, None);
        let a = run_resident(App::Pfp, &exec, &flow_in, None)
            .unwrap()
            .unwrap();
        let b = run_resident(App::Pfp, &exec, &flow_in, None)
            .unwrap()
            .unwrap();
        assert_eq!(a.outcome.fingerprint, b.outcome.fingerprint);
    }
}
