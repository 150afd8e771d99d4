//! The executor workloads: `exec-bulk`, `exec-rounds`, `exec-spec`.
//!
//! An op is one pass over the workload's apps through
//! `galois_harness::run_resident`, the same call the CLI, the differential
//! harness and the service make, so every op ends with the app's own
//! verifier. Deterministic passes must also reproduce the fingerprint of a
//! one-thread reference run computed in set-up: that equality across
//! thread counts is the paper's portability property.

use crate::config::{Config, DMR_MESH_SEED};
use crate::runner::{OpOutcome, Workload};
use crate::trace::{SpanId, Tracer};
use galois_core::{Executor, RunReport};
use galois_harness::{
    executor_for, load_input, run_resident, App, InputConfig, ResidentInput, RunOutcome, Variant,
};
use galois_mesh::check;

/// One app's resident input with the executor the workload runs it under
/// and the one-thread deterministic run it is checked against.
pub struct Cell {
    pub app: App,
    pub input: ResidentInput,
    pub exec: Executor,
    pub reference: RunOutcome,
}

pub struct ExecWorkload {
    variant: Variant,
    pub cells: Vec<Cell>,
}

/// Stall-watchdog threshold for speculative runs. The default (4096 aborts
/// in a row, then 256 yields) fires falsely on a shared 2-core host, where a
/// mark holder can lose its CPU for longer than that: one `exec-spec` pass
/// in seven faulted `Stalled` at the seed. The workload measures the
/// executor, not the watchdog, so the threshold is raised to where only a
/// real livelock (seconds without a commit) can reach it.
const SPEC_MAX_STALLED: u64 = 1 << 26;

/// The executor `app` runs under: `executor_for`'s, as the CLI, the harness
/// and the service build it.
pub fn executor(app: App, variant: Variant, threads: usize) -> Executor {
    let exec = executor_for(app, variant, threads, None);
    match variant {
        Variant::Speculative => exec.max_stalled_rounds(SPEC_MAX_STALLED),
        _ => exec,
    }
}

/// `run_resident` with its two kinds of failure folded into one message.
pub fn run_checked(app: App, exec: &Executor, input: &ResidentInput) -> Result<RunOutcome, String> {
    match run_resident(app, exec, input, None) {
        Ok(Ok(run)) => Ok(run.outcome),
        Ok(Err(fault)) => Err(format!("{app}: executor fault: {fault}")),
        Err(invalid) => Err(format!("{app}: verification failed: {invalid}")),
    }
}

/// An input chosen by the seed, with its one-thread deterministic run.
pub struct SizedInput {
    pub config: InputConfig,
    pub input: ResidentInput,
    pub reference: RunOutcome,
}

/// Draws tried for an input that gives the executor something to do.
const DRAWS: u64 = 16;

/// Builds `app`'s input from generator stream `stream + app` of the seed
/// (so no two apps or workloads share an input; dmr always refines the one
/// frozen mesh) and runs the one-thread reference.
///
/// A draw on which the reference commits nothing is skipped for the next
/// stream: one `flowrand` network in 30 has its source cut off, which is no
/// workload and, asked for with a manifest, panics the service (see the
/// README's findings).
pub fn sized_input(
    cfg: &Config,
    app: App,
    size: Option<usize>,
    stream: u64,
) -> Result<SizedInput, String> {
    let t1 = executor(app, Variant::Deterministic, 1);
    for draw in 0..DRAWS {
        let config = InputConfig {
            seed: match app {
                App::Dmr => DMR_MESH_SEED,
                _ => cfg.input_seed(stream + app as u64 + 1_000_000 * draw),
            },
            build_threads: cfg.threads,
            cache_dir: None,
            size,
        };
        let (input, _) = load_input(app, &config);
        let reference = run_checked(app, &t1, &input)?;
        if reference.committed > 0 {
            return Ok(SizedInput {
                config,
                input,
                reference,
            });
        }
    }
    Err(format!("{app}: {DRAWS} draws in a row commit no task"))
}

impl ExecWorkload {
    /// Builds the inputs of `apps` and their one-thread reference runs.
    pub fn setup(cfg: &Config, variant: Variant, apps: &[App]) -> Result<Self, String> {
        let mut cells = Vec::new();
        for &(app, size) in cfg.sizes.exec.iter().filter(|(a, _)| apps.contains(a)) {
            let sized = sized_input(cfg, app, Some(size), 0)?;
            cells.push(Cell {
                app,
                input: sized.input,
                exec: executor(app, variant, cfg.threads),
                reference: sized.reference,
            });
        }
        Ok(ExecWorkload { variant, cells })
    }
}

/// What must hold of a pass's run beyond the app's verifier.
fn check_against_reference(variant: Variant, cell: &Cell, out: &RunOutcome) -> Result<(), String> {
    let app = cell.app;
    match variant {
        Variant::Deterministic if out.fingerprint != cell.reference.fingerprint => Err(format!(
            "{app}: fingerprint {:016x} differs from the one-thread reference {:016x}",
            out.fingerprint, cell.reference.fingerprint
        )),
        // Speculative schedules may legitimately pick another maximal set,
        // matching or refinement; bfs distances and the Delaunay
        // triangulation of a point set are unique, so their output is held
        // to the reference.
        Variant::Speculative
            if matches!(app, App::Bfs | App::Dt)
                && out.output_hash != cell.reference.output_hash =>
        {
            Err(format!(
                "{app}: speculative output {:016x} differs from the reference {:016x}",
                out.output_hash, cell.reference.output_hash
            ))
        }
        _ => Ok(()),
    }
}

impl Workload for ExecWorkload {
    fn clients(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, _i: u64, op: u64, tr: &mut Tracer) -> OpOutcome {
        let root = tr.enter("op", "", op, None);
        let mut tasks = 0;
        let mut error = None;
        for cell in &self.cells {
            let result = tr.span("harness.run_resident", cell.app.name(), op, root, || {
                run_checked(cell.app, &cell.exec, &cell.input)
            });
            match result.and_then(|out| {
                check_against_reference(self.variant, cell, &out).map(|()| out.committed)
            }) {
                Ok(committed) => tasks += committed,
                Err(e) => error = error.or(Some(e)),
            }
        }
        tr.exit(root);
        OpOutcome { tasks, error }
    }
}

/// One app run called directly (`galois_apps::*::try_galois`) and its
/// verifier, each under its own span: the split `run_resident` hides.
/// Returns the executor's report, which carries the round log.
pub fn direct_run(
    cell: &Cell,
    exec: &Executor,
    op: u64,
    parent: Option<SpanId>,
    tr: &mut Tracer,
) -> Result<RunReport, String> {
    use galois_apps::{bfs, dmr, dt, mis, mm};
    let app = cell.app;
    let name = app.name();
    let fault = |e| format!("{app}: executor fault: {e}");
    let invalid = |e: String| format!("{app}: verification failed: {e}");
    macro_rules! spanned {
        ($span:literal, $call:expr) => {
            tr.span($span, name, op, parent, || $call)
        };
    }
    match (app, &cell.input) {
        (App::Bfs, ResidentInput::Graph(g)) => {
            let (dist, report) =
                spanned!("apps.run", bfs::try_galois(g, 0, exec)).map_err(fault)?;
            spanned!("apps.verify", bfs::verify(g, 0, &dist)).map_err(invalid)?;
            Ok(report)
        }
        (App::Mis, ResidentInput::Graph(g)) => {
            let (flags, report) = spanned!("apps.run", mis::try_galois(g, exec)).map_err(fault)?;
            spanned!("apps.verify", mis::verify(g, &flags)).map_err(invalid)?;
            Ok(report)
        }
        (App::Mm, ResidentInput::Graph(g)) => {
            let (mate, report) = spanned!("apps.run", mm::try_galois(g, exec)).map_err(fault)?;
            spanned!("apps.verify", mm::verify(g, &mate)).map_err(invalid)?;
            Ok(report)
        }
        (App::Dt, ResidentInput::Points { pts, seed }) => {
            let (mesh, report) =
                spanned!("apps.run", dt::try_galois(pts, *seed, exec)).map_err(fault)?;
            spanned!(
                "apps.verify",
                check::validate(&mesh).and_then(|()| check::check_delaunay(&mesh))
            )
            .map_err(invalid)?;
            Ok(report)
        }
        (App::Dmr, ResidentInput::MeshSpec { n, seed }) => {
            let mesh = spanned!("mesh.dmr_input", dmr::make_input(*n, *seed));
            let report = spanned!("apps.run", dmr::try_galois(&mesh, exec)).map_err(fault)?;
            spanned!(
                "apps.verify",
                check::validate(&mesh)
                    .and_then(|()| check::check_delaunay(&mesh))
                    .and_then(|()| match check::quality(&mesh).bad {
                        0 => Ok(()),
                        bad => Err(format!("{bad} bad triangles survive refinement")),
                    })
            )
            .map_err(invalid)?;
            Ok(report)
        }
        _ => Err(format!("{app}: resident input of the wrong kind")),
    }
}
