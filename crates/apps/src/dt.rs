//! Delaunay triangulation (§4.1).
//!
//! Incremental Bowyer–Watson insertion of random points in the unit square,
//! reordered by BRIO (the Lonestar scheme; reordering time excluded from
//! measurements, matching §4.1). Tasks are point insertions; a task's
//! neighborhood is every triangle its location walk visits plus the cavity
//! and its boundary ring.
//!
//! The Delaunay triangulation of points in general position is unique, so
//! every variant produces the same *geometry* (verified via
//! [`galois_mesh::check::canonical_triangles`]); the variants differ in
//! schedule, work, and determinism of the *execution*.

use galois_core::{Abort, Ctx, ExecError, Executor, Hooks, MarkTable, OpResult, RunReport};
use galois_geometry::brio::brio_order;
use galois_geometry::Point;
use galois_mesh::build::{first_alive, square_mesh};
use galois_mesh::cavity::{grow, locate, retriangulate, Cavity, LocateOutcome};
use galois_mesh::{check, GridLocator, Mesh};
use pbbs_det::{speculative_for, Reservations, SpecForStats, Step};
use std::convert::Infallible;

/// Locator grid resolution: roughly one cell per ~16 points, so ring
/// searches almost always find a live nearby triangle.
fn locator_resolution(points: usize) -> usize {
    ((points / 16).max(4) as f64).sqrt().ceil() as usize
}

/// Next power of two helper for the locator grid.
fn pow2_at_least(v: usize) -> usize {
    v.next_power_of_two()
}

/// The dt input family: `n` uniform random points in the unit square. dmr
/// refines the triangulation of the same family
/// ([`crate::dmr::make_input`]).
pub fn make_input(n: usize, seed: u64) -> Vec<Point> {
    galois_geometry::point::random_points(n, seed)
}

/// Sequential baseline: BRIO order + Bowyer–Watson (Figure 8's dt row).
pub fn seq(points: &[Point], brio_seed: u64) -> Mesh {
    let order = brio_order(points, brio_seed);
    let mut b = galois_mesh::build::SeqBuilder::new(points.len());
    for &i in &order {
        b.insert(points[i]);
    }
    b.into_mesh()
}

/// The shared Galois operator for dt, run under `exec`'s schedule with no
/// observers attached: [`run`] with empty [`Hooks`].
///
/// Returns the finished hull mesh and the run report. Operator panics,
/// livelocks and quarantine overflows come back as [`ExecError`] instead of
/// unwinding.
pub fn try_galois(
    points: &[Point],
    brio_seed: u64,
    exec: &Executor,
) -> Result<(Mesh, RunReport), ExecError> {
    run(points, brio_seed, exec, Hooks::default())
}

/// [`try_galois`] with the caller's observers attached (per-round probe,
/// record/replay recorder); neither changes the executed schedule.
pub fn run(
    points: &[Point],
    brio_seed: u64,
    exec: &Executor,
    hooks: Hooks<'_>,
) -> Result<(Mesh, RunReport), ExecError> {
    let order = brio_order(points, brio_seed);
    let tasks: Vec<Point> = order.iter().map(|&i| points[i]).collect();
    let mesh = square_mesh(points.len(), 0, 0);
    let marks = MarkTable::new(mesh.tri_capacity());
    let locator = GridLocator::new(pow2_at_least(locator_resolution(points.len())));

    let op = |p: &Point, ctx: &mut Ctx<'_, Point>| -> OpResult {
        let cavity = match ctx.take::<Cavity>() {
            Some(c) => c,
            None => {
                // visit = acquire + liveness check: a dead triangle on the
                // path means a racing cavity consumed it (speculative mode
                // only; deterministic phases see stable state).
                let mut visit = |t: u32| -> Result<(), Abort> {
                    ctx.acquire(t)?;
                    if mesh.alive(t) {
                        Ok(())
                    } else {
                        Err(Abort::Conflict)
                    }
                };
                let start = locator
                    .hint(&mesh, *p)
                    .unwrap_or_else(|| first_alive(&mesh));
                let seed = match locate(&mesh, *p, start, &mut visit)? {
                    LocateOutcome::Found(t) => t,
                    LocateOutcome::OnVertex { .. } => return Ok(()), // duplicate point
                    LocateOutcome::OutsideBoundary { .. } => {
                        unreachable!("inputs lie inside the square domain")
                    }
                };
                let c = grow(&mesh, *p, seed, &mut visit)?;
                ctx.checkpoint(c)?
            }
        };
        ctx.failsafe()?;
        let v = mesh.add_vertex(*p);
        let created = retriangulate(&mesh, &cavity, v);
        locator.update(*p, created[0]);
        ctx.count_atomics(1);
        Ok(())
    };

    let report = exec.iterate(tasks).hooks(hooks).try_run(&marks, &op)?;
    Ok((mesh, report))
}

/// Checks that `mesh` is a structurally valid Delaunay triangulation.
pub fn verify(mesh: &Mesh) -> Result<(), String> {
    check::validate(mesh).map_err(|e| format!("structure: {e}"))?;
    check::check_delaunay(mesh).map_err(|e| format!("Delaunay property: {e}"))
}

/// Handwritten deterministic dt (PBBS style): deterministic reservations
/// over the points. Each point computes its cavity against the round-start
/// mesh and reserves the cavity plus its boundary ring with its (fixed)
/// insertion index; winners retriangulate.
///
/// Points are processed in a seeded *random* order: §4.1 notes the PBBS
/// implementation randomizes points offline (unlike Lonestar's online BRIO),
/// which also keeps same-round cavities spread apart.
pub fn pbbs(
    points: &[Point],
    shuffle_seed: u64,
    threads: usize,
    record_trace: bool,
) -> (Mesh, SpecForStats) {
    let tasks: Vec<Point> = {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut v = points.to_vec();
        v.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(shuffle_seed));
        v
    };
    let mesh = square_mesh(points.len(), 0, 0);
    let step = DtStep {
        reservations: Reservations::new(mesh.tri_capacity()),
        locator: GridLocator::new(pow2_at_least(locator_resolution(points.len()))),
        mesh,
    };
    let stats = speculative_for(&step, tasks, threads, record_trace);
    (step.mesh, stats)
}

/// A cavity whose lock set ([`Cavity::lock_set`]) is reserved with one
/// item's priority: the plan of a pbbs dt or dmr insertion.
pub(crate) struct Claim {
    pub(crate) cavity: Cavity,
    locks: Vec<u32>,
}

impl Claim {
    /// Reserves `cavity`'s lock set with `priority`.
    pub(crate) fn reserve(r: &Reservations, cavity: Cavity, priority: u64) -> Claim {
        let locks = cavity.lock_set();
        for &t in &locks {
            r.reserve(t as usize, priority);
        }
        Claim { cavity, locks }
    }

    /// The priority writes [`Claim::reserve`] issued.
    pub(crate) fn writes(&self) -> u64 {
        self.locks.len() as u64
    }

    /// Whether every reservation held; frees the ones that did.
    pub(crate) fn settle(&self, r: &Reservations, priority: u64) -> bool {
        let won = self.locks.iter().all(|&t| r.check(t as usize, priority));
        for &t in &self.locks {
            r.check_reset(t as usize, priority);
        }
        won
    }
}

/// [`pbbs`]'s step. A duplicate point plans nothing and counts as
/// committed.
struct DtStep {
    mesh: Mesh,
    reservations: Reservations,
    locator: GridLocator,
}

impl Step for DtStep {
    type Item = Point;
    type Plan = Option<Claim>;

    /// PBBS prefix factor (a tuned constant — exactly the kind of
    /// performance parameter the paper notes these codes have, §6; larger
    /// divisors mean fewer intra-round cavity conflicts but more rounds),
    /// with prefix doubling: while the mesh is small almost any two
    /// cavities collide, so early rounds stay within twice the points
    /// inserted so far (the four domain corners and every finished point).
    fn prefix(&self, remaining: usize, done: u64) -> usize {
        remaining.div_ceil(96).min(2 * (4 + done as usize))
    }

    fn reserve(&self, priority: u64, p: Point) -> Option<Option<Claim>> {
        let mesh = &self.mesh;
        let mut nofail = |_t: u32| -> Result<(), Infallible> { Ok(()) };
        let start = self
            .locator
            .hint(mesh, p)
            .unwrap_or_else(|| first_alive(mesh));
        let Ok(located) = locate(mesh, p, start, &mut nofail);
        let seed = match located {
            LocateOutcome::Found(t) => t,
            LocateOutcome::OnVertex { .. } => return Some(None), // duplicate
            LocateOutcome::OutsideBoundary { .. } => unreachable!("square domain"),
        };
        let Ok(cavity) = grow(mesh, p, seed, &mut nofail);
        Some(Some(Claim::reserve(&self.reservations, cavity, priority)))
    }

    fn priority_writes(&self, plan: &Option<Claim>) -> u64 {
        plan.as_ref().map_or(0, Claim::writes)
    }

    fn commit(&self, priority: u64, p: Point, plan: Option<Claim>, _: &mut Vec<Point>) -> bool {
        let Some(claim) = plan else {
            return true;
        };
        if !claim.settle(&self.reservations, priority) {
            return false;
        }
        let v = self.mesh.add_vertex(p);
        let created = retriangulate(&self.mesh, &claim.cavity, v);
        self.locator.update(p, created[0]);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_core::Schedule;
    use galois_geometry::point::random_points;
    use galois_mesh::check;

    fn pts() -> Vec<Point> {
        random_points(250, 21)
    }

    #[test]
    fn galois_serial_matches_seq_builder() {
        let pts = pts();
        let expect = check::canonical_triangles(&seq(&pts, 5));
        let exec = Executor::new().schedule(Schedule::Serial);
        let (mesh, report) = try_galois(&pts, 5, &exec).unwrap();
        check::validate(&mesh).unwrap();
        check::check_delaunay(&mesh).unwrap();
        assert_eq!(check::canonical_triangles(&mesh), expect);
        assert_eq!(report.stats.committed, 250);
    }

    #[test]
    fn galois_speculative_unique_triangulation() {
        let pts = pts();
        let expect = check::canonical_triangles(&seq(&pts, 5));
        for threads in [1usize, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::Speculative);
            let (mesh, report) = try_galois(&pts, 5, &exec).unwrap();
            check::validate(&mesh).unwrap();
            check::check_delaunay(&mesh).unwrap();
            assert_eq!(
                check::canonical_triangles(&mesh),
                expect,
                "threads={threads}"
            );
            assert_eq!(report.stats.committed, 250);
        }
    }

    #[test]
    fn galois_deterministic_unique_triangulation() {
        let pts = pts();
        let expect = check::canonical_triangles(&seq(&pts, 5));
        for threads in [1usize, 2, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::deterministic());
            let (mesh, report) = try_galois(&pts, 5, &exec).unwrap();
            check::validate(&mesh).unwrap();
            check::check_delaunay(&mesh).unwrap();
            assert_eq!(
                check::canonical_triangles(&mesh),
                expect,
                "threads={threads}"
            );
            assert_eq!(report.stats.committed, 250);
            assert!(report.stats.rounds > 0);
        }
    }

    #[test]
    fn pbbs_matches_and_is_portable() {
        let pts = pts();
        let expect = check::canonical_triangles(&seq(&pts, 5));
        for threads in [1usize, 3] {
            let (mesh, stats) = pbbs(&pts, 5, threads, false);
            check::validate(&mesh).unwrap();
            check::check_delaunay(&mesh).unwrap();
            assert_eq!(
                check::canonical_triangles(&mesh),
                expect,
                "threads={threads}"
            );
            assert_eq!(stats.committed, 250);
        }
    }

    #[test]
    fn tiny_inputs() {
        let three = vec![
            Point::from_grid(0, 0),
            Point::from_grid(1000, 0),
            Point::from_grid(0, 1000),
        ];
        let mesh = seq(&three, 1);
        // (0,0) duplicates a corner; the other two lie on the square's
        // sides, so all 6 vertices are on the hull: 2*6 - 2 - 6 = 4.
        assert_eq!(mesh.num_tris_alive(), 4);
        galois_mesh::check::validate(&mesh).unwrap();
        let exec = Executor::new()
            .threads(2)
            .schedule(Schedule::deterministic());
        let (mesh2, _) = try_galois(&three, 1, &exec).unwrap();
        assert_eq!(
            check::canonical_triangles(&mesh),
            check::canonical_triangles(&mesh2)
        );
    }
}
