//! Delaunay mesh refinement (§4.1).
//!
//! Input: the Delaunay mesh of random points in the unit square plus the
//! four square corners (built sequentially, like the paper's offline input).
//! A task takes a *bad* triangle (smallest angle < 30°), inserts its
//! circumcenter — or, when the circumcenter falls outside the mesh, a point
//! splitting the crossed hull edge — by Bowyer–Watson cavity
//! retriangulation, and creates tasks for any new bad triangles. Tiny
//! triangles are never refined ([`galois_geometry::tri::MIN_REFINE_EDGE2`]),
//! guaranteeing termination at finite precision.
//!
//! All variants keep the mesh Delaunay; output equality across thread
//! counts is checked on the canonical geometric form.

use crate::dt::Claim;
use galois_core::{Abort, Ctx, ExecError, Executor, Hooks, MarkTable, OpResult, RunReport};
use galois_geometry::predicates::orient2d_sign;
use galois_geometry::tri::{circumcenter, is_bad};
use galois_geometry::Point;
use galois_mesh::build::SeqBuilder;
use galois_mesh::cavity::{grow, locate, retriangulate, Cavity, LocateOutcome};
use galois_mesh::{check, Mesh};
use pbbs_det::{speculative_for, Reservations, SpecForStats, Step};
use std::convert::Infallible;

/// Builds the dmr input: `n` random interior points plus the four unit
/// square corners, triangulated sequentially, with arena headroom for
/// refinement.
pub fn make_input(n: usize, seed: u64) -> Mesh {
    let pts = crate::dt::make_input(n, seed);
    // Headroom for in-place refinement. Refining to a 30° minimum angle on
    // random inputs is aggressive (30° is past Ruppert's guarantee); the
    // observed growth factor is ~16x vertices at n=2000 and falls with n.
    // The affine bound below covers small inputs, where grading between a
    // sparse point set and the fixed square boundary dominates.
    let mut b = SeqBuilder::with_headroom(
        pts.len(),
        30 * pts.len() + 60_000,
        250 * pts.len() + 500_000,
    );
    for &p in &pts {
        b.insert(p);
    }
    b.into_mesh()
}

/// Picks the insertion point for refining bad triangle `t`: the
/// circumcenter, or a hull-edge split point when the center lies outside
/// the mesh.
///
/// Returns `(seed_triangle, point)` or `None` when the triangle should be
/// skipped (degenerate circumcenter or an unsplittable edge). `visit` is
/// called on every triangle read.
fn insertion_point<E>(
    mesh: &Mesh,
    t: u32,
    visit: &mut impl FnMut(u32) -> Result<(), E>,
) -> Result<Option<(u32, Point)>, E> {
    let [a, b, c] = mesh.tri_points(t);
    let Some(cc) = circumcenter(a, b, c) else {
        return Ok(None);
    };
    match locate(mesh, cc, t, visit)? {
        LocateOutcome::Found(seed) => Ok(Some((seed, cc))),
        LocateOutcome::OnVertex { .. } => Ok(None),
        LocateOutcome::OutsideBoundary { tri, edge } => {
            // Split the crossed hull segment at its midpoint (Ruppert-style
            // segment split). The dmr domain's hull edges are axis-aligned
            // (square corners plus interior points), so the floored midpoint
            // lies *exactly* on the segment — the retriangulation's
            // degenerate-edge path then splits the hull cleanly, with no
            // sliver triangles.
            let d = mesh.tri(tri);
            let pa = mesh.vertex(d.v[edge]);
            let pb = mesh.vertex(d.v[(edge + 1) % 3]);
            let (ax, ay) = pa.to_grid();
            let (bx, by) = pb.to_grid();
            let p = Point::from_grid((ax + bx).div_euclid(2), (ay + by).div_euclid(2));
            if p == pa || p == pb {
                return Ok(None); // segment too short to split
            }
            debug_assert_eq!(orient2d_sign(pa, pb, p), 0, "hull edges are axis-aligned");
            match locate(mesh, p, tri, visit)? {
                LocateOutcome::Found(seed) => Ok(Some((seed, p))),
                _ => Ok(None),
            }
        }
    }
}

/// The shared Galois operator for dmr, run under `exec`'s schedule with no
/// observers attached: [`run`] with empty [`Hooks`].
///
/// Refines `mesh` in place and returns the run report. Operator panics,
/// livelocks and quarantine overflows come back as [`ExecError`] instead of
/// unwinding.
pub fn try_galois(mesh: &Mesh, exec: &Executor) -> Result<RunReport, ExecError> {
    run(mesh, exec, Hooks::default())
}

/// [`try_galois`] with the caller's observers attached (per-round probe,
/// record/replay recorder); neither changes the executed schedule.
pub fn run(mesh: &Mesh, exec: &Executor, hooks: Hooks<'_>) -> Result<RunReport, ExecError> {
    let marks = MarkTable::new(mesh.tri_capacity());
    let initial = check::bad_triangles(mesh);

    let op = |t: &u32, ctx: &mut Ctx<'_, u32>| -> OpResult {
        ctx.acquire(*t)?;
        if !mesh.alive(*t) {
            // Consumed by an earlier cavity; nothing to refine.
            return ctx.failsafe().and(Ok(()));
        }
        let payload = match ctx.take::<Option<(Cavity, Point)>>() {
            Some(p) => p,
            None => {
                let mut visit = |tri: u32| -> Result<(), Abort> {
                    ctx.acquire(tri)?;
                    if mesh.alive(tri) {
                        Ok(())
                    } else {
                        Err(Abort::Conflict)
                    }
                };
                let computed = match insertion_point(mesh, *t, &mut visit)? {
                    None => None,
                    Some((seed, p)) => {
                        let cavity = grow(mesh, p, seed, &mut visit)?;
                        Some((cavity, p))
                    }
                };
                ctx.checkpoint(computed)?
            }
        };
        ctx.failsafe()?;
        let Some((cavity, p)) = payload else {
            return Ok(()); // unsplittable; leave as-is
        };
        let v = mesh.add_vertex(p);
        let created = retriangulate(mesh, &cavity, v);
        ctx.count_atomics(1);
        for &nt in &created {
            let [x, y, z] = mesh.tri_points(nt);
            if is_bad(x, y, z) {
                ctx.push(nt);
            }
        }
        // A boundary split may leave the original bad triangle alive
        // (Ruppert: retry it after the encroached segment is gone).
        if mesh.alive(*t) {
            ctx.push(*t);
        }
        Ok(())
    };

    exec.iterate(initial).hooks(hooks).try_run(&marks, &op)
}

/// Checks that `mesh` is a structurally valid Delaunay mesh in which no bad
/// triangle survived refinement.
pub fn verify(mesh: &Mesh) -> Result<(), String> {
    crate::dt::verify(mesh)?;
    // Collecting allocates nothing while the list stays empty.
    match check::bad_triangles(mesh).len() {
        0 => Ok(()),
        bad => Err(format!("{bad} bad triangles survive refinement")),
    }
}

/// Handwritten deterministic dmr (PBBS style): deterministic reservations
/// over the bad-triangle worklist. Priorities are arrival indices, and new
/// bad triangles are appended in slot order, so every round — and the
/// final mesh geometry — is thread-count independent.
pub fn pbbs(mesh: &Mesh, threads: usize, record_trace: bool) -> SpecForStats {
    // Adjacent slots hold spatially adjacent triangles whose cavities
    // overlap; PBBS-style codes shuffle the worklist (with a fixed seed, so
    // the priorities — and the output — stay deterministic).
    let worklist = {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut v = check::bad_triangles(mesh);
        v.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(0x9bb5));
        v
    };
    let step = DmrStep {
        mesh,
        reservations: Reservations::new(mesh.tri_capacity()),
    };
    speculative_for(&step, worklist, threads, record_trace)
}

/// [`pbbs`]'s step. A consumed or unplaceable triangle plans nothing and
/// counts as committed.
struct DmrStep<'a> {
    mesh: &'a Mesh,
    reservations: Reservations,
}

impl Step for DmrStep<'_> {
    type Item = u32;
    /// The claimed cavity and the point to insert into it.
    type Plan = Option<(Claim, Point)>;

    /// PBBS prefix factor (a tuned constant, §6) with a floor that keeps
    /// endgame rounds from degenerating to one task.
    fn prefix(&self, remaining: usize, _done: u64) -> usize {
        remaining.div_ceil(96).max(8)
    }

    fn reserve(&self, priority: u64, t: u32) -> Option<Self::Plan> {
        let mesh = self.mesh;
        if !mesh.alive(t) {
            return Some(None); // consumed by an earlier cavity
        }
        let mut nofail = |_t: u32| -> Result<(), Infallible> { Ok(()) };
        let Ok(placed) = insertion_point(mesh, t, &mut nofail);
        let Some((seed, p)) = placed else {
            return Some(None); // no splittable insertion point
        };
        let Ok(cavity) = grow(mesh, p, seed, &mut nofail);
        Some(Some((
            Claim::reserve(&self.reservations, cavity, priority),
            p,
        )))
    }

    fn priority_writes(&self, plan: &Self::Plan) -> u64 {
        plan.as_ref().map_or(0, |(claim, _)| claim.writes())
    }

    fn commit(&self, priority: u64, t: u32, plan: Self::Plan, created: &mut Vec<u32>) -> bool {
        let Some((claim, p)) = plan else {
            return true;
        };
        if !claim.settle(&self.reservations, priority) {
            return false;
        }
        let mesh = self.mesh;
        let v = mesh.add_vertex(p);
        for nt in retriangulate(mesh, &claim.cavity, v) {
            let [x, y, z] = mesh.tri_points(nt);
            if is_bad(x, y, z) {
                created.push(nt);
            }
        }
        // Retry the original triangle if a boundary split left it alive
        // (it is still bad by construction).
        if mesh.alive(t) {
            created.push(t);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_core::Schedule;

    fn refined_ok(mesh: &Mesh) {
        check::validate(mesh).unwrap();
        check::check_delaunay(mesh).unwrap();
        let q = check::quality(mesh);
        assert_eq!(q.bad, 0, "no refinable bad triangles may remain: {q:?}");
    }

    #[test]
    fn serial_refinement_fixes_all_bad_triangles() {
        let mesh = make_input(120, 3);
        let before = check::quality(&mesh);
        assert!(before.bad > 0, "input should contain bad triangles");
        let exec = Executor::new().schedule(Schedule::Serial);
        let report = try_galois(&mesh, &exec).unwrap();
        refined_ok(&mesh);
        assert!(report.stats.committed as usize >= before.bad);
    }

    #[test]
    fn speculative_refinement_valid_any_threads() {
        for threads in [1usize, 4] {
            let mesh = make_input(120, 3);
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::Speculative);
            try_galois(&mesh, &exec).unwrap();
            refined_ok(&mesh);
        }
    }

    #[test]
    fn deterministic_refinement_portable_geometry() {
        let mut canon: Option<Vec<[(i64, i64); 3]>> = None;
        for threads in [1usize, 2, 4] {
            let mesh = make_input(120, 3);
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::deterministic());
            try_galois(&mesh, &exec).unwrap();
            refined_ok(&mesh);
            let c = check::canonical_triangles(&mesh);
            if let Some(prev) = &canon {
                assert_eq!(&c, prev, "refined mesh changed with {threads} threads");
            }
            canon = Some(c);
        }
    }

    #[test]
    fn pbbs_refinement_portable_geometry() {
        let mut canon: Option<Vec<[(i64, i64); 3]>> = None;
        for threads in [1usize, 3] {
            let mesh = make_input(120, 3);
            let stats = pbbs(&mesh, threads, false);
            refined_ok(&mesh);
            assert!(stats.committed > 0);
            let c = check::canonical_triangles(&mesh);
            if let Some(prev) = &canon {
                assert_eq!(&c, prev, "pbbs dmr changed with {threads} threads");
            }
            canon = Some(c);
        }
    }

    #[test]
    fn already_good_mesh_is_untouched() {
        // The bare square domain splits into two 45° right triangles:
        // nothing to refine.
        let mesh = galois_mesh::build::triangulate(&[]);
        assert_eq!(check::quality(&mesh).bad, 0);
        let exec = Executor::new().schedule(Schedule::Serial);
        let report = try_galois(&mesh, &exec).unwrap();
        assert_eq!(report.stats.committed, 0);
        assert_eq!(mesh.num_tris_alive(), 2);
    }
}

#[cfg(test)]
mod growth_probe {
    use super::*;
    use galois_core::Schedule;

    #[test]
    #[ignore]
    fn probe_growth() {
        let mesh = make_input(120, 3);
        let q0 = check::quality(&mesh);
        let v0 = mesh.num_verts();
        let exec = Executor::new().schedule(Schedule::Serial);
        let report = try_galois(&mesh, &exec).unwrap();
        let q1 = check::quality(&mesh);
        eprintln!("before: {q0:?} verts={v0}");
        eprintln!(
            "after: {q1:?} verts={} committed={}",
            mesh.num_verts(),
            report.stats.committed
        );
    }
}
