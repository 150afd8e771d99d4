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

use galois_core::{
    Abort, Ctx, ExecError, Executor, Hooks, MarkTable, OpResult, Probe, RoundLog, RoundRecord,
    RunReport,
};
use galois_geometry::predicates::orient2d_sign;
use galois_geometry::tri::{circumcenter, is_bad};
use galois_geometry::Point;
use galois_mesh::build::SeqBuilder;
use galois_mesh::cavity::{grow, locate, retriangulate, Cavity, LocateOutcome};
use galois_mesh::{check, Mesh, INVALID};
use galois_runtime::pool::{chunk_range, run_on_threads};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Statistics of the PBBS-style deterministic dmr.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PbbsDmrStats {
    /// Bulk-synchronous rounds.
    pub rounds: u64,
    /// Successful refinements.
    pub committed: u64,
    /// Failed reservation attempts (retries).
    pub aborted: u64,
    /// Priority writes issued.
    pub atomic_updates: u64,
    /// The run's rounds, when a trace was requested.
    pub round_log: RoundLog,
}

/// Handwritten deterministic dmr (PBBS style): bulk-synchronous rounds of
/// deterministic reservations over a prefix of the bad-triangle worklist.
/// Priorities are monotone arrival indices, new bad triangles are appended
/// in committed-task order, so every round — and the final mesh geometry —
/// is thread-count independent.
pub fn pbbs(mesh: &Mesh, threads: usize, record_trace: bool) -> PbbsDmrStats {
    let reservations = pbbs_det::Reservations::new(mesh.tri_capacity());
    let mut stats = PbbsDmrStats::default();
    // Adjacent slots hold spatially adjacent triangles whose cavities
    // overlap; PBBS-style codes shuffle the worklist (with a fixed seed, so
    // the priorities — and the output — stay deterministic).
    let mut worklist: Vec<(u64, u32)> = {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut v = check::bad_triangles(mesh);
        v.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(0x9bb5));
        v.into_iter()
            .enumerate()
            .map(|(i, t)| (i as u64, t))
            .collect()
    };
    let mut next_priority = worklist.len() as u64;
    const PREFIX_DIVISOR: usize = 96;
    // The floor keeps endgame rounds from degenerating to one task. It must
    // be a constant, NOT `threads`: the prefix determines round composition
    // and hence the final geometry, so any thread-count input here breaks
    // the portability guarantee this function documents.
    const PREFIX_FLOOR: usize = 8;

    while !worklist.is_empty() {
        let prefix = worklist
            .len()
            .div_ceil(PREFIX_DIVISOR)
            .max(PREFIX_FLOOR)
            .min(worklist.len());
        let cur = &worklist[..prefix];
        // (cavity, insertion point, reserved lock set) per in-flight item.
        type Plan = Option<(Cavity, Point, Vec<u32>)>;
        let plans: Vec<Mutex<Plan>> = (0..prefix).map(|_| Mutex::new(None)).collect();
        let atomics = AtomicU64::new(0);
        let t0 = record_trace.then(std::time::Instant::now);

        // Reserve phase.
        run_on_threads(threads, |tid| {
            let mut local_atomics = 0u64;
            for k in chunk_range(prefix, threads, tid) {
                let (idx, t) = cur[k];
                if !mesh.alive(t) {
                    continue; // consumed earlier; drop
                }
                let mut nofail = |_t: u32| -> Result<(), Infallible> { Ok(()) };
                let Some((seed, p)) = insertion_point(mesh, t, &mut nofail).unwrap() else {
                    continue;
                };
                let cavity = grow(mesh, p, seed, &mut nofail).unwrap();
                let mut locks: Vec<u32> = cavity.tris.clone();
                for be in &cavity.boundary {
                    if be.outer != INVALID && !locks.contains(&be.outer) {
                        locks.push(be.outer);
                    }
                }
                for &l in &locks {
                    reservations.reserve(l as usize, idx);
                    local_atomics += 1;
                }
                *plans[k].lock().unwrap() = Some((cavity, p, locks));
            }
            atomics.fetch_add(local_atomics, Ordering::Relaxed);
        });
        let reserve_ns = t0.map(|t| t.elapsed().as_nanos() as f64);
        let t1 = record_trace.then(std::time::Instant::now);

        // Commit phase; per-slot created lists keep the append order
        // deterministic (flattened in worklist order afterwards).
        let failed_flags: Vec<AtomicU32> = (0..prefix).map(|_| AtomicU32::new(0)).collect();
        let created_per: Vec<Mutex<Vec<u32>>> =
            (0..prefix).map(|_| Mutex::new(Vec::new())).collect();
        run_on_threads(threads, |tid| {
            for k in chunk_range(prefix, threads, tid) {
                let (idx, _t) = cur[k];
                let Some((cavity, p, locks)) = plans[k].lock().unwrap().take() else {
                    continue;
                };
                let won = locks.iter().all(|&l| reservations.check(l as usize, idx));
                if won {
                    let v = mesh.add_vertex(p);
                    let created = retriangulate(mesh, &cavity, v);
                    let mut bad: Vec<u32> = Vec::new();
                    for nt in created {
                        let [x, y, z] = mesh.tri_points(nt);
                        if is_bad(x, y, z) {
                            bad.push(nt);
                        }
                    }
                    // Retry the original triangle if a boundary split left
                    // it alive (it is still bad by construction).
                    if mesh.alive(cur[k].1) {
                        bad.push(cur[k].1);
                    }
                    *created_per[k].lock().unwrap() = bad;
                } else {
                    failed_flags[k].store(1, Ordering::Relaxed);
                }
                for &l in &locks {
                    reservations.check_reset(l as usize, idx);
                }
            }
        });
        let commit_ns = t1.map(|t| t.elapsed().as_nanos() as f64);
        let t2 = record_trace.then(std::time::Instant::now);

        let mut next: Vec<(u64, u32)> = Vec::with_capacity(worklist.len());
        let mut committed_round = 0u64;
        for k in 0..prefix {
            if failed_flags[k].load(Ordering::Relaxed) == 1 {
                next.push(cur[k]);
            } else {
                committed_round += 1;
            }
        }
        let failed_round = next.len() as u64;
        next.extend_from_slice(&worklist[prefix..]);
        // Append new bad triangles in deterministic (worklist-position) order.
        for per in &created_per {
            for &nt in per.lock().unwrap().iter() {
                next.push((next_priority, nt));
                next_priority += 1;
            }
        }
        worklist = next;

        stats.rounds += 1;
        stats.committed += committed_round;
        stats.aborted += failed_round;
        stats.atomic_updates += atomics.load(Ordering::Relaxed);
        if let (Some(r), Some(c), Some(t2)) = (reserve_ns, commit_ns, t2) {
            let flatten_ns = t2.elapsed().as_nanos() as f64;
            stats.round_log.on_round(RoundRecord::bulk(
                stats.rounds - 1,
                prefix as u64,
                committed_round,
                failed_round,
                [r, c, flatten_ns],
            ));
        }
    }
    stats
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
