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

use galois_core::{
    Abort, Ctx, ExecError, Executor, Hooks, MarkTable, OpResult, Probe, RoundLog, RoundRecord,
    RunReport,
};
use galois_geometry::brio::brio_order;
use galois_geometry::Point;
use galois_mesh::build::{first_alive, square_mesh};
use galois_mesh::cavity::{grow, locate, retriangulate, Cavity, LocateOutcome};
use galois_mesh::{check, GridLocator, Mesh};
use galois_runtime::pool::{chunk_range, run_on_threads};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Statistics of the PBBS-style deterministic dt.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PbbsDtStats {
    /// Bulk-synchronous rounds.
    pub rounds: u64,
    /// Successful insertions.
    pub committed: u64,
    /// Failed reservation attempts (retries).
    pub aborted: u64,
    /// Priority writes issued.
    pub atomic_updates: u64,
    /// The run's rounds, when a trace was requested.
    pub round_log: RoundLog,
}

/// Handwritten deterministic dt (PBBS style): rounds of deterministic
/// reservations over a prefix of the remaining points. Each point computes
/// its cavity against the round-start mesh and reserves the cavity plus its
/// boundary ring with its (fixed) insertion index; winners retriangulate.
///
/// Points are processed in a seeded *random* order: §4.1 notes the PBBS
/// implementation randomizes points offline (unlike Lonestar's online BRIO),
/// which also keeps same-round cavities spread apart.
pub fn pbbs(
    points: &[Point],
    shuffle_seed: u64,
    threads: usize,
    record_trace: bool,
) -> (Mesh, PbbsDtStats) {
    let tasks: Vec<Point> = {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut v = points.to_vec();
        v.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(shuffle_seed));
        v
    };
    let mesh = square_mesh(points.len(), 0, 0);
    let reservations = pbbs_det::Reservations::new(mesh.tri_capacity());
    let locator = GridLocator::new(pow2_at_least(locator_resolution(points.len())));
    let mut stats = PbbsDtStats::default();

    let mut remaining: Vec<(u64, Point)> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect();
    // PBBS prefix factor (a tuned constant — exactly the kind of
    // performance parameter the paper notes these codes have, §6). Larger
    // divisors mean smaller rounds: fewer intra-round cavity conflicts at
    // the cost of more bulk-synchronous rounds.
    const PREFIX_DIVISOR: usize = 96;

    let mut inserted = 4usize; // the domain corners
    while !remaining.is_empty() {
        // Prefix grows with the mesh (PBBS-style prefix doubling): while the
        // mesh is small almost any two cavities collide, so early rounds
        // stay small and later rounds widen toward remaining/divisor.
        let prefix = remaining
            .len()
            .div_ceil(PREFIX_DIVISOR)
            .min(2 * inserted)
            .max(threads.min(remaining.len()))
            .min(remaining.len());
        let cur = &remaining[..prefix];
        // (cavity, reserved lock set) per in-flight item.
        type Plan = Option<(Cavity, Vec<u32>)>;
        let cavities: Vec<Mutex<Plan>> = (0..prefix).map(|_| Mutex::new(None)).collect();
        let atomics = AtomicU64::new(0);
        let t0 = record_trace.then(std::time::Instant::now);

        // Reserve phase: locate, grow, reserve cavity ∪ boundary ring.
        run_on_threads(threads, |tid| {
            let mut local_atomics = 0u64;
            for k in chunk_range(prefix, threads, tid) {
                let (idx, p) = cur[k];
                let mut nofail = |_t: u32| -> Result<(), Infallible> { Ok(()) };
                let start = locator.hint(&mesh, p).unwrap_or_else(|| first_alive(&mesh));
                let seed = match locate(&mesh, p, start, &mut nofail).unwrap() {
                    LocateOutcome::Found(t) => t,
                    LocateOutcome::OnVertex { .. } => continue, // duplicate: drop
                    LocateOutcome::OutsideBoundary { .. } => unreachable!("square domain"),
                };
                let cavity = grow(&mesh, p, seed, &mut nofail).unwrap();
                let mut locks: Vec<u32> = cavity.tris.clone();
                for be in &cavity.boundary {
                    if be.outer != galois_mesh::INVALID && !locks.contains(&be.outer) {
                        locks.push(be.outer);
                    }
                }
                for &t in &locks {
                    reservations.reserve(t as usize, idx);
                    local_atomics += 1;
                }
                *cavities[k].lock().unwrap() = Some((cavity, locks));
            }
            atomics.fetch_add(local_atomics, Ordering::Relaxed);
        });
        let reserve_ns = t0.map(|t| t.elapsed().as_nanos() as f64);
        let t1 = record_trace.then(std::time::Instant::now);

        // Commit phase: winners apply; everyone clears their reservations.
        let failed_flags: Vec<AtomicU32> = (0..prefix).map(|_| AtomicU32::new(0)).collect();
        run_on_threads(threads, |tid| {
            for k in chunk_range(prefix, threads, tid) {
                let (idx, p) = cur[k];
                let Some((cavity, locks)) = cavities[k].lock().unwrap().take() else {
                    continue; // dropped duplicate
                };
                let won = locks.iter().all(|&t| reservations.check(t as usize, idx));
                if won {
                    let v = mesh.add_vertex(p);
                    let created = retriangulate(&mesh, &cavity, v);
                    locator.update(p, created[0]);
                } else {
                    failed_flags[k].store(1, Ordering::Relaxed);
                }
                for &t in &locks {
                    reservations.check_reset(t as usize, idx);
                }
            }
        });
        let commit_ns = t1.map(|t| t.elapsed().as_nanos() as f64);
        let t2 = record_trace.then(std::time::Instant::now);

        let mut next: Vec<(u64, Point)> = Vec::with_capacity(remaining.len());
        let mut committed_round = 0u64;
        for k in 0..prefix {
            if failed_flags[k].load(Ordering::Relaxed) == 1 {
                next.push(cur[k]);
            } else {
                committed_round += 1;
            }
        }
        inserted += committed_round as usize;
        let failed_round = next.len() as u64;
        next.extend_from_slice(&remaining[prefix..]);
        remaining = next;

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

    (mesh, stats)
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
