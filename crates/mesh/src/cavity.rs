//! Point location, cavity growth, and retriangulation (Bowyer–Watson).
//!
//! These routines are shared verbatim by the sequential builder and the
//! parallel variants; the `visit` hook is called on every triangle *before*
//! it is read, which is where parallel operators acquire abstract locks
//! (making the walk path and cavity part of the task's neighborhood, as in
//! the original Galois dt/dmr — §3.2 "the only way to get the neighborhood
//! of a task is to execute the task"). The sequential builder passes an
//! infallible no-op.
//!
//! All iteration is in **connectivity order** (edge index order, FIFO
//! discovery), never in slot-id order; this keeps the geometric evolution of
//! the mesh identical across runs even though slot ids are allocated
//! concurrently (see DESIGN.md on determinism up to arena renaming).

use crate::mesh::{Mesh, INVALID};
use galois_geometry::predicates::{incircle, orient2d_sign};
use galois_geometry::Point;

/// Where a point-location walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocateOutcome {
    /// `p` lies inside (or on the boundary of) this alive triangle.
    Found(u32),
    /// `p` coincides exactly with an existing vertex.
    OnVertex {
        /// The triangle that contains the vertex.
        tri: u32,
        /// The coincident vertex id.
        vertex: u32,
    },
    /// The walk crossed hull edge `edge` of triangle `tri`; `p` lies outside
    /// the mesh.
    OutsideBoundary {
        /// Boundary triangle.
        tri: u32,
        /// Its hull edge index.
        edge: usize,
    },
}

/// Walks from `start` toward `p`.
///
/// `visit` is called on every triangle before its data is read, including
/// `start`. Under speculative execution `start` may have died between the
/// caller's liveness check and this call; the visit hook is where such
/// staleness is detected (lock, then check liveness, and return a conflict)
/// — with an infallible hook the caller must guarantee `start` is alive.
/// With exact predicates on a Delaunay mesh the straight visibility walk
/// terminates; a step cap guards against protocol misuse.
///
/// # Errors
///
/// Propagates the first `visit` error (a lock conflict in speculative
/// executions).
///
/// # Panics
///
/// Panics if the step cap is exceeded (broken mesh or dead `start` with an
/// infallible visit hook).
pub fn locate<E>(
    mesh: &Mesh,
    p: Point,
    start: u32,
    visit: &mut impl FnMut(u32) -> Result<(), E>,
) -> Result<LocateOutcome, E> {
    let mut cur = start;
    // Sized from the fixed capacity: the allocation counter's line is
    // written by every concurrent `create_tri`.
    let cap = 4 * mesh.tri_capacity() + 16;
    let mut steps = 0;
    'walk: loop {
        steps += 1;
        assert!(steps < cap, "locate walk exceeded step cap (broken mesh?)");
        visit(cur)?;
        let d = mesh.tri(cur);
        let pts = [
            mesh.vertex(d.v[0]),
            mesh.vertex(d.v[1]),
            mesh.vertex(d.v[2]),
        ];
        for (k, &pk) in pts.iter().enumerate() {
            if pk == p {
                return Ok(LocateOutcome::OnVertex {
                    tri: cur,
                    vertex: d.v[k],
                });
            }
        }
        for i in 0..3 {
            // Edge i runs pts[i] → pts[(i+1)%3]; p strictly right of it
            // means the walk leaves through this edge.
            if orient2d_sign(pts[i], pts[(i + 1) % 3], p) < 0 {
                let nb = d.n[i];
                if nb == INVALID {
                    return Ok(LocateOutcome::OutsideBoundary { tri: cur, edge: i });
                }
                cur = nb;
                continue 'walk;
            }
        }
        return Ok(LocateOutcome::Found(cur));
    }
}

/// One edge of a cavity boundary: the directed edge `a → b` (cavity on the
/// left) and the surviving triangle on the other side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryEdge {
    /// Edge start vertex.
    pub a: u32,
    /// Edge end vertex.
    pub b: u32,
    /// Triangle across the edge ([`INVALID`] on the hull).
    pub outer: u32,
    /// The edge index in `outer` that points back into the cavity.
    pub outer_edge: usize,
}

/// A Bowyer–Watson cavity: the triangles whose circumcircle strictly
/// contains the new point, plus the directed boundary cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cavity {
    /// Doomed triangles, in FIFO discovery order from the seed.
    pub tris: Vec<u32>,
    /// Boundary edges, in discovery order (a subsequence of a directed
    /// cycle around the cavity).
    pub boundary: Vec<BoundaryEdge>,
}

impl Cavity {
    /// The triangles an insertion into this cavity must own against
    /// concurrent ones: the cavity's triangles, then each triangle across
    /// its boundary (the ring whose neighbor links the retriangulation
    /// rewrites), each once.
    pub fn lock_set(&self) -> Vec<u32> {
        let mut locks = self.tris.clone();
        for be in &self.boundary {
            if be.outer != INVALID && !locks.contains(&be.outer) {
                locks.push(be.outer);
            }
        }
        locks
    }
}

/// Grows the cavity of `p` from `seed` (the triangle containing `p`, which
/// the caller has already visited/locked).
///
/// # Errors
///
/// Propagates the first `visit` error.
pub fn grow<E>(
    mesh: &Mesh,
    p: Point,
    seed: u32,
    visit: &mut impl FnMut(u32) -> Result<(), E>,
) -> Result<Cavity, E> {
    // A dmr cavity has 3 triangles and 5 boundary edges at the median;
    // these capacities hold 99.9 % of them without regrowth.
    let mut tris = Vec::with_capacity(8);
    tris.push(seed);
    let mut boundary = Vec::with_capacity(12);
    let mut qi = 0;
    while qi < tris.len() {
        let t = tris[qi];
        qi += 1;
        let d = mesh.tri(t);
        for i in 0..3 {
            let (a, b) = (d.v[i], d.v[(i + 1) % 3]);
            let nb = d.n[i];
            if nb == INVALID {
                boundary.push(BoundaryEdge {
                    a,
                    b,
                    outer: INVALID,
                    outer_edge: 0,
                });
                continue;
            }
            if tris.contains(&nb) {
                continue;
            }
            visit(nb)?;
            let nd = mesh.tri(nb);
            let npts = [
                mesh.vertex(nd.v[0]),
                mesh.vertex(nd.v[1]),
                mesh.vertex(nd.v[2]),
            ];
            if incircle(npts[0], npts[1], npts[2], p) > 0 {
                tris.push(nb);
            } else {
                let outer_edge = nd
                    .neighbor_index(t)
                    .expect("neighbor pointers must be symmetric");
                boundary.push(BoundaryEdge {
                    a,
                    b,
                    outer: nb,
                    outer_edge,
                });
            }
        }
    }
    Ok(Cavity { tris, boundary })
}

/// Replaces the cavity with the star of `new_vertex`: creates one triangle
/// per (non-degenerate) boundary edge, stitches all neighbor pointers —
/// including those of the locked outer triangles — and only then brings the
/// fan alive and kills the doomed triangles. A concurrent speculative task
/// that finds a start triangle by scanning for alive ones therefore never
/// sees a half-stitched fan or a mesh with no alive triangle.
///
/// Returns the created triangle ids in boundary-discovery order (the
/// deterministic order used for `(parent, rank)` task creation in dmr).
///
/// Degenerate boundary edges — where `new_vertex` lies exactly on the edge,
/// which happens when splitting a hull edge — are skipped; the two adjacent
/// fan triangles then expose hull edges through the split point.
pub fn retriangulate(mesh: &Mesh, cavity: &Cavity, new_vertex: u32) -> Vec<u32> {
    let p = mesh.vertex(new_vertex);
    // Create the fan.
    let mut created: Vec<(u32, u32, u32)> = Vec::with_capacity(cavity.boundary.len());
    for be in &cavity.boundary {
        let pa = mesh.vertex(be.a);
        let pb = mesh.vertex(be.b);
        let orient = orient2d_sign(pa, pb, p);
        debug_assert!(
            orient >= 0,
            "cavity boundary must see the point on its left"
        );
        if orient <= 0 {
            // p lies on this boundary edge: the edge splits in two; the
            // adjacent fan triangles carry the halves as hull edges. Detach
            // the outer triangle so it sees the hull.
            if be.outer != INVALID {
                mesh.set_neighbor(be.outer, be.outer_edge, INVALID);
            }
            continue;
        }
        let t = mesh.create_dead_tri([be.a, be.b, new_vertex]);
        mesh.set_neighbor(t, 0, be.outer);
        if be.outer != INVALID {
            mesh.set_neighbor(be.outer, be.outer_edge, t);
        }
        created.push((t, be.a, be.b));
    }
    // Stitch fan-internal edges: triangle (a,b,p) has edge 1 = (b,p) and
    // edge 2 = (p,a). Edge 1 of the triangle starting at `a` matches edge 2
    // of the triangle whose start vertex is `b`. A fan has a handful of
    // triangles, so a scan beats a map; the last match wins.
    for &(t, _a, b) in &created {
        if let Some(&(u, _, _)) = created.iter().rev().find(|&&(_, a, _)| a == b) {
            mesh.set_neighbor(t, 1, u);
            mesh.set_neighbor(u, 2, t);
        }
    }
    for &(t, _, _) in &created {
        mesh.revive(t);
    }
    for &t in &cavity.tris {
        mesh.kill(t);
    }
    created.into_iter().map(|(t, _, _)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn no_visit() -> impl FnMut(u32) -> Result<(), Infallible> {
        |_| Ok(())
    }

    /// Two triangles sharing an edge: (0,1,2) and (1,3,2).
    fn two_tri_mesh() -> Mesh {
        let m = Mesh::with_capacity(8, 16);
        m.add_vertex(Point::from_grid(0, 0)); // 0
        m.add_vertex(Point::from_grid(100, 0)); // 1
        m.add_vertex(Point::from_grid(0, 100)); // 2
        m.add_vertex(Point::from_grid(100, 100)); // 3
        let t0 = m.create_tri([0, 1, 2]);
        let t1 = m.create_tri([1, 3, 2]);
        m.set_neighbor(t0, 1, t1); // edge (1,2)
        m.set_neighbor(t1, 2, t0); // edge (2,1)
        m
    }

    #[test]
    fn locate_finds_containing_triangle() {
        let m = two_tri_mesh();
        let r = locate(&m, Point::from_grid(10, 10), 0, &mut no_visit()).unwrap();
        assert_eq!(r, LocateOutcome::Found(0));
        let r = locate(&m, Point::from_grid(90, 90), 0, &mut no_visit()).unwrap();
        assert_eq!(r, LocateOutcome::Found(1));
    }

    #[test]
    fn locate_reports_vertices_and_outside() {
        let m = two_tri_mesh();
        let r = locate(&m, Point::from_grid(100, 0), 1, &mut no_visit()).unwrap();
        assert!(matches!(r, LocateOutcome::OnVertex { vertex: 1, .. }));
        let r = locate(&m, Point::from_grid(-50, 10), 1, &mut no_visit()).unwrap();
        assert!(matches!(r, LocateOutcome::OutsideBoundary { .. }));
    }

    #[test]
    fn locate_propagates_visit_error() {
        let m = two_tri_mesh();
        let mut visits = 0;
        let r = locate(&m, Point::from_grid(90, 90), 0, &mut |_t: u32| {
            visits += 1;
            if visits > 1 {
                Err("conflict")
            } else {
                Ok(())
            }
        });
        assert_eq!(r, Err("conflict"));
    }

    /// Mesh where t1 = (100,0),(300,300),(0,100): circumcenter (170,170),
    /// r^2 = 33800, so (5,5) is outside it but (50,50) is inside.
    fn wide_mesh() -> Mesh {
        let m = Mesh::with_capacity(8, 16);
        m.add_vertex(Point::from_grid(0, 0));
        m.add_vertex(Point::from_grid(100, 0));
        m.add_vertex(Point::from_grid(0, 100));
        m.add_vertex(Point::from_grid(300, 300));
        let t0 = m.create_tri([0, 1, 2]);
        let t1 = m.create_tri([1, 3, 2]);
        m.set_neighbor(t0, 1, t1);
        m.set_neighbor(t1, 2, t0);
        m
    }

    #[test]
    fn lock_set_is_the_cavity_then_its_ring_once_without_invalid() {
        let mesh = crate::build::triangulate(&galois_geometry::point::random_points(200, 7));
        let (mut hull, mut shared) = (false, false);
        for p in galois_geometry::point::random_points(100, 8) {
            let start = crate::build::first_alive(&mesh);
            let LocateOutcome::Found(seed) = locate(&mesh, p, start, &mut no_visit()).unwrap()
            else {
                continue;
            };
            let cavity = grow(&mesh, p, seed, &mut no_visit()).unwrap();
            let locks = cavity.lock_set();
            assert_eq!(locks[..cavity.tris.len()], cavity.tris[..]);
            assert!(!locks.contains(&INVALID));
            let mut unique = locks.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(
                unique.len(),
                locks.len(),
                "a triangle locked twice: {locks:?}"
            );
            let outers: Vec<u32> = cavity.boundary.iter().map(|be| be.outer).collect();
            assert!(outers.iter().all(|o| *o == INVALID || locks.contains(o)));
            hull |= outers.contains(&INVALID);
            let mut ring: Vec<u32> = outers.into_iter().filter(|&o| o != INVALID).collect();
            ring.sort_unstable();
            shared |= ring.windows(2).any(|w| w[0] == w[1]);
        }
        assert!(hull, "no cavity reached the hull");
        assert!(shared, "no ring triangle bordered a cavity twice");
    }

    #[test]
    fn grow_and_retriangulate_single_triangle_cavity() {
        let m = wide_mesh();
        let p = Point::from_grid(5, 5); // outside t1's circumcircle
        let cavity = grow(&m, p, 0, &mut no_visit()).unwrap();
        assert_eq!(cavity.tris, vec![0]);
        assert_eq!(cavity.boundary.len(), 3);
        let v = m.add_vertex(p);
        let created = retriangulate(&m, &cavity, v);
        assert_eq!(created.len(), 3);
        assert!(!m.alive(0));
        assert!(m.alive(1));
        // Every created triangle is CCW and wired symmetrically.
        for &t in &created {
            let pts = m.tri_points(t);
            assert_eq!(orient2d_sign(pts[0], pts[1], pts[2]), 1);
            let d = m.tri(t);
            for e in 0..3 {
                if d.n[e] != INVALID && m.alive(d.n[e]) {
                    assert!(m.tri(d.n[e]).neighbor_index(t).is_some(), "asymmetric link");
                }
            }
        }
    }

    #[test]
    fn grow_absorbs_neighbor_inside_circumcircle() {
        let m = wide_mesh();
        let p = Point::from_grid(50, 50); // inside both circumcircles
        let cavity = grow(&m, p, 0, &mut no_visit()).unwrap();
        assert_eq!(cavity.tris, vec![0, 1], "neighbor absorbed");
        assert_eq!(cavity.boundary.len(), 4);
        let v = m.add_vertex(p);
        let created = retriangulate(&m, &cavity, v);
        assert_eq!(created.len(), 4);
        crate::check::validate(&m).unwrap();
        crate::check::check_delaunay(&m).unwrap();
    }

    /// Inserts `p` into `mesh` by locate, grow and retriangulate, checks the
    /// mesh, and checks that every fan-internal link (edge 1 of one fan
    /// triangle, edge 2 of the next) points at a fan triangle that points
    /// back. Returns the cavity, the created fan and `p`'s vertex id.
    fn insert_checked(mesh: &Mesh, p: Point) -> (Cavity, Vec<u32>, u32) {
        let start = crate::build::first_alive(mesh);
        let LocateOutcome::Found(seed) = locate(mesh, p, start, &mut no_visit()).unwrap() else {
            panic!("{p} is not inside the mesh");
        };
        let cavity = grow(mesh, p, seed, &mut no_visit()).unwrap();
        let v = mesh.add_vertex(p);
        let created = retriangulate(mesh, &cavity, v);
        crate::check::validate(mesh).unwrap();
        crate::check::check_delaunay(mesh).unwrap();
        for &t in &created {
            let d = mesh.tri(t);
            assert_eq!(d.v[2], v, "fan triangles end at the new vertex");
            for (e, back) in [(1, 2), (2, 1)] {
                let u = d.n[e];
                if u != INVALID {
                    assert!(created.contains(&u), "edge {e} of {t} leaves the fan");
                    assert_eq!(mesh.tri(u).n[back], t, "fan link {t}→{u} is one-way");
                }
            }
        }
        (cavity, created, v)
    }

    #[test]
    fn fan_stitch_at_a_hull_split() {
        let g = 1i64 << 26;
        let mut b = crate::build::SeqBuilder::with_headroom(3, 1, 16);
        for (x, y) in [(g / 3, g / 4), (2 * g / 3, g / 3), (g / 2, 3 * g / 4)] {
            b.insert(Point::from_grid(x, y));
        }
        let mesh = b.into_mesh();
        // On the bottom hull edge, corner 0 = (0, 0) → corner 1 = (g, 0).
        let (cavity, created, _) = insert_checked(&mesh, Point::from_grid(g / 2, 0));
        assert!(cavity.boundary.iter().any(|be| (be.a, be.b) == (0, 1)));
        assert_eq!(
            created.len(),
            cavity.boundary.len() - 1,
            "the split edge gets no triangle"
        );
        // The two fan triangles at the split expose its halves as hull
        // edges: (p, corner 1) as edge 2 and (corner 0, p) as edge 1.
        let open: Vec<(u32, usize)> = created
            .iter()
            .flat_map(|&t| [1, 2].map(|e| (t, e)))
            .filter(|&(t, e)| mesh.tri(t).n[e] == INVALID)
            .collect();
        assert_eq!(open.len(), 2, "{open:?}");
        for (t, e) in open {
            let d = mesh.tri(t);
            if e == 2 {
                assert_eq!(
                    d.v[0], 1,
                    "(p, corner 1) is edge 2 of the triangle from corner 1"
                );
            } else {
                assert_eq!(
                    d.v[1], 0,
                    "(corner 0, p) is edge 1 of the triangle into corner 0"
                );
            }
        }
    }

    #[test]
    fn fan_stitch_of_a_wide_cavity() {
        // Twelve points of the lattice circle x² + y² = 65², scaled, around
        // the square's center: inserting the center swallows their polygon.
        let (g, s) = (1i64 << 26, 1i64 << 16);
        let ring = [
            (65, 0),
            (56, 33),
            (39, 52),
            (16, 63),
            (-25, 60),
            (-52, 39),
            (-63, 16),
            (-60, -25),
            (-39, -52),
            (0, -65),
            (33, -56),
            (60, -25),
        ];
        let mut b = crate::build::SeqBuilder::with_headroom(ring.len(), 1, 32);
        for (x, y) in ring {
            b.insert(Point::from_grid(g / 2 + s * x, g / 2 + s * y));
        }
        let mesh = b.into_mesh();
        let (cavity, created, _) = insert_checked(&mesh, Point::from_grid(g / 2, g / 2));
        assert!(
            cavity.boundary.len() >= 8,
            "{} edges",
            cavity.boundary.len()
        );
        assert_eq!(created.len(), cavity.boundary.len());
        // An interior point's fan is closed: every internal edge is linked.
        for &t in &created {
            let d = mesh.tri(t);
            assert!(d.n[1] != INVALID && d.n[2] != INVALID, "{t}: {d:?}");
        }
    }
}
