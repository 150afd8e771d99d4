//! Mesh validation, Delaunay/quality checks, and canonical output forms.

use crate::mesh::{Mesh, INVALID};
use galois_geometry::predicates::{incircle, orient2d_sign};
use galois_geometry::tri::{is_bad, min_angle_deg_of};

/// Structural validation: CCW orientation, valid vertex ids, symmetric
/// neighbor links, shared-edge consistency.
pub fn validate(mesh: &Mesh) -> Result<(), String> {
    for t in mesh.alive_tris() {
        let d = mesh.tri(t);
        for &v in &d.v {
            if v as usize >= mesh.num_verts() {
                return Err(format!("triangle {t} references unallocated vertex {v}"));
            }
        }
        let pts = mesh.tri_points(t);
        if orient2d_sign(pts[0], pts[1], pts[2]) != 1 {
            return Err(format!("triangle {t} is not CCW: {:?}", d.v));
        }
        for i in 0..3 {
            let nb = d.n[i];
            if nb == INVALID {
                continue;
            }
            if !mesh.alive(nb) {
                return Err(format!("triangle {t} points to dead neighbor {nb}"));
            }
            let nd = mesh.tri(nb);
            if nd.neighbor_index(t).is_none() {
                return Err(format!("neighbor link {t}→{nb} is not symmetric"));
            }
            // The shared edge must have the same endpoints on both sides.
            let (a, b) = (d.v[i], d.v[(i + 1) % 3]);
            if nd.edge_index(a, b).is_none() {
                return Err(format!(
                    "triangles {t} and {nb} disagree on their shared edge ({a},{b})"
                ));
            }
        }
    }
    Ok(())
}

/// The Delaunay property: no neighbor's opposite vertex lies strictly
/// inside a triangle's circumcircle.
pub fn check_delaunay(mesh: &Mesh) -> Result<(), String> {
    for t in mesh.alive_tris() {
        let d = mesh.tri(t);
        let pts = mesh.tri_points(t);
        for i in 0..3 {
            let nb = d.n[i];
            if nb == INVALID {
                continue;
            }
            let nd = mesh.tri(nb);
            // The vertex of nb not on the shared edge.
            let (a, b) = (d.v[i], d.v[(i + 1) % 3]);
            let opp = nd.v.iter().copied().find(|&v| v != a && v != b);
            let Some(opp) = opp else {
                return Err(format!("triangles {t},{nb} share all vertices"));
            };
            if incircle(pts[0], pts[1], pts[2], mesh.vertex(opp)) > 0 {
                return Err(format!(
                    "vertex {opp} of neighbor {nb} is inside circumcircle of {t}"
                ));
            }
        }
    }
    Ok(())
}

/// Checks every vertex in `0..expect_verts` appears in some alive triangle.
pub fn check_contains_vertices(mesh: &Mesh, expect_verts: usize) -> Result<(), String> {
    let mut used = vec![false; mesh.num_verts()];
    for t in mesh.alive_tris() {
        for &v in &mesh.tri(t).v {
            used[v as usize] = true;
        }
    }
    for (v, &u) in used.iter().enumerate().take(expect_verts) {
        if !u {
            return Err(format!("vertex {v} is missing from the mesh"));
        }
    }
    Ok(())
}

/// Canonical geometric form: each alive triangle as grid-coordinate triples
/// rotated so the lexicographically smallest vertex comes first, the whole
/// set sorted. Two meshes with equal canonical forms are the same
/// triangulation regardless of slot or vertex numbering.
pub fn canonical_triangles(mesh: &Mesh) -> Vec<[(i64, i64); 3]> {
    // Counting first costs a scan of alive flags and saves every regrowth.
    let mut out = Vec::with_capacity(mesh.num_tris_alive());
    out.extend(mesh.alive_tris().map(|t| {
        let c = mesh.tri_points(t).map(|p| p.to_grid());
        // Rotate (preserving CCW orientation) so the smallest is first.
        let k = (0..3).min_by_key(|&i| c[i]).unwrap();
        [c[k], c[(k + 1) % 3], c[(k + 2) % 3]]
    }));
    out.sort_unstable();
    out
}

/// Quality summary of a mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityStats {
    /// Alive triangles.
    pub triangles: usize,
    /// Triangles still classified bad (refinable and below 30°).
    pub bad: usize,
    /// Smallest interior angle over the mesh, degrees.
    pub min_angle_deg: f64,
}

/// Scans angle quality (for dmr verification).
pub fn quality(mesh: &Mesh) -> QualityStats {
    let mut stats = QualityStats {
        triangles: 0,
        bad: 0,
        min_angle_deg: 180.0,
    };
    for t in mesh.alive_tris() {
        let [a, b, c] = mesh.tri_points(t);
        stats.triangles += 1;
        if is_bad(a, b, c) {
            stats.bad += 1;
        }
        stats.min_angle_deg = stats.min_angle_deg.min(min_angle_deg_of(a, b, c));
    }
    stats
}

/// Ids of alive triangles classified bad, in slot order (used to seed dmr
/// from a deterministically built input mesh).
pub fn bad_triangles(mesh: &Mesh) -> Vec<u32> {
    mesh.alive_tris()
        .filter(|&t| {
            let [a, b, c] = mesh.tri_points(t);
            is_bad(a, b, c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::triangulate;
    use galois_geometry::point::random_points;
    use galois_geometry::Point;

    #[test]
    fn canonical_is_renaming_invariant() {
        // Same geometry, different vertex insertion order.
        let pts = random_points(50, 2);
        let mut rev = pts.clone();
        rev.reverse();
        assert_eq!(
            canonical_triangles(&triangulate(&pts)),
            canonical_triangles(&triangulate(&rev))
        );
    }

    #[test]
    fn validate_catches_broken_links() {
        let m = Mesh::with_capacity(8, 8);
        m.add_vertex(Point::from_grid(0, 0));
        m.add_vertex(Point::from_grid(10, 0));
        m.add_vertex(Point::from_grid(0, 10));
        let t = m.create_tri([0, 1, 2]);
        m.set_neighbor(t, 0, 99); // dangling
        assert!(validate(&m).is_err());
    }

    #[test]
    fn validate_catches_cw_triangles() {
        let m = Mesh::with_capacity(8, 8);
        m.add_vertex(Point::from_grid(0, 0));
        m.add_vertex(Point::from_grid(10, 0));
        m.add_vertex(Point::from_grid(0, 10));
        m.create_tri([0, 2, 1]); // clockwise
        assert!(validate(&m).unwrap_err().contains("CCW"));
    }

    #[test]
    fn quality_counts_bad_triangles() {
        // A long skinny triangle (big enough to exceed the refine floor).
        let m = Mesh::with_capacity(8, 8);
        m.add_vertex(Point::from_grid(0, 0));
        m.add_vertex(Point::from_grid(200_000, 0));
        m.add_vertex(Point::from_grid(100_000, 4_000));
        m.create_tri([0, 1, 2]);
        let q = quality(&m);
        assert_eq!(q.triangles, 1);
        assert_eq!(q.bad, 1);
        assert!(q.min_angle_deg < 5.0);
        assert_eq!(bad_triangles(&m), vec![0]);
    }
}
