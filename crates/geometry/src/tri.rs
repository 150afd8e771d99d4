//! Triangle measures: circumcenters and quality tests for mesh refinement.

use crate::point::Point;

/// Circumcenter of triangle `(a, b, c)`, computed in `f64` and snapped to
/// the grid (the inserted Steiner point of mesh refinement).
///
/// Returns `None` for (near-)degenerate triangles whose circumcenter is not
/// finite.
pub fn circumcenter(a: Point, b: Point, c: Point) -> Option<Point> {
    // Work in grid units to keep magnitudes sane.
    let (ax, ay) = a.to_grid();
    let (bx, by) = b.to_grid();
    let (cx, cy) = c.to_grid();
    let (ax, ay) = (ax as f64, ay as f64);
    let (bx, by) = (bx as f64, by as f64);
    let (cx, cy) = (cx as f64, cy as f64);
    let d = 2.0 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax));
    if d == 0.0 || !d.is_finite() {
        return None;
    }
    let b2 = (bx - ax) * (bx + ax) + (by - ay) * (by + ay);
    let c2 = (cx - ax) * (cx + ax) + (cy - ay) * (cy + ay);
    let ux = (b2 * (cy - ay) - c2 * (by - ay)) / d;
    let uy = (c2 * (bx - ax) - b2 * (cx - ax)) / d;
    if !ux.is_finite() || !uy.is_finite() {
        return None;
    }
    Some(Point::from_grid(ux.round() as i64, uy.round() as i64))
}

/// Squared length of the triangle's shortest edge, in grid units.
pub fn shortest_edge2(a: Point, b: Point, c: Point) -> i128 {
    a.dist2_grid(b).min(b.dist2_grid(c)).min(c.dist2_grid(a))
}

/// The smallest interior angle in degrees (0 for degenerate triangles), for
/// the mesh quality report. Refinement decides with [`is_bad`], which is
/// exact; this takes three `acos`.
pub fn min_angle_deg_of(a: Point, b: Point, c: Point) -> f64 {
    let l2 = [
        b.dist2_grid(c) as f64, // opposite a
        c.dist2_grid(a) as f64, // opposite b
        a.dist2_grid(b) as f64, // opposite c
    ];
    if l2.contains(&0.0) {
        return 0.0;
    }
    let mut min_angle = f64::MAX;
    for i in 0..3 {
        let opp = l2[i];
        let e1 = l2[(i + 1) % 3];
        let e2 = l2[(i + 2) % 3];
        let cos = (e1 + e2 - opp) / (2.0 * (e1 * e2).sqrt());
        let angle = cos.clamp(-1.0, 1.0).acos().to_degrees();
        min_angle = min_angle.min(angle);
    }
    min_angle
}

/// Refinement guard: triangles with shortest edge below this squared grid
/// length are never refined, guaranteeing termination at finite precision
/// (see DESIGN.md; the threshold is 2^-12 of the unit square, i.e. 2^14 grid
/// units).
pub const MIN_REFINE_EDGE2: i128 = (1 << 14) * (1 << 14);

/// Whether a triangle is "bad" (needs refinement): smallest angle below 30°
/// and the triangle is still large enough to split safely.
///
/// Exact integer arithmetic, like [`crate::predicates`]: the angle at a
/// vertex with edge vectors `u` and `v` is below 30° iff its cosine exceeds
/// √3/2, i.e. `u·v > 0` and `4·(u·v)² > 3·|u|²·|v|²`. With grid coordinates
/// within ±2^30 every term is below 2^128.
pub fn is_bad(a: Point, b: Point, c: Point) -> bool {
    let sharp = |o: Point, p: Point, q: Point| {
        let ((ox, oy), (px, py), (qx, qy)) = (o.to_grid(), p.to_grid(), q.to_grid());
        let (ux, uy) = ((px - ox) as i128, (py - oy) as i128);
        let (vx, vy) = ((qx - ox) as i128, (qy - oy) as i128);
        let dot = ux * vx + uy * vy;
        let norms = (ux * ux + uy * uy) * (vx * vx + vy * vy);
        dot > 0 && 4 * (dot * dot) as u128 > 3 * norms as u128
    };
    shortest_edge2(a, b, c) > MIN_REFINE_EDGE2
        && (sharp(a, b, c) || sharp(b, c, a) || sharp(c, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64) -> Point {
        Point::from_grid(x, y)
    }

    #[test]
    fn circumcenter_of_right_triangle() {
        // Right triangle: circumcenter at hypotenuse midpoint.
        let c = circumcenter(p(0, 0), p(4, 0), p(0, 4)).unwrap();
        assert_eq!(c.to_grid(), (2, 2));
    }

    #[test]
    fn circumcenter_degenerate_is_none() {
        assert!(circumcenter(p(0, 0), p(2, 2), p(4, 4)).is_none());
    }

    #[test]
    fn equilateral_is_good() {
        // Approximate equilateral on the grid, above the refinement floor.
        let a = p(0, 0);
        let b = p(100_000, 0);
        let c = p(50_000, 86_603);
        let m = min_angle_deg_of(a, b, c);
        assert!((m - 60.0).abs() < 0.01, "min angle {m}");
        assert!(!is_bad(a, b, c));
    }

    #[test]
    fn skinny_triangle_is_bad() {
        let a = p(0, 0);
        let b = p(100_000, 0);
        let c = p(50_000, 2_000); // very flat
        assert!(is_bad(a, b, c));
        assert!(is_bad(c, a, b) && is_bad(b, c, a));
    }

    #[test]
    fn tiny_triangles_are_never_bad() {
        // Below the refinement floor even if skinny.
        let a = p(0, 0);
        let b = p(9000, 0);
        let c = p(4500, 300);
        assert!(min_angle_deg_of(a, b, c) < 30.0);
        assert!(!is_bad(a, b, c), "guard suppresses refinement");
    }

    #[test]
    fn shortest_edge_identified() {
        assert_eq!(shortest_edge2(p(0, 0), p(3, 0), p(0, 10)), 9);
    }
}
