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

/// Whether the triangle's smallest angle is below `min_angle_deg`.
///
/// Compares the largest law-of-cosines cosine (the smallest angle's)
/// against `cos(min_angle_deg)` instead of taking three `acos`. The cosines
/// are the same `f64` values [`min_angle_deg_of`] computes, from the same
/// exact squared edge lengths by the same operations, so the two can only
/// disagree on a cosine near the threshold's. Within ±1e-9 of it the
/// verdict is the reference's, [`min_angle_deg_of`]`(a, b, c) <
/// min_angle_deg`. That band is ±1.2e-7° at 30°, far more than the error of
/// `acos` plus `to_degrees`, so every verdict equals the reference's. A
/// threshold outside `[0°, 180°]` goes to the reference directly.
pub fn has_small_angle(a: Point, b: Point, c: Point, min_angle_deg: f64) -> bool {
    if !(0.0..=180.0).contains(&min_angle_deg) {
        // Outside [0°, 180°] the cosine no longer orders the angles.
        return min_angle_deg_of(a, b, c) < min_angle_deg;
    }
    let (l2, _) = edge_lengths2(a, b, c);
    small_angle(a, b, c, l2, min_angle_deg, min_angle_deg.to_radians().cos())
}

/// Half-width of the band around the threshold's cosine inside which
/// [`has_small_angle`] defers to the reference [`min_angle_deg_of`].
const COS_BAND: f64 = 1e-9;

/// `cos(30°)`, the threshold cosine of [`is_bad`].
const COS_30: f64 = 0.866_025_403_784_438_7;

/// [`has_small_angle`] on precomputed squared edge lengths `l2` (opposite
/// `a`, `b`, `c`) and threshold cosine `cos_t`.
fn small_angle(a: Point, b: Point, c: Point, l2: [f64; 3], deg: f64, cos_t: f64) -> bool {
    if l2.contains(&0.0) {
        return 0.0 < deg; // min_angle_deg_of reports 0 for degenerate triangles
    }
    let cos_at = |i: usize| {
        let opp = l2[i];
        let e1 = l2[(i + 1) % 3];
        let e2 = l2[(i + 2) % 3];
        (e1 + e2 - opp) / (2.0 * (e1 * e2).sqrt())
    };
    // The smallest angle has the largest cosine.
    let cos = cos_at(0).max(cos_at(1)).max(cos_at(2)).clamp(-1.0, 1.0);
    if cos > cos_t + COS_BAND {
        true
    } else if cos < cos_t - COS_BAND {
        false
    } else {
        min_angle_deg_of(a, b, c) < deg
    }
}

/// Squared grid distance in `i64`, or `None` where it would overflow.
fn dist2_i64(p: Point, q: Point) -> Option<i64> {
    let ((px, py), (qx, qy)) = (p.to_grid(), q.to_grid());
    let (dx, dy) = (px.checked_sub(qx)?, py.checked_sub(qy)?);
    dx.checked_mul(dx)?.checked_add(dy.checked_mul(dy)?)
}

/// The squared edge lengths opposite `a`, `b` and `c` as `f64`, and the
/// shortest one exactly.
///
/// They are computed in `i64`, which is exact for the mesh domain (grid
/// coordinates within ±2^30); only when that overflows does this fall back
/// to [`Point::dist2_grid`]'s `i128`. Either way each `f64` is the same
/// rounding of the same integer as `dist2_grid(..) as f64`.
fn edge_lengths2(a: Point, b: Point, c: Point) -> ([f64; 3], i128) {
    let narrow = (|| Some([dist2_i64(b, c)?, dist2_i64(c, a)?, dist2_i64(a, b)?]))();
    match narrow {
        Some([x, y, z]) => ([x as f64, y as f64, z as f64], x.min(y).min(z) as i128),
        None => {
            let [x, y, z] = [b.dist2_grid(c), c.dist2_grid(a), a.dist2_grid(b)];
            ([x as f64, y as f64, z as f64], x.min(y).min(z))
        }
    }
}

/// The smallest interior angle in degrees (0 for degenerate triangles).
///
/// The reference for [`has_small_angle`] and [`is_bad`]. It takes three
/// `acos`, so hot paths call those instead; the mesh quality report uses it.
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
/// and the triangle is still large enough to split safely. Equal to
/// `shortest_edge2(..) > MIN_REFINE_EDGE2 && has_small_angle(.., 30.0)`.
pub fn is_bad(a: Point, b: Point, c: Point) -> bool {
    let (l2, shortest) = edge_lengths2(a, b, c);
    shortest > MIN_REFINE_EDGE2 && small_angle(a, b, c, l2, 30.0, COS_30)
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
    fn equilateral_has_sixty_degree_angles() {
        // Approximate equilateral on the grid.
        let a = p(0, 0);
        let b = p(1000, 0);
        let c = p(500, 866);
        let m = min_angle_deg_of(a, b, c);
        assert!((m - 60.0).abs() < 0.1, "min angle {m}");
        assert!(!has_small_angle(a, b, c, 30.0));
    }

    #[test]
    fn skinny_triangle_is_bad() {
        let a = p(0, 0);
        let b = p(100_000, 0);
        let c = p(50_000, 2_000); // very flat
        assert!(has_small_angle(a, b, c, 30.0));
        assert!(is_bad(a, b, c));
    }

    #[test]
    fn tiny_triangles_are_never_bad() {
        // Below the refinement floor even if skinny.
        let a = p(0, 0);
        let b = p(9000, 0);
        let c = p(4500, 300);
        assert!(has_small_angle(a, b, c, 30.0));
        assert!(!is_bad(a, b, c), "guard suppresses refinement");
    }

    #[test]
    fn fixed_threshold_is_cos_thirty() {
        assert!((COS_30 - 30f64.to_radians().cos()).abs() < 1e-15);
    }

    #[test]
    fn shortest_edge_identified() {
        assert_eq!(shortest_edge2(p(0, 0), p(3, 0), p(0, 10)), 9);
    }
}
