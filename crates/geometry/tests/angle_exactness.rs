//! `is_bad` decides "smallest angle below 30°" in integer arithmetic; its
//! verdicts must be exact.
//!
//! The oracle is exact rational geometry, not a libm: the angle at a vertex
//! with edge vectors `u` and `v` is below 30° iff `tan² < 1/3`, i.e.
//! `u·v > 0` and `(u·v)² > 3·(u×v)²` — the sine form, independent of the
//! cosine form `is_bad` evaluates. The hard cases are grid triangles whose
//! smallest angle is within 1e-6° of 30°, built from continued-fraction
//! approximations of `tan(30°)`. Coordinates run from the unit square's
//! grid out to ±2^30, the edge of `is_bad`'s exact domain. The `acos` reference
//! `is_bad` replaced, `min_angle_deg_of(..) < 30.0`, is measured against the
//! same oracle on that corpus.

use galois_geometry::tri::MIN_REFINE_EDGE2;
use galois_geometry::tri::{is_bad, min_angle_deg_of, shortest_edge2};
use galois_geometry::Point;
use proptest::prelude::*;

fn p(x: i64, y: i64) -> Point {
    Point::from_grid(x, y)
}

/// Whether the angle at `o` of triangle `(o, a, b)` is below 30°.
fn sharp(o: Point, a: Point, b: Point) -> bool {
    let ((ox, oy), (ax, ay), (bx, by)) = (o.to_grid(), a.to_grid(), b.to_grid());
    let (ux, uy) = ((ax - ox) as i128, (ay - oy) as i128);
    let (vx, vy) = ((bx - ox) as i128, (by - oy) as i128);
    let dot = ux * vx + uy * vy;
    let cross = ux * vy - uy * vx;
    dot > 0 && (dot * dot) as u128 > 3 * (cross * cross) as u128
}

fn oracle_bad(a: Point, b: Point, c: Point) -> bool {
    shortest_edge2(a, b, c) > MIN_REFINE_EDGE2
        && (sharp(a, b, c) || sharp(b, c, a) || sharp(c, a, b))
}

fn acos_bad(a: Point, b: Point, c: Point) -> bool {
    shortest_edge2(a, b, c) > MIN_REFINE_EDGE2 && min_angle_deg_of(a, b, c) < 30.0
}

fn assert_exact(a: Point, b: Point, c: Point) {
    assert_eq!(
        is_bad(a, b, c),
        oracle_bad(a, b, c),
        "is_bad({a:?}, {b:?}, {c:?}) (min angle {})",
        min_angle_deg_of(a, b, c)
    );
}

/// Convergents `(q, p)` of the continued fraction of `x > 0`, `q` ≤ `max_q`.
fn convergents(x: f64, max_q: i64) -> Vec<(i64, i64)> {
    let (mut p0, mut q0, mut p1, mut q1) = (1i64, 0i64, x.floor() as i64, 1i64);
    let mut out = vec![(q1, p1)];
    let mut r = x - x.floor();
    while r > 1e-12 {
        r = 1.0 / r;
        let k = r.floor() as i64;
        r -= r.floor();
        let next = |a: i64, b: i64| k.checked_mul(a)?.checked_add(b);
        let (Some(p2), Some(q2)) = (next(p1, p0), next(q1, q0)) else {
            break;
        };
        if q2 > max_q {
            break;
        }
        out.push((q2, p2));
        (p0, q0, p1, q1) = (p1, q1, p2, q2);
    }
    out
}

/// Grid triangles whose angle at the first vertex is within 1e-6° of 30°
/// and whose two other angles are well above it, so that angle is the
/// smallest. Each direction `(q, p)` with `p / q ≈ tan(30°)` is scaled by
/// `k` and paired with several base lengths `n` (which move the rounding of
/// the computed cosine), rotated by quarter turns and translated by
/// `offset`.
fn near_thirty(max_span: i64, offset: (i64, i64)) -> Vec<[Point; 3]> {
    let mut out = Vec::new();
    for (q, pp) in convergents(30f64.to_radians().tan(), max_span) {
        let angle = (pp as f64).atan2(q as f64).to_degrees();
        if (angle - 30.0).abs() >= 1e-6 {
            continue;
        }
        let mut k = 1;
        while k * q <= max_span {
            let (cx, cy) = (k * q, k * pp);
            let len = ((cx as f64).hypot(cy as f64)) as i64;
            for n in (0..40).map(|j| len - 20 + j * (len / 97 + 1)) {
                let (mut b, mut c) = ((n, 0), (cx, cy));
                for _ in 0..4 {
                    out.push([
                        p(offset.0, offset.1),
                        p(offset.0 + b.0, offset.1 + b.1),
                        p(offset.0 + c.0, offset.1 + c.1),
                    ]);
                    (b, c) = ((-b.1, b.0), (-c.1, c.0));
                }
            }
            k = if k < 8 { k + 1 } else { k * 3 };
        }
    }
    out
}

const SUPER: i64 = 4 << 26;

/// The near-30° corpus: the unit square's grid, super-triangle scale, and
/// spans whose coordinates approach ±2^30.
fn corpus() -> Vec<[Point; 3]> {
    [
        (1 << 26, (0, 0)),
        (1 << 26, (SUPER, -SUPER)),
        (SUPER, (-SUPER, -SUPER)),
        (3 << 28, (0, 0)),
    ]
    .into_iter()
    .flat_map(|(span, offset)| near_thirty(span, offset))
    .collect()
}

#[test]
fn near_threshold_triangles_match_the_oracle() {
    let tris = corpus();
    assert!(tris.len() > 400, "too few near-30° triangles");
    for [a, b, c] in tris {
        let min = min_angle_deg_of(a, b, c);
        assert!((min - 30.0).abs() < 1e-6, "{a:?} {b:?} {c:?}: {min}");
        assert_exact(a, b, c);
    }
}

#[test]
fn the_acos_reference_against_the_oracle() {
    let tris = corpus();
    let wrong = tris
        .iter()
        .filter(|&&[a, b, c]| acos_bad(a, b, c) != oracle_bad(a, b, c))
        .count();
    println!(
        "acos reference misjudges {wrong} of {} near-30° triangles",
        tris.len()
    );
}

#[test]
fn collinear_and_zero_length_triangles() {
    for s in [1i64, 1 << 14, 1 << 26, SUPER, 1 << 29] {
        for [a, b, c] in [
            [p(0, 0), p(0, 0), p(0, 0)],
            [p(0, 0), p(s, 0), p(0, 0)],
            [p(0, 0), p(s, s), p(s, s)],
            [p(0, 0), p(s, 0), p(2 * s, 0)],
            [p(-s, -s), p(0, 0), p(s, s)],
            [p(0, 0), p(s, 3), p(2 * s, 6)],
            [p(0, 0), p(1, 0), p(s, 0)],
            [p(s, 1), p(0, 0), p(-s, -1)],
        ] {
            assert_exact(a, b, c);
            assert_exact(c, a, b);
            assert_exact(b, c, a);
        }
    }
}

/// Six coordinates, the corners of one triangle.
fn corners(range: std::ops::RangeInclusive<i64>) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(range, 6..7)
}

fn assert_exact_scaled(v: &[i64], shift: u32) {
    let v: Vec<i64> = v.iter().map(|&x| x << shift).collect();
    assert_exact(p(v[0], v[1]), p(v[2], v[3]), p(v[4], v[5]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random triangles on the unit square's grid.
    #[test]
    fn random_unit_square(v in corners(0..=1 << 26)) {
        assert_exact_scaled(&v, 0);
    }

    /// Random triangles from super-triangle scale out to ±2^30.
    #[test]
    fn random_wide(v in corners(-SUPER..=SUPER), shift in 0u32..3) {
        assert_exact_scaled(&v, shift);
    }

    /// Small triangles near the refinement floor, many of them degenerate.
    #[test]
    fn random_small(v in corners(0..=63), shift in 0u32..12) {
        assert_exact_scaled(&v, shift);
    }
}
