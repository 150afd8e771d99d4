//! `has_small_angle` and `is_bad` compare cosines instead of taking `acos`;
//! their verdicts must equal the `acos` reference bit for bit.
//!
//! The reference is `min_angle_deg_of(..) < deg` (and, for `is_bad`, the
//! refinement floor on the exact shortest edge). The hard cases are grid
//! triangles whose smallest angle is within 1e-6° of the threshold, built
//! from continued-fraction approximations of `tan(deg)`: there a pure
//! cosine compare disagrees with the reference, and only the band around
//! the threshold cosine keeps the two equal. Coordinates run from the unit
//! square's grid out to ±4·2^26 (super-triangle scale) and past 2^31, where
//! squared lengths no longer fit in `i64`.

use galois_geometry::tri::MIN_REFINE_EDGE2;
use galois_geometry::tri::{has_small_angle, is_bad, min_angle_deg_of, shortest_edge2};
use galois_geometry::Point;
use proptest::prelude::*;

const THRESHOLDS: [f64; 3] = [20.0, 30.0, 33.0];

fn p(x: i64, y: i64) -> Point {
    Point::from_grid(x, y)
}

fn reference_bad(a: Point, b: Point, c: Point) -> bool {
    shortest_edge2(a, b, c) > MIN_REFINE_EDGE2 && min_angle_deg_of(a, b, c) < 30.0
}

/// The cosine test without the band: the same cosines as the reference,
/// compared straight against `cos(deg)`.
fn band_free(a: Point, b: Point, c: Point, deg: f64) -> bool {
    let l2 = [
        b.dist2_grid(c) as f64,
        c.dist2_grid(a) as f64,
        a.dist2_grid(b) as f64,
    ];
    if l2.contains(&0.0) {
        return 0.0 < deg;
    }
    let cos_t = deg.to_radians().cos();
    (0..3).any(|i| {
        let (opp, e1, e2) = (l2[i], l2[(i + 1) % 3], l2[(i + 2) % 3]);
        ((e1 + e2 - opp) / (2.0 * (e1 * e2).sqrt())).clamp(-1.0, 1.0) > cos_t
    })
}

fn assert_exact(a: Point, b: Point, c: Point) {
    for deg in THRESHOLDS {
        assert_eq!(
            has_small_angle(a, b, c, deg),
            min_angle_deg_of(a, b, c) < deg,
            "has_small_angle({a:?}, {b:?}, {c:?}, {deg}) (min angle {})",
            min_angle_deg_of(a, b, c)
        );
    }
    assert_eq!(
        is_bad(a, b, c),
        reference_bad(a, b, c),
        "is_bad({a:?}, {b:?}, {c:?})"
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

/// Grid triangles whose angle at the first vertex is within 1e-6° of `deg`
/// and whose two other angles are well above it, so that angle is the
/// smallest. Each direction `(q, p)` with `p / q ≈ tan(deg)` is scaled by
/// `k` and paired with several base lengths `n` (which move the rounding of
/// the computed cosine), rotated by quarter turns and translated by
/// `offset`.
fn near_threshold(deg: f64, max_span: i64, offset: (i64, i64)) -> Vec<[Point; 3]> {
    let mut out = Vec::new();
    for (q, pp) in convergents(deg.to_radians().tan(), max_span) {
        let angle = (pp as f64).atan2(q as f64).to_degrees();
        if (angle - deg).abs() >= 1e-6 {
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

#[test]
fn near_threshold_triangles_match_the_reference() {
    for deg in THRESHOLDS {
        for (span, offset) in [
            (1 << 26, (0, 0)),
            (1 << 26, (SUPER, -SUPER)),
            (SUPER, (-SUPER, -SUPER)),
            (1 << 33, (1 << 31, -(1 << 32))),
        ] {
            let tris = near_threshold(deg, span, offset);
            assert!(tris.len() > 100, "too few near-{deg}° triangles");
            for [a, b, c] in tris {
                let min = min_angle_deg_of(a, b, c);
                assert!((min - deg).abs() < 1e-6, "{a:?} {b:?} {c:?}: {min}");
                assert_exact(a, b, c);
            }
        }
    }
}

#[test]
fn the_band_is_needed_near_thirty_degrees() {
    let wrong = near_threshold(30.0, 1 << 28, (0, 0))
        .into_iter()
        .filter(|&[a, b, c]| band_free(a, b, c, 30.0) != (min_angle_deg_of(a, b, c) < 30.0))
        .count();
    assert!(
        wrong > 0,
        "a pure cosine compare must misjudge some near-30° triangle"
    );
}

#[test]
fn collinear_and_zero_length_triangles() {
    for s in [1i64, 1 << 14, 1 << 26, SUPER, 1 << 31, 1 << 40] {
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

/// Thresholds at the ends of `[0°, 180°]` and outside it, where cosines no
/// longer order angles the way the threshold does.
const EDGE_THRESHOLDS: [f64; 9] = [
    f64::NAN,
    -30.0,
    0.0,
    1e-12,
    60.0,
    179.0,
    180.0,
    200.0,
    400.0,
];

#[test]
fn thresholds_at_and_past_the_angle_range() {
    let mut tris = vec![[p(0, 0), p(9, 0), p(0, 0)]];
    tris.extend(near_threshold(30.0, 1 << 26, (0, 0)).into_iter().step_by(7));
    for [a, b, c] in tris {
        for deg in EDGE_THRESHOLDS {
            assert_eq!(
                has_small_angle(a, b, c, deg),
                min_angle_deg_of(a, b, c) < deg,
                "{a:?} {b:?} {c:?} at {deg}°"
            );
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

    /// Random triangles at super-triangle scale and past 2^31, where the
    /// squared lengths overflow `i64`.
    #[test]
    fn random_wide(v in corners(-SUPER..=SUPER), shift in 0u32..12) {
        assert_exact_scaled(&v, shift);
    }

    /// Small triangles near the refinement floor, many of them degenerate.
    #[test]
    fn random_small(v in corners(0..=63), shift in 0u32..12) {
        assert_exact_scaled(&v, shift);
    }
}
