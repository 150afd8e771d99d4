//! Computational-geometry substrate for Delaunay triangulation and mesh
//! refinement.
//!
//! Robustness strategy: all mesh vertices are snapped to a `2^26 × 2^26`
//! integer grid over the unit square ([`point::Point::snapped`]). Grid
//! coordinates are exactly representable in `f64` *and* small enough that the
//! `orient2d` and `incircle` determinants fit in `i128`, so the predicates in
//! [`predicates`] are **exact** — no epsilon tuning, no floating-point
//! filter failures, and deterministic results, which the deterministic
//! scheduler's portability claims rely on. (The original Galois/PBBS codes
//! use Shewchuk's adaptive predicates over raw `f64`; exact integer
//! predicates over snapped inputs are the equivalent guarantee. See
//! DESIGN.md.)

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod brio;
pub mod point;
pub mod predicates;
pub mod tri;

pub use point::Point;
pub use predicates::{incircle, orient2d, Orientation};
