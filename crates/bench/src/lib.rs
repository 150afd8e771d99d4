//! Benchmark harness for the Deterministic Galois evaluation (§5).
//!
//! Every table and figure of the paper has a bench target
//! (`cargo bench -p galois-bench --bench figN`) built on this crate:
//!
//! - [`inputs`]: scaled-down versions of the paper's inputs (§4.2), scaled
//!   further by the `GALOIS_SCALE` environment variable.
//! - [`drivers`]: [`measure`], one [`App::run`](galois_apps::App::run) per
//!   (application, variant) pair, returning a uniform [`Measurement`].
//! - [`tables`]: plain-text table rendering in the paper's row/column
//!   shapes.
//!
//! Wall-clock speedup sweeps use the virtual-time model of
//! [`galois_runtime::simtime`] over traces recorded at one thread — this
//! host has 2 cores (DESIGN.md, substitution 1). A deterministic run's
//! trace is its round log. Schedule-derived
//! quantities (commit counts, abort ratios, rounds, atomic updates) are
//! measured directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drivers;
pub mod inputs;
pub mod suites;
pub mod sweep;
pub mod tables;

pub use drivers::{measure, variants, App, Measurement, PAPER_APPS};
pub use galois_apps::Variant;

/// Reads the global scale factor (default 1.0).
pub fn scale() -> f64 {
    std::env::var("GALOIS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Worker-thread count used for "max threads" measurements on this host.
///
/// Real threads are oversubscribed on the single-core container; they are
/// used for correctness/portability checks, while scaling numbers come from
/// the virtual-time model.
pub fn max_threads() -> usize {
    std::env::var("GALOIS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}
