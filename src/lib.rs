//! # Deterministic Galois: on-demand, portable, parameterless
//!
//! Umbrella crate for the reproduction of *"Deterministic Galois:
//! On-demand, Portable and Parameterless"* (Nguyen, Lenharth, Pingali —
//! ASPLOS 2014). It re-exports the workspace crates:
//!
//! | module | crate | content |
//! |--------|-------|---------|
//! | [`core`] | `galois-core` | the Galois programming model and the speculative / DIG schedulers |
//! | [`runtime`] | `galois-runtime` | thread pool, barriers, work bags, virtual-time model |
//! | [`graph`] | `galois-graph` | CSR graphs, generators, flow networks |
//! | [`geometry`] | `galois-geometry` | exact predicates, BRIO, triangle math |
//! | [`mesh`] | `galois-mesh` | concurrent triangle mesh, cavities, checkers |
//! | [`pbbs`] | `pbbs-det` | deterministic reservations, priority writes |
//! | [`apps`] | `galois-apps` | bfs, mis, dt, dmr, pfp in all paper variants |
//! | [`serve`] | `galois-serve` | resident compute service: HTTP front end, warm inputs, fault quarantine |
//! | [`coredet`] | `coredet-sim` | the CoreDet comparison system |
//! | [`cachesim`] | `cache-sim` | the locality-study cache model |
//!
//! ## Quickstart
//!
//! ```
//! use deterministic_galois::core::{Ctx, Executor, MarkTable, OpResult, Schedule};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // Sum each value into one of 8 buckets, under abstract per-bucket locks.
//! let buckets: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
//! let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
//!     let b = (*t % 8) as u32;
//!     ctx.acquire(b)?;
//!     ctx.failsafe()?;
//!     let cur = buckets[b as usize].load(Ordering::Relaxed);
//!     buckets[b as usize].store(cur + *t, Ordering::Relaxed);
//!     Ok(())
//! };
//! let marks = MarkTable::new(8);
//! // The scheduler is a run-time switch: Speculative or Deterministic.
//! let report = Executor::new()
//!     .threads(2)
//!     .schedule(Schedule::deterministic())
//!     .iterate((0..1000).collect())
//!     .run(&marks, &op);
//! assert_eq!(report.stats.committed, 1000);
//! ```
//!
//! See `examples/` for runnable end-to-end programs and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]

pub use cache_sim as cachesim;
pub use coredet_sim as coredet;
pub use galois_apps as apps;
pub use galois_core as core;
pub use galois_geometry as geometry;
pub use galois_graph as graph;
pub use galois_harness as harness;
pub use galois_mesh as mesh;
pub use galois_runtime as runtime;
pub use galois_serve as serve;
pub use pbbs_det as pbbs;
