//! Triangle-mesh substrate for Delaunay triangulation and refinement.
//!
//! A [`Mesh`] is an arena of triangles plus an arena of vertices, both
//! append-only (slots are never reused; deleted triangles keep their slot
//! with a cleared `alive` bit). All fields are relaxed atomics, so
//! concurrent access is *sound* by construction; *correct* interleaving is
//! the job of the caller's synchronization protocol — in this suite, the
//! Galois abstract locks (one `galois_core::LockId` per triangle slot) or
//! the bulk-synchronous phases of the PBBS-style variants.
//!
//! Module map:
//! - [`mesh`]: the arena and triangle accessors.
//! - [`cavity`]: point-location walk, Bowyer–Watson cavity growth, and
//!   star retriangulation — shared by the sequential builder and every
//!   parallel variant (the *visit* hook is where operators acquire locks).
//! - [`build`]: sequential incremental Delaunay construction.
//! - [`check`]: structural, Delaunay, and quality checkers plus canonical
//!   output forms for cross-variant comparison.

#![warn(missing_docs)]

pub mod build;
pub mod cavity;
pub mod check;
pub mod locator;
pub mod mesh;

pub use cavity::{Cavity, LocateOutcome};
pub use locator::GridLocator;
pub use mesh::{Mesh, TriData, INVALID};
