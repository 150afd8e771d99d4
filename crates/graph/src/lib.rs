//! Graph substrate for the Deterministic Galois reproduction.
//!
//! Provides the inputs and shared data structures of the graph benchmarks
//! (§4.2 of the paper):
//!
//! - [`csr`]: compressed sparse row graphs, the static topology for bfs, mis
//!   and preflow-push.
//! - [`array`](mod@array): atomic label arrays — shared per-node state mutated under the
//!   runtime's abstract-lock protocol (or with CAS in handwritten variants).
//! - [`gen`]: seeded generators for the paper's inputs — uniform random
//!   k-out graphs, 2-D grids, RMAT-style power-law graphs.
//! - [`flow`]: immutable flow networks with paired reverse edges, and the
//!   residual capacities each preflow-push run owns.
//! - [`io`]: DIMACS, edge-list and binary CSR readers/writers.
//! - [`cache`]: on-disk cache of generated inputs, keyed by generator
//!   name + parameters + seed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod array;
pub mod cache;
pub mod csr;
pub mod flow;
pub mod gen;
pub mod io;

pub use array::AtomicArray;
pub use csr::CsrGraph;
pub use flow::{FlowNetwork, Residual};
