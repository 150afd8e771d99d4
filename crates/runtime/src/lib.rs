//! Parallel runtime substrate for the Deterministic Galois reproduction.
//!
//! This crate provides the low-level machinery that the Galois executors in
//! `galois-core` are built on, mirroring the runtime layer of the original
//! C++ Galois system:
//!
//! - [`pool`]: a scoped thread pool that runs one worker closure per thread,
//!   handing each thread the part of a partition it owns.
//! - [`barrier`]: a sense-reversing centralized barrier.
//! - [`worklist`]: concurrent chunked work bags with per-thread locality.
//! - [`chaos`]: seeded adversarial-schedule injection ([`ChaosPolicy`]) used
//!   by the differential test harness to prove schedule invariance.
//! - [`fingerprint`]: the canonical state-fingerprint implementation
//!   ([`Fnv64`], [`RoundChain`]) shared by the differential harness and the
//!   record/replay layer — one hashing authority for the whole tree.
//! - [`json`]: the one strict JSON codec — parser, `escape`, ordered field
//!   cursor and checksum envelope — behind every manifest, report and
//!   request body the tree reads.
//! - [`padded`]: cache-line padded cells and per-thread counter arrays.
//! - [`stats`]: mergeable per-thread execution statistics.
//! - [`probe`]: round-level observability — the [`Probe`] trait and the
//!   [`RoundLog`] recorder whose canonical serialization doubles as a
//!   portability oracle for deterministic runs.
//! - [`scan`]: parallel prefix sums used by the deterministic parallel
//!   input pipeline (CSR construction, chunk packing).
//! - [`simtime`]: a virtual-time scheduling model that replays recorded task
//!   traces on *p* simulated workers. On a single-core host this substitutes
//!   for the paper's multi-socket machines (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use galois_runtime::pool::run_on_threads;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let hits = AtomicUsize::new(0);
//! run_on_threads(4, |tid| {
//!     assert!(tid < 4);
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `unsafe` is allowed item by item only: the `pool::prefetch` hint (see
// DESIGN.md, "Unsafe policy").
#![deny(unsafe_code)]

pub mod barrier;
pub mod chaos;
pub mod fingerprint;
pub mod json;
pub mod padded;
pub mod pool;
pub mod probe;
pub mod scan;
pub mod simtime;
pub mod stats;
pub mod worklist;

pub use barrier::{BarrierPoisoned, SenseBarrier};
pub use chaos::ChaosPolicy;
pub use fingerprint::{Fnv64, RoundChain};
pub use pool::{run_on_threads, run_on_threads_fault};
pub use probe::{Probe, RoundLog, RoundRecord};
pub use stats::ExecStats;
