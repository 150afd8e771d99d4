//! CoreDet-style deterministic thread scheduling (the §5.2 comparison
//! system).
//!
//! CoreDet [Bergan et al., ASPLOS 2010] makes arbitrary pthreads programs
//! deterministic with **DMP-O**: execution proceeds in rounds; each thread
//! runs a fixed *quantum* of instructions in parallel mode, but any
//! synchronizing operation (atomic, lock, barrier) blocks until the round's
//! serial mode, where a token visits threads in id order. The paper shows
//! this collapses on irregular programs whose tasks synchronize every few
//! microseconds (Figure 6).
//!
//! The original is an LLVM compiler pass; this reproduction works at the API
//! level (DESIGN.md, substitution 2):
//!
//! - [`runtime`]: a real-thread deterministic runtime. Programs call
//!   [`runtime::Worker::work`] to account computation and perform all
//!   synchronization through the runtime; in deterministic mode every
//!   synchronizing operation executes in (round, thread-id) order, so racy
//!   programs produce identical results on every run.
//! - [`model`]: a virtual-time simulator of the same DMP-O algorithm over
//!   per-thread instruction streams, used to produce scaling curves on a
//!   single-core host.
//! - [`kernels`]: instruction-stream generators for the seven Figure 6
//!   benchmarks (blackscholes, bodytrack-like, freqmine-like, and
//!   pthread-style bfs / dmr / dt / mis), with work/synchronization ratios
//!   matching the paper's characterization (Figure 5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blackscholes;
pub mod kernels;
pub mod model;
pub mod runtime;

pub use model::{coredet_makespan_ns, native_makespan_ns, Event, ThreadStream};
pub use runtime::{DetRuntime, Mode, Worker};
