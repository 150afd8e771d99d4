//! A model of CoreDet-style deterministic thread scheduling (the §5.2
//! comparison system).
//!
//! CoreDet [Bergan et al., ASPLOS 2010] makes arbitrary pthreads programs
//! deterministic with **DMP-O**: execution proceeds in rounds; each thread
//! runs a fixed *quantum* of instructions in parallel mode, but any
//! synchronizing operation (atomic, lock, barrier) blocks until the round's
//! serial mode, where a token visits threads in id order. The paper shows
//! this collapses on irregular programs whose tasks synchronize every few
//! microseconds (Figure 6).
//!
//! The original is an LLVM compiler pass; this reproduction models it
//! rather than running it (DESIGN.md, substitution 2):
//!
//! - [`model`]: a virtual-time simulator of the DMP-O algorithm over
//!   per-thread instruction streams, which produces the Figure 6 scaling
//!   curves and the quantum ablation without real threads.
//! - [`kernels`]: instruction-stream generators for the seven Figure 6
//!   benchmarks (blackscholes, bodytrack-like, freqmine-like, and
//!   pthread-style bfs / dmr / dt / mis), with work/synchronization ratios
//!   matching the paper's characterization (Figure 5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernels;
pub mod model;

pub use model::{coredet_makespan_ns, native_makespan_ns, Event, ThreadStream};
