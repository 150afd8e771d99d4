//! Benchmark applications of the Deterministic Galois reproduction (§4.1).
//!
//! Five problems, each in several variants mirroring the paper's study:
//!
//! | app | problem | variants |
//! |-----|---------|----------|
//! | [`bfs`] | breadth-first search labelling | `seq`, `g-n`, `g-d`, `pbbs` |
//! | [`mis`] | maximal independent set | `seq`, `g-n`, `g-d`, `pbbs` |
//! | [`pfp`] | preflow-push max-flow with global relabeling | `seq` (hi_pr-style), `g-n`, `g-d` |
//! | [`dt`]  | Delaunay triangulation | `seq`, `g-n`, `g-d`, `pbbs` |
//! | [`dmr`] | Delaunay mesh refinement | `seq`, `g-n`, `g-d`, `pbbs` |
//! | [`mm`]  | maximal matching (extension; §4.1 set it aside) | `seq`, `g-n`, `g-d`, `pbbs` |
//!
//! The `g-n`/`g-d` variants share **one** operator; only the
//! [`galois_core::Schedule`] differs (on-demand determinism). The `pbbs`
//! variants are handwritten determinism-by-construction implementations on
//! [`pbbs_det`] primitives. The `seq` variants are the optimized sequential
//! baselines of Figure 8.
//!
//! Each app exports two executor entry points: `run`, which takes the
//! caller's [`galois_core::Hooks`], and `try_galois`, the hook-less call of
//! it. [`recipe`] owns everything else a surface needs to run an app by
//! name.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod dmr;
pub mod dt;
pub mod mis;
pub mod mm;
pub mod pfp;
pub mod recipe;

pub use recipe::App;

/// Names a benchmark variant in reports and tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Best sequential implementation (Figure 8 baseline).
    Seq,
    /// Non-deterministic Galois (`g-n`).
    GaloisNondet,
    /// Deterministically scheduled Galois (`g-d`).
    GaloisDet,
    /// Handwritten deterministic PBBS-style implementation.
    Pbbs,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Variant::Seq => "seq",
            Variant::GaloisNondet => "g-n",
            Variant::GaloisDet => "g-d",
            Variant::Pbbs => "pbbs",
        };
        f.write_str(s)
    }
}
