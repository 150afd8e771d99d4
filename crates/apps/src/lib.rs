//! Benchmark applications of the Deterministic Galois reproduction (§4.1).
//!
//! Six problems, each in the variants of the paper's study (§4.1):
//!
//! | app | problem | variants | hand-written reference |
//! |-----|---------|----------|------------------------|
//! | [`bfs`] | breadth-first search labelling | `seq`, `g-n`, `g-d`, `pbbs` | [`bfs::seq`] |
//! | [`mis`] | maximal independent set | `seq`, `g-n`, `g-d`, `pbbs` | [`mis::seq`] |
//! | [`pfp`] | preflow-push max-flow with global relabeling | `seq`, `g-n`, `g-d` | [`pfp::seq`] (hi_pr-style) |
//! | [`dt`]  | Delaunay triangulation | `seq`, `g-n`, `g-d`, `pbbs` | [`dt::seq`] |
//! | [`dmr`] | Delaunay mesh refinement | `seq`, `g-n`, `g-d`, `pbbs` | — |
//! | [`mm`]  | maximal matching (extension; §4.1 set it aside) | `seq`, `g-n`, `g-d`, `pbbs` | [`mm::seq`] |
//!
//! `seq`, `g-n` and `g-d` share **one** operator; only the
//! [`galois_core::Schedule`] differs (on-demand determinism): `seq` is that
//! operator under the serial executor. The `pbbs` variants are handwritten
//! determinism-by-construction implementations on [`pbbs_det`] primitives.
//! The hand-written sequential references are what tests and examples
//! check the variants against; [`pfp::seq`] is also Figure 8's pfp
//! baseline.
//!
//! Each app exports two executor entry points: `run`, which takes the
//! caller's [`galois_core::Hooks`], and `try_galois`, the hook-less call of
//! it. [`recipe`] owns everything else a surface needs to run an app by
//! name, and [`App::run`] is the one dispatcher over the (app × variant)
//! matrix.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod dmr;
pub mod dt;
pub mod mis;
pub mod mm;
pub mod pfp;
pub mod recipe;

pub use recipe::{App, Variant};
