//! Determinism-by-construction building blocks in the style of the Problem
//! Based Benchmark Suite (PBBS).
//!
//! The paper compares DIG scheduling against *handwritten* deterministic
//! programs from PBBS (§4.1). Those programs are built from two idioms,
//! reproduced here:
//!
//! - **Priority writes** ([`Reservations`], [`crate::priority::write_min`]):
//!   an atomic min over item priorities. The winner is the smallest
//!   priority regardless of interleaving, so the result is deterministic.
//! - **Deterministic reservations** ([`speculative_for`]): a
//!   bulk-synchronous speculative loop. Each round, a prefix of the
//!   remaining items *reserves* the resources it needs with priority writes,
//!   then items whose reservations all held *commit*; losers retry in later
//!   rounds. With commits keyed on item priority, the execution is
//!   equivalent to the sequential loop in priority order — determinism by
//!   construction. It is the one such loop: the pbbs variants of mis, mm, dt
//!   and dmr are its [`Step`]s, while bfs's is PBBS's level-synchronous BFS
//!   and needs no reservations loop.
//!
//! Unlike DIG scheduling, the prefix size here is a per-application tuning
//! parameter, [`Step::prefix`] (the paper calls this out: PBBS programs are
//! *not* parameter-free; see §6). It sees the remaining and finished item
//! counts, never the thread count, so a run's rounds are the same at any
//! thread count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod priority;
pub mod reservations;
pub mod spec_for;

pub use reservations::Reservations;
pub use spec_for::{speculative_for, SpecForStats, Step};
