//! Set-associative LRU cache hierarchy simulator.
//!
//! The paper's locality study (§5.4, Figures 11–12) samples hardware
//! performance counters for requests satisfied from DRAM. This reproduction
//! substitutes a cache model (DESIGN.md, substitution 4): executors record
//! their abstract-location access streams, and [`Hierarchy::replay`] runs
//! them through private L1/L2 caches and a shared L3, counting misses to
//! memory. The phenomenon under study — DIG scheduling separates a task's
//! inspect and execute phases by a window of other tasks, destroying reuse —
//! is a *reuse-distance* property, which LRU caches measure directly.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod hierarchy;
pub mod regression;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{Hierarchy, HierarchyConfig, MemStats};
