//! Seeded graph generators for the paper's inputs (§4.2).
//!
//! - bfs / mis: "a random graph of 10 million nodes where each node is
//!   connected to five randomly selected nodes" — [`uniform_random`].
//! - pfp: "a random graph of 2^23 nodes with each node connected to 4 random
//!   neighbors" — [`uniform_random`] plus capacities in [`crate::flow`].
//!
//! # Determinism contract
//!
//! All generators are deterministic in their seed, and every generator
//! draws from **counter-based per-node RNG streams** (`seed ⊕ node id`)
//! rather than one sequential stream. That makes the work embarrassingly
//! parallel without changing the output: the `*_parallel` variants fan the
//! same per-node streams over the runtime's scoped pool and are
//! **byte-identical** to their sequential counterparts for every thread
//! count — the PBBS notion of internal determinism
//! ("All for One and One for All", PAPERS.md), applied to input setup. The
//! sequential functions stay as the oracles the parallel paths are tested
//! against (`crates/graph/tests/parallel_build.rs`).

use crate::csr::{CsrGraph, NodeId};
use galois_runtime::pool::{chunk_range, run_on_threads};
use galois_runtime::shared::SharedSlice;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The RNG stream owned by counter `c` (a node id) under `seed`.
///
/// The golden-ratio multiply decorrelates adjacent counters before the
/// SplitMix64 finalizer inside `seed_from_u64`; `c + 1` keeps counter 0
/// from collapsing onto the bare seed.
pub fn counter_stream(seed: u64, c: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ c.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Draws a uniformly random node `!= s`: drawing from `n - 1` candidates
/// and shifting past `s` gives every other node probability `1/(n-1)`,
/// unlike the old `(t + 1) % n` redirect, which silently gave `s + 1` a
/// doubled share.
#[inline]
fn draw_non_self(rng: &mut SmallRng, n: usize, s: NodeId) -> NodeId {
    let t = rng.random_range(0..(n - 1) as NodeId);
    if t >= s {
        t + 1
    } else {
        t
    }
}

/// Writes node `s`'s `degree` out-edges into `out` (length `degree`).
#[inline]
fn fill_uniform_node(out: &mut [(NodeId, NodeId)], n: usize, s: NodeId, degree: usize, seed: u64) {
    let mut rng = counter_stream(seed, s as u64);
    for slot in out.iter_mut().take(degree) {
        *slot = (s, draw_non_self(&mut rng, n, s));
    }
}

/// Directed edge list where each node points to `degree` uniformly random
/// distinct-from-self targets (duplicates between targets allowed, matching
/// the PBBS generator). Sequential oracle for
/// [`uniform_random_edges_parallel`].
pub fn uniform_random_edges(n: usize, degree: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2 || degree == 0, "need at least two nodes for edges");
    let mut edges = vec![(0 as NodeId, 0 as NodeId); n * degree];
    for s in 0..n {
        fill_uniform_node(
            &mut edges[s * degree..(s + 1) * degree],
            n,
            s as NodeId,
            degree,
            seed,
        );
    }
    edges
}

/// Parallel [`uniform_random_edges`]: nodes are fanned over `threads`
/// threads, each node drawing from its own counter stream, so the edge
/// list is byte-identical for any thread count.
pub fn uniform_random_edges_parallel(
    n: usize,
    degree: usize,
    seed: u64,
    threads: usize,
) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2 || degree == 0, "need at least two nodes for edges");
    let threads = threads.clamp(1, (n * degree).div_ceil(8192).max(1));
    if threads == 1 {
        return uniform_random_edges(n, degree, seed);
    }
    let mut edges = vec![(0 as NodeId, 0 as NodeId); n * degree];
    {
        let shared = SharedSlice::new(&mut edges);
        let shared = &shared;
        run_on_threads(threads, |tid| {
            for s in chunk_range(n, threads, tid) {
                // SAFETY: node ranges are disjoint across tids, so the edge
                // slots [s*degree, (s+1)*degree) are owned by this thread.
                let row = unsafe { shared.slice_mut(s * degree..(s + 1) * degree) };
                fill_uniform_node(row, n, s as NodeId, degree, seed);
            }
        });
    }
    edges
}

/// The edge slots owned by nodes `range` of [`uniform_random_edges`] —
/// exactly one worker's share of the parallel fill under a static
/// partition. Exists so a single-core host can measure the per-chunk
/// critical path of the parallel generator directly (bench `gen`):
/// concatenating the chunks of any partition of `0..n` reproduces the
/// full edge list byte for byte.
pub fn uniform_random_edges_range(
    n: usize,
    degree: usize,
    seed: u64,
    range: std::ops::Range<usize>,
) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2 || degree == 0, "need at least two nodes for edges");
    assert!(range.end <= n);
    let mut edges = vec![(0 as NodeId, 0 as NodeId); range.len() * degree];
    for (i, s) in range.enumerate() {
        fill_uniform_node(
            &mut edges[i * degree..(i + 1) * degree],
            n,
            s as NodeId,
            degree,
            seed,
        );
    }
    edges
}

/// The paper's random k-out graph, as a CSR graph.
pub fn uniform_random(n: usize, degree: usize, seed: u64) -> CsrGraph {
    CsrGraph::from_edges(n, &uniform_random_edges(n, degree, seed))
}

/// Parallel [`uniform_random`], **fused**: generation writes straight into
/// the final CSR arrays, byte-identical to the sequential version for any
/// thread count.
///
/// The old pipeline materialized the edge list, re-read it in a counting
/// pass, and scattered it — three passes over `n * degree` tuples, which is
/// why the end-to-end parallel build used to lose to the sequential one on
/// oversubscribed hosts. Constant out-degree makes all of that unnecessary:
/// the CSR offsets are closed-form (`offsets[v] = v * degree`), and node
/// `s`'s counter stream can be drawn directly into its target row
/// `targets[s*degree .. (s+1)*degree]`. One parallel pass, no intermediate
/// edge list. The result matches `from_edges(n, uniform_random_edges(..))`
/// byte for byte because the counting sort preserves per-source insertion
/// order — exactly the per-stream draw order reproduced here.
pub fn uniform_random_parallel(n: usize, degree: usize, seed: u64, threads: usize) -> CsrGraph {
    assert!(n >= 2 || degree == 0, "need at least two nodes for edges");
    let m = n * degree;
    let threads = threads.clamp(1, m.div_ceil(8192).max(1));
    if threads == 1 {
        return uniform_random(n, degree, seed);
    }
    let mut offsets = vec![0u64; n + 1];
    let mut targets = vec![0 as NodeId; m];
    {
        let offs = SharedSlice::new(&mut offsets);
        let tgts = SharedSlice::new(&mut targets);
        let (offs, tgts) = (&offs, &tgts);
        run_on_threads(threads, |tid| {
            for v in chunk_range(n + 1, threads, tid) {
                // SAFETY: offset chunks are disjoint across tids.
                unsafe { *offs.get_mut(v) = (v * degree) as u64 };
            }
            for s in chunk_range(n, threads, tid) {
                // SAFETY: node ranges are disjoint across tids, so the
                // target row [s*degree, (s+1)*degree) is owned here.
                let row = unsafe { tgts.slice_mut(s * degree..(s + 1) * degree) };
                let mut rng = counter_stream(seed, s as u64);
                for slot in row {
                    *slot = draw_non_self(&mut rng, n, s as NodeId);
                }
            }
        });
    }
    CsrGraph::from_parts_unchecked(offsets, targets)
}

/// Undirected (symmetrized) random k-out graph — the mis input.
pub fn uniform_random_undirected(n: usize, degree: usize, seed: u64) -> CsrGraph {
    CsrGraph::symmetrized(n, &uniform_random_edges(n, degree, seed))
}

/// Parallel [`uniform_random_undirected`], byte-identical to the
/// sequential version for any thread count.
pub fn uniform_random_undirected_parallel(
    n: usize,
    degree: usize,
    seed: u64,
    threads: usize,
) -> CsrGraph {
    let edges = uniform_random_edges_parallel(n, degree, seed, threads);
    CsrGraph::symmetrized_parallel(n, &edges, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_range_chunks_concatenate_to_the_full_list() {
        let full = uniform_random_edges(103, 3, 5);
        let mut glued = Vec::new();
        for chunk in [0..29usize, 29..64, 64..103] {
            glued.extend(uniform_random_edges_range(103, 3, 5, chunk));
        }
        assert_eq!(full, glued);
    }

    #[test]
    fn uniform_random_shape() {
        let g = uniform_random(100, 5, 42);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 500);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 5);
            assert!(g.neighbors(v).iter().all(|&t| t != v), "no self loops");
        }
        assert!(g.validate());
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let a = uniform_random(200, 4, 7);
        let b = uniform_random(200, 4, 7);
        let c = uniform_random(200, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn undirected_is_symmetric() {
        let g = uniform_random_undirected(64, 3, 1);
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                assert!(g.neighbors(w).contains(&v), "missing reverse {w}->{v}");
            }
        }
    }

    #[test]
    fn self_loop_redirect_is_unbiased() {
        // With the old `(t + 1) % n` redirect, target `s + 1` received the
        // self-draw's probability mass on top of its own: a 2/n share where
        // every other node got 1/n. The shifted draw gives each of the
        // n - 1 legal targets exactly 1/(n-1). With 20k draws over 7 bins
        // (expected 2857 each, σ ≈ 50), a ±10% band is ~5.7σ: tight enough
        // to catch the doubled successor share, loose enough to never flake
        // (the seed is fixed anyway).
        let (n, degree) = (8usize, 20_000usize);
        let edges = uniform_random_edges(n, degree, 1234);
        for s in 0..n as NodeId {
            let mut counts = vec![0usize; n];
            for &(src, t) in &edges {
                if src == s {
                    counts[t as usize] += 1;
                }
            }
            assert_eq!(counts[s as usize], 0, "self loop from {s}");
            let expect = degree as f64 / (n - 1) as f64;
            for (t, &c) in counts.iter().enumerate() {
                if t == s as usize {
                    continue;
                }
                assert!(
                    (c as f64) > 0.9 * expect && (c as f64) < 1.1 * expect,
                    "target {t} of source {s} drawn {c} times, expected ~{expect:.0}"
                );
            }
        }
    }

    #[test]
    fn parallel_uniform_random_is_thread_count_invariant() {
        let seq = uniform_random_edges(500, 5, 99);
        for threads in [1, 2, 5, 8, 16] {
            assert_eq!(
                uniform_random_edges_parallel(500, 5, 99, threads),
                seq,
                "edges diverged at {threads} threads"
            );
        }
        let g = uniform_random(500, 5, 99);
        assert_eq!(uniform_random_parallel(500, 5, 99, 8), g);
        let u = uniform_random_undirected(300, 4, 99);
        assert_eq!(uniform_random_undirected_parallel(300, 4, 99, 8), u);
    }

    #[test]
    fn fused_parallel_uniform_random_matches_sequential_build() {
        // Large enough to clear the `m.div_ceil(8192)` sequential-fallback
        // clamp (unlike the n=500 case above), so the fused closed-form
        // offsets + direct-draw targets path actually runs in parallel.
        let (n, degree, seed) = (20_000usize, 5usize, 0x00C0_FFEE_u64);
        let seq = uniform_random(n, degree, seed);
        for threads in [2, 3, 4, 8] {
            let par = uniform_random_parallel(n, degree, seed, threads);
            assert_eq!(par.offsets(), seq.offsets(), "offsets at {threads} threads");
            assert_eq!(par.targets(), seq.targets(), "targets at {threads} threads");
        }
    }
}
