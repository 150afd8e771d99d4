//! Byte-identity of the parallel input pipeline.
//!
//! The parallel CSR builder and the parallel generators promise more than
//! "isomorphic output": the produced graph must be **byte-identical** to
//! the sequential oracle's — same offsets, same target order, same
//! serialized bytes — for *every* thread count. These tests sweep the
//! thread counts the repo's determinism suite uses (including ones larger
//! than any plausible core count and ones that do not divide the input
//! size) and drive the builder through property-drawn edge lists plus the
//! adversarial shapes a chunked counting sort gets wrong first: empty
//! inputs, single nodes, duplicate edges, and one node holding every edge.

use galois_graph::io::write_csr_binary;
use galois_graph::{gen, CsrGraph};
use proptest::prelude::*;

/// Thread counts every parallel path must be invariant over (the same
/// sweep as `tests/common::THREAD_COUNTS` at the workspace level).
const THREAD_COUNTS: [usize; 5] = [1, 2, 5, 8, 16];

/// The full identity check: structural equality *and* serialized bytes.
fn assert_bit_identical(label: &str, oracle: &CsrGraph, parallel: &CsrGraph, threads: usize) {
    assert_eq!(
        oracle.offsets(),
        parallel.offsets(),
        "{label}: offsets diverge at {threads} threads"
    );
    assert_eq!(
        oracle.targets(),
        parallel.targets(),
        "{label}: targets diverge at {threads} threads"
    );
    let mut a = Vec::new();
    let mut b = Vec::new();
    write_csr_binary(oracle, &mut a).unwrap();
    write_csr_binary(parallel, &mut b).unwrap();
    assert_eq!(
        a, b,
        "{label}: serialized bytes diverge at {threads} threads"
    );
}

fn sweep(label: &str, n: usize, edges: &[(u32, u32)]) {
    let oracle = CsrGraph::from_edges(n, edges);
    assert!(oracle.validate(), "{label}: oracle CSR invalid");
    for t in THREAD_COUNTS {
        let par = CsrGraph::from_edges_parallel(n, edges, t);
        assert_bit_identical(label, &oracle, &par, t);
    }
}

#[test]
fn empty_graph() {
    sweep("empty", 0, &[]);
}

#[test]
fn nodes_without_edges() {
    sweep("edgeless", 17, &[]);
}

#[test]
fn singleton_with_self_loop() {
    sweep("singleton", 1, &[(0, 0)]);
}

#[test]
fn duplicate_edges_are_all_kept_in_order() {
    let edges = vec![(0, 1), (0, 1), (0, 1), (2, 0), (2, 0), (1, 2)];
    sweep("duplicates", 3, &edges);
    let g = CsrGraph::from_edges_parallel(3, &edges, 5);
    assert_eq!(
        g.neighbors(0),
        &[1, 1, 1],
        "duplicates collapsed or reordered"
    );
}

#[test]
fn max_degree_star_onto_one_node() {
    // Every edge lands on node 0: one histogram bucket absorbs the whole
    // edge list, the worst case for per-chunk cursor stitching.
    let n = 64;
    let edges: Vec<(u32, u32)> = (0..4_096).map(|i| (0, (i % n) as u32)).collect();
    sweep("star-out", n as usize, &edges);
    let from_all: Vec<(u32, u32)> = (0..4_096).map(|i| ((i % n) as u32, 0)).collect();
    sweep("star-in", n as usize, &from_all);
}

#[test]
fn chunk_boundary_sizes() {
    // Edge counts straddling the builder's parallelization threshold, with
    // node counts that do not divide evenly among any swept thread count.
    for m in [8_191usize, 8_192, 8_193, 20_000] {
        let n = 37;
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|i| ((i % n) as u32, ((i * 7 + 3) % n) as u32))
            .collect();
        sweep("boundary", n, &edges);
    }
}

#[test]
fn symmetrized_parallel_matches_sequential() {
    // 500 x 3 gives 3 000 pairs, below the sort's 4 096 clamp; 20 000 x 5
    // gives 200 000 pairs, so the parallel sort and CSR build both run.
    for (n, degree) in [(500, 3), (20_000, 5)] {
        let edges = gen::uniform_random_edges(n, degree, 77);
        let oracle = CsrGraph::symmetrized(n, &edges);
        for t in [1, 2, 3, 5, 8, 16] {
            let par = CsrGraph::symmetrized_parallel(n, &edges, t);
            assert_bit_identical("symmetrized", &oracle, &par, t);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary edge lists (self-loops and duplicates included) build
    /// bit-identically at every thread count.
    fn arbitrary_edge_lists_build_identically(
        n in 1usize..48,
        raw in proptest::collection::vec((0u32..10_000, 0u32..10_000), 0..600),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(s, t)| (s % n as u32, t % n as u32))
            .collect();
        let oracle = CsrGraph::from_edges(n, &edges);
        prop_assert!(oracle.validate());
        for t in THREAD_COUNTS {
            let par = CsrGraph::from_edges_parallel(n, &edges, t);
            prop_assert_eq!(oracle.offsets(), par.offsets(), "offsets, {} threads", t);
            prop_assert_eq!(oracle.targets(), par.targets(), "targets, {} threads", t);
        }
    }

    /// The uniform generator is a pure function of (n, degree, seed): the
    /// parallel build is byte-identical to the sequential one.
    fn uniform_generator_is_thread_count_invariant(
        n in 1usize..300,
        degree in 0usize..6,
        seed in 0u64..1_000,
    ) {
        let oracle = gen::uniform_random(n, degree, seed);
        for t in THREAD_COUNTS {
            let par = gen::uniform_random_parallel(n, degree, seed, t);
            prop_assert_eq!(&oracle, &par, "uniform(n={}, d={}, s={}) at {} threads", n, degree, seed, t);
        }
    }

    /// Same for the undirected (symmetrized) family.
    fn undirected_generator_is_thread_count_invariant(
        n in 1usize..200,
        seed in 0u64..500,
    ) {
        let oracle = gen::uniform_random_undirected(n, 3, seed);
        for t in THREAD_COUNTS {
            let par = gen::uniform_random_undirected_parallel(n, 3, seed, t);
            prop_assert_eq!(&oracle, &par, "undirected(n={}, s={}) at {} threads", n, seed, t);
        }
    }
}
