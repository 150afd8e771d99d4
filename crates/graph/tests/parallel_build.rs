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
use galois_runtime::fingerprint::Fnv64;
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

/// The sort-based definition of the undirected build: both directions of
/// every non-self-loop edge, sorted, deduplicated, counting-sorted.
fn symmetrized_oracle(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut both: Vec<(u32, u32)> = edges
        .iter()
        .filter(|(s, t)| s != t)
        .flat_map(|&(s, t)| [(s, t), (t, s)])
        .collect();
    both.sort_unstable();
    both.dedup();
    CsrGraph::from_edges(n, &both)
}

/// Thread counts for the undirected build: the usual sweep plus 3, which
/// splits no node or edge count below evenly.
const SYMMETRIZED_THREADS: [usize; 6] = [1, 2, 3, 5, 8, 16];

fn sweep_symmetrized(label: &str, n: usize, edges: &[(u32, u32)]) {
    let oracle = symmetrized_oracle(n, edges);
    assert!(oracle.validate(), "{label}: oracle CSR invalid");
    for t in THREAD_COUNTS.into_iter().chain(SYMMETRIZED_THREADS) {
        let par = CsrGraph::symmetrized_parallel(n, edges, t);
        assert_bit_identical(label, &oracle, &par, t);
    }
    assert_eq!(
        CsrGraph::symmetrized(n, edges),
        oracle,
        "{label}: symmetrized"
    );
}

#[test]
fn symmetrized_matches_the_sort_based_oracle() {
    // 500 x 3 gives 1 500 edges, below the builders' one-thread clamp;
    // 20 000 x 5 gives 100 000, so every phase runs on up to 13 threads.
    for (n, degree) in [(500, 3), (20_000, 5)] {
        sweep_symmetrized("uniform", n, &gen::uniform_random_edges(n, degree, 77));
    }
}

#[test]
fn symmetrized_edge_shapes() {
    sweep_symmetrized("empty", 0, &[]);
    sweep_symmetrized("edgeless", 9, &[]);
    sweep_symmetrized("singleton", 1, &[(0, 0)]);
    sweep_symmetrized("self-loops only", 3, &[(1, 1), (0, 0), (1, 1)]);
    sweep_symmetrized(
        "both directions and duplicates",
        4,
        &[(0, 1), (1, 0), (0, 1), (3, 2), (2, 3), (2, 2), (3, 2)],
    );
    // Above the clamp: a star given in both directions with repeats, so
    // one row holds every arc and every arc has a duplicate.
    let n = 1_000u32;
    let star: Vec<(u32, u32)> = (0..40_000)
        .map(|i| (0, i % n))
        .chain((0..40_000).map(|i| (i % n, 0)))
        .collect();
    sweep_symmetrized("star", n as usize, &star);
}

#[test]
#[should_panic(expected = "out of range")]
fn symmetrized_rejects_an_endpoint_past_n() {
    let _ = CsrGraph::symmetrized(3, &[(0, 1), (1, 3)]);
}

#[test]
#[should_panic(expected = "out of range")]
fn parallel_symmetrized_rejects_an_endpoint_past_n() {
    let mut edges = gen::uniform_random_edges(5_000, 4, 3);
    edges.push((5_000, 0));
    let _ = CsrGraph::symmetrized_parallel(5_000, &edges, 3);
}

/// The mis/mm input at 20 000 nodes, pinned: an FNV-1a digest of its
/// offsets (as little-endian `u64`s) then targets (`u32`s). Every input
/// key, GCSR cache file and recorded manifest of the undirected family
/// rests on these bytes, so a build change that moves them fails here.
#[test]
fn undirected_input_bytes_are_pinned() {
    for (seed, digest) in [(42, 0xbe0a_6431_6052_95cf_u64), (1, 0xe12c_67a8_1b79_9879)] {
        for t in [1, 2, 3] {
            let g = gen::uniform_random_undirected_parallel(20_000, 4, seed, t);
            let mut h = Fnv64::new();
            g.offsets().iter().for_each(|&o| h.write_u64(o));
            g.targets().iter().for_each(|&v| h.write_u32(v));
            assert_eq!(h.finish(), digest, "seed {seed} at {t} threads");
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

    /// Arbitrary edge lists (self-loops, duplicates, pairs given both
    /// ways, isolated nodes) symmetrize to the sort-based oracle at every
    /// thread count.
    /// Lists run from empty to past twice the one-thread clamp (8 192
    /// edges), so both the one-thread and the parallel phases are drawn.
    fn arbitrary_edge_lists_symmetrize_like_the_oracle(
        n in 1usize..2_000,
        raw in proptest::collection::vec((0u32..10_000, 0u32..10_000), 0..20_000),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(s, t)| (s % n as u32, t % n as u32))
            .collect();
        let oracle = symmetrized_oracle(n, &edges);
        for t in THREAD_COUNTS.into_iter().chain(SYMMETRIZED_THREADS) {
            let par = CsrGraph::symmetrized_parallel(n, &edges, t);
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
