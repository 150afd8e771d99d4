//! Compressed sparse row graphs.

use galois_runtime::pool::{
    chunk_ends, chunk_range, prefetch, run_partitioned, run_parts, split_at_ends,
};
use galois_runtime::scan::parallel_inclusive_scan;
use std::sync::atomic::{AtomicU32, Ordering};

/// A node id. Graphs in this suite are bounded to `u32::MAX` nodes, matching
//  the scaled-down inputs (DESIGN.md substitution 5).
pub type NodeId = u32;

/// The threads a counting build of `m` edges uses: small builds run on
/// one, where the sequential path is faster than spawning.
fn build_threads(m: usize, threads: usize) -> usize {
    threads.clamp(1, m.div_ceil(8192).max(1))
}

/// Files the arcs of edge `(s, t)`: `s -> t`, and for an undirected build
/// `t -> s` too, where a self-loop files none.
#[inline(always)]
fn file_arcs<const UNDIRECTED: bool>(s: NodeId, t: NodeId, mut file: impl FnMut(NodeId, NodeId)) {
    if !UNDIRECTED {
        file(s, t);
    } else if s != t {
        file(s, t);
        file(t, s);
    }
}

/// Unwraps the scatter's atomic slots in place (same layout, no copy).
///
/// Out of line on purpose: compiled alone, the in-place `collect` reduces
/// to an identity loop that LLVM deletes; inlined into
/// `from_edges_parallel` it stayed a full pass over the targets (+0.1 ms
/// per 250 k edges on a 2-core x86_64).
#[inline(never)]
fn into_plain(slots: Vec<AtomicU32>) -> Vec<NodeId> {
    slots.into_iter().map(AtomicU32::into_inner).collect()
}

/// An immutable directed graph in compressed sparse row form.
///
/// `offsets[v]..offsets[v+1]` indexes `targets` with `v`'s out-neighbors.
/// Neighbor order is the insertion order of the edge list (ascending for a
/// [`symmetrized`](Self::symmetrized) graph), which makes graph
/// construction deterministic for deterministic inputs.
///
/// # Example
///
/// ```
/// use galois_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (2, 0)]);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.neighbors(1), &[] as &[u32]);
/// assert_eq!(g.out_degree(2), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a graph with `n` nodes from a directed edge list.
    ///
    /// Edges keep their relative order within each source node (counting
    /// sort), so construction is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut degree = vec![0u64; n];
        for &(s, t) in edges {
            assert!((s as usize) < n, "source {s} out of range");
            assert!((t as usize) < n, "target {t} out of range");
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; edges.len()];
        for &(s, t) in edges {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = t;
            *c += 1;
        }
        CsrGraph { offsets, targets }
    }

    /// Parallel [`from_edges`](Self::from_edges): counting sort with
    /// per-thread histograms over contiguous edge chunks, a parallel prefix
    /// sum for the offsets, and an order-preserving parallel scatter.
    ///
    /// The result is **byte-identical** to `from_edges(n, edges)` for every
    /// `threads` value: edge chunks are contiguous and in order, and each
    /// thread's scatter cursor starts at `offsets[v] + (edges of v owned by
    /// earlier chunks)`, so every edge lands in exactly the slot the
    /// sequential counting sort would give it.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`, or if `edges.len() > u32::MAX`
    /// (the parallel cursor stitching uses 32-bit per-chunk counts; the
    /// suite's inputs are bounded far below this, matching [`NodeId`]).
    pub fn from_edges_parallel(n: usize, edges: &[(NodeId, NodeId)], threads: usize) -> Self {
        let threads = build_threads(edges.len(), threads);
        if threads == 1 {
            return Self::from_edges(n, edges);
        }
        Self::counting_build::<false>(n, edges, threads)
    }

    /// Builds the undirected (symmetrized) version of an edge list: both
    /// directions of every non-self-loop edge, duplicates removed, each
    /// row in ascending order. It is
    /// [`symmetrized_parallel`](Self::symmetrized_parallel) at one thread.
    ///
    /// # Panics
    ///
    /// As [`symmetrized_parallel`](Self::symmetrized_parallel).
    pub fn symmetrized(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Self::symmetrized_parallel(n, edges, 1)
    }

    /// Parallel [`symmetrized`](Self::symmetrized), with no global sort:
    /// the counting build of [`from_edges_parallel`](Self::from_edges_parallel)
    /// files both arcs of every non-self-loop edge into their rows, then
    /// each thread sorts and dedups the rows of its node chunk in place,
    /// and the chunks are packed together.
    ///
    /// Every row is sorted after the scatter, so the order in which the
    /// scatter fills a row cannot change a byte: the result is a row-wise
    /// sorted, deduplicated set, the same for every `threads` value.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`, or if `2 * edges.len() > u32::MAX`
    /// (the build's 32-bit per-chunk counts, as in `from_edges_parallel`).
    pub fn symmetrized_parallel(n: usize, edges: &[(NodeId, NodeId)], threads: usize) -> Self {
        let threads = build_threads(edges.len(), threads);
        let CsrGraph {
            mut offsets,
            mut targets,
        } = Self::counting_build::<true>(n, edges, threads);

        // Phase 4: thread t sorts and dedups the rows of its node chunk,
        // packing them to the front of its part of `targets` and turning
        // its slice of `offsets[1..]` into part-relative row ends.
        let node_ends = chunk_ends(n, threads);
        let part_ends: Vec<usize> = node_ends.iter().map(|&v| offsets[v] as usize).collect();
        let parts = split_at_ends(&mut targets, &part_ends)
            .into_iter()
            .zip(split_at_ends(&mut offsets[1..], &node_ends))
            .collect();
        let kept = run_parts(parts, |tid, (rows, ends)| {
            let start = tid.checked_sub(1).map_or(0, |prev| part_ends[prev]);
            let (mut lo, mut packed) = (0, 0);
            for end in ends {
                let hi = *end as usize - start;
                rows[lo..hi].sort_unstable();
                let row = packed;
                for i in lo..hi {
                    if packed == row || rows[packed - 1] != rows[i] {
                        rows[packed] = rows[i];
                        packed += 1;
                    }
                }
                *end = packed as u64;
                lo = hi;
            }
            start..start + packed
        });

        // Phase 5: pack the parts end to end and rebase their row ends.
        let mut bases = Vec::with_capacity(threads);
        let mut total = 0;
        for part in kept {
            bases.push(total as u64);
            let len = part.len();
            targets.copy_within(part, total);
            total += len;
        }
        targets.truncate(total);
        run_partitioned(&mut offsets[1..], &node_ends, |tid, ends| {
            ends.iter_mut().for_each(|end| *end += bases[tid]);
        });
        CsrGraph { offsets, targets }
    }

    /// The counting build behind [`from_edges_parallel`] and
    /// [`symmetrized_parallel`]: per-thread row histograms over
    /// contiguous edge chunks, a parallel prefix sum for the offsets, and
    /// a scatter in which every chunk files its arcs in edge order after
    /// those of earlier chunks. Which arcs an edge files is
    /// [`file_arcs`]'s rule.
    ///
    /// [`from_edges_parallel`]: Self::from_edges_parallel
    /// [`symmetrized_parallel`]: Self::symmetrized_parallel
    fn counting_build<const UNDIRECTED: bool>(
        n: usize,
        edges: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Self {
        let m = edges.len();
        assert!(
            u32::try_from(m * (1 + usize::from(UNDIRECTED))).is_ok(),
            "counting CSR build limited to u32::MAX arcs"
        );

        // Phase 1: per-thread degree histograms over contiguous edge chunks.
        // Rows are allocated inside the worker so page-zeroing is parallel.
        let chunks: Vec<&[(NodeId, NodeId)]> = (0..threads)
            .map(|tid| &edges[chunk_range(m, threads, tid)])
            .collect();
        let mut counts: Vec<Vec<u32>> = run_parts(chunks.clone(), |_, chunk| {
            let mut local = vec![0u32; n];
            for &(s, t) in chunk {
                assert!((s as usize) < n, "source {s} out of range");
                assert!((t as usize) < n, "target {t} out of range");
                file_arcs::<UNDIRECTED>(s, t, |s, _| local[s as usize] += 1);
            }
            local
        });

        // Phase 2: offsets. `offsets[v + 1]` starts as v's total degree;
        // an inclusive scan over `offsets[1..]` then yields the CSR offsets
        // (`offsets[0]` stays 0). In the same pass each `counts[t][v]` is
        // replaced by the *within-node* base of chunk t — the number of
        // v-edges owned by earlier chunks — so the scatter phase needs no
        // cross-thread coordination. Thread `tid` owns the columns (nodes)
        // of its chunk range: its slice of `offsets[1..]` and the same
        // columns of every counts row.
        let mut offsets = vec![0u64; n + 1];
        let node_ends = chunk_ends(n, threads);
        let mut rows: Vec<_> = counts
            .iter_mut()
            .map(|row| split_at_ends(row, &node_ends).into_iter())
            .collect();
        let columns: Vec<_> = split_at_ends(&mut offsets[1..], &node_ends)
            .into_iter()
            .map(|degrees| {
                let cols: Vec<&mut [u32]> = rows
                    .iter_mut()
                    .map(|r| r.next().expect("one part per thread in every row"))
                    .collect();
                (degrees, cols)
            })
            .collect();
        run_parts(columns, |_, (degrees, mut cols)| {
            for (v, degree) in degrees.iter_mut().enumerate() {
                let mut running = 0u32;
                for col in cols.iter_mut() {
                    let c = col[v];
                    col[v] = running;
                    running += c;
                }
                *degree = running as u64;
            }
        });
        parallel_inclusive_scan(&mut offsets[1..], threads);

        // Phase 3: scatter. Thread t walks its edge chunk in order, using
        // its own counts row as the per-node cursor. Slots are unique per
        // arc (offsets partition by node, cursors by chunk and rank within
        // the chunk), so relaxed stores place every target exactly where
        // the sequential counting sort would; the pool's join orders every
        // store before the slots are unwrapped.
        let targets: Vec<AtomicU32> = vec![0 as NodeId; offsets[n] as usize]
            .into_iter()
            .map(AtomicU32::new)
            .collect();
        let cursors = chunks.into_iter().zip(counts).collect();
        run_parts(cursors, |_, (chunk, mut cursor)| {
            for &(s, t) in chunk {
                file_arcs::<UNDIRECTED>(s, t, |s, t| {
                    let slot = offsets[s as usize] + cursor[s as usize] as u64;
                    cursor[s as usize] += 1;
                    targets[slot as usize].store(t, Ordering::Relaxed);
                });
            }
        });
        CsrGraph {
            offsets,
            targets: into_plain(targets),
        }
    }

    /// Reassembles a graph from raw CSR arrays (the binary cache reader).
    ///
    /// Returns `None` if the arrays are not structurally consistent (see
    /// [`validate`](Self::validate)).
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<NodeId>) -> Option<Self> {
        let g = CsrGraph { offsets, targets };
        g.validate().then_some(g)
    }

    /// Assembles a graph from CSR arrays whose consistency the caller has
    /// proven by construction (e.g. a constant-out-degree generator whose
    /// offsets are closed-form). Skips the O(nodes + edges) [`validate`]
    /// pass that [`from_parts`](Self::from_parts) pays; debug builds still
    /// check.
    ///
    /// [`validate`]: Self::validate
    pub(crate) fn from_parts_unchecked(offsets: Vec<u64>, targets: Vec<NodeId>) -> Self {
        let g = CsrGraph { offsets, targets };
        debug_assert!(g.validate(), "from_parts_unchecked got inconsistent CSR");
        g
    }

    /// The raw CSR offset array (`num_nodes() + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw CSR target array, indexed by [`offsets`](Self::offsets).
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Out-neighbors of `v`, in edge-insertion order (ascending for a
    /// [`symmetrized`](Self::symmetrized) graph).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Hints the hardware prefetcher at `v`'s neighbor row.
    ///
    /// CSR traversals visit rows in frontier order, which is effectively
    /// random on the random-graph inputs — each row is a guaranteed cache
    /// miss. Issuing the prefetch for frontier vertex `i + 1` while
    /// processing vertex `i` overlaps that miss with useful work. A pure
    /// hint: no-op on non-x86_64 targets, never faults.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn prefetch_row(&self, v: NodeId) {
        prefetch(&self.targets, self.offsets[v as usize] as usize);
    }

    /// Single-source shortest hop distances; `u32::MAX` marks unreachable
    /// nodes. Reference implementation for validating the parallel variants.
    ///
    /// Level-synchronous with two flat frontier buffers (swapped per level)
    /// instead of a ring-buffer queue: the frontier is scanned linearly, the
    /// next vertex's neighbor row is prefetched while the current one is
    /// expanded, and the hot loop carries a single branch (the unvisited
    /// check). Distances are identical to the queue formulation — BFS level
    /// sets do not depend on intra-level order.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        dist[source as usize] = 0;
        let mut frontier: Vec<NodeId> = vec![source];
        let mut next: Vec<NodeId> = Vec::new();
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            for (i, &v) in frontier.iter().enumerate() {
                if let Some(&ahead) = frontier.get(i + 1) {
                    self.prefetch_row(ahead);
                }
                for &w in self.neighbors(v) {
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = depth;
                        next.push(w);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        dist
    }

    /// Whether the CSR arrays are structurally consistent (diagnostic).
    pub fn validate(&self) -> bool {
        if self.offsets.is_empty() || self.offsets[0] != 0 {
            return false;
        }
        if *self.offsets.last().unwrap() != self.targets.len() as u64 {
            return false;
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        let n = self.num_nodes() as NodeId;
        self.targets.iter().all(|&t| t < n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate());
    }

    #[test]
    fn neighbor_order_is_insertion_order() {
        let g = CsrGraph::from_edges(4, &[(1, 3), (0, 2), (1, 0), (1, 2)]);
        assert_eq!(g.neighbors(1), &[3, 0, 2]);
        assert!(g.validate());
    }

    #[test]
    fn symmetrized_has_both_directions_no_dups() {
        let g = CsrGraph::symmetrized(4, &[(0, 1), (1, 0), (2, 3), (3, 3)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[2], "self-loop removed");
        assert!(g.validate());
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3, u32::MAX]);
    }

    #[test]
    fn bfs_distances_on_cycle() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.bfs_distances(2), vec![2, 3, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Adversarial shape: skewed degrees, duplicates, self loops, and
        // enough edges to defeat the small-input sequential fallback.
        let n = 50;
        let edges: Vec<(NodeId, NodeId)> = (0..40_000u64)
            .map(|i| {
                let s = ((i * i) % 7 * 7 + i % 3) % n as u64;
                let t = (i * 31) % n as u64;
                (s as NodeId, t as NodeId)
            })
            .collect();
        let seq = CsrGraph::from_edges(n, &edges);
        for threads in [1, 2, 5, 8, 16] {
            let par = CsrGraph::from_edges_parallel(n, &edges, threads);
            assert_eq!(par.offsets, seq.offsets, "offsets at {threads} threads");
            assert_eq!(par.targets, seq.targets, "targets at {threads} threads");
        }
    }

    #[test]
    fn parallel_symmetrized_matches_sequential() {
        let edges: Vec<(NodeId, NodeId)> = (0..30_000u64)
            .map(|i| (((i * 13) % 64) as NodeId, ((i * 29 + 7) % 64) as NodeId))
            .collect();
        let seq = CsrGraph::symmetrized(64, &edges);
        for threads in [2, 5, 8] {
            assert_eq!(CsrGraph::symmetrized_parallel(64, &edges, threads), seq);
        }
    }

    #[test]
    fn from_parts_validates() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 0)]);
        let rebuilt = CsrGraph::from_parts(g.offsets().to_vec(), g.targets().to_vec()).unwrap();
        assert_eq!(rebuilt, g);
        assert!(CsrGraph::from_parts(vec![0, 2], vec![1]).is_none(), "count");
        assert!(CsrGraph::from_parts(vec![1, 1], vec![]).is_none(), "base");
        assert!(
            CsrGraph::from_parts(vec![0, 1], vec![7]).is_none(),
            "target range"
        );
    }

    #[test]
    fn degrees_sum_to_edges() {
        let edges = [(0u32, 1u32), (0, 0), (2, 1), (2, 0), (2, 2)];
        let g = CsrGraph::from_edges(3, &edges);
        let total: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        assert_eq!(total, edges.len());
    }
}
