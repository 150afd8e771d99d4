//! Compressed sparse row graphs.

use galois_runtime::pool::{chunk_range, run_on_threads};
use galois_runtime::scan::parallel_inclusive_scan;
use galois_runtime::shared::SharedSlice;
use galois_runtime::sort::parallel_sort_by_key;

/// A node id. Graphs in this suite are bounded to `u32::MAX` nodes, matching
//  the scaled-down inputs (DESIGN.md substitution 5).
pub type NodeId = u32;

/// Both directions of every non-self-loop edge, in input order.
fn symmetric_closure(edges: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    let mut both: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len() * 2);
    for &(s, t) in edges {
        if s != t {
            both.push((s, t));
            both.push((t, s));
        }
    }
    both
}

/// An immutable directed graph in compressed sparse row form.
///
/// `offsets[v]..offsets[v+1]` indexes `targets` with `v`'s out-neighbors.
/// Neighbor order is the insertion order of the edge list, which makes graph
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
        let m = edges.len();
        // Small builds: the sequential oracle is faster than spawning.
        let threads = threads.clamp(1, m.div_ceil(8192).max(1));
        if threads == 1 {
            return Self::from_edges(n, edges);
        }
        assert!(
            u32::try_from(m).is_ok(),
            "parallel CSR build limited to u32::MAX edges"
        );

        // Phase 1: per-thread degree histograms over contiguous edge chunks.
        // Rows are allocated inside the worker so page-zeroing is parallel.
        let mut counts: Vec<Vec<u32>> = (0..threads).map(|_| Vec::new()).collect();
        {
            let slots = SharedSlice::new(&mut counts);
            let slots = &slots;
            run_on_threads(threads, |tid| {
                let mut local = vec![0u32; n];
                for &(s, t) in &edges[chunk_range(m, threads, tid)] {
                    assert!((s as usize) < n, "source {s} out of range");
                    assert!((t as usize) < n, "target {t} out of range");
                    local[s as usize] += 1;
                }
                // SAFETY: each tid writes only its own row slot.
                unsafe { *slots.get_mut(tid) = local };
            });
        }

        // Phase 2: offsets. `offsets[v + 1]` starts as v's total degree;
        // an inclusive scan over `offsets[1..]` then yields the CSR offsets
        // (`offsets[0]` stays 0). In the same pass each `counts[t][v]` is
        // replaced by the *within-node* base of chunk t — the number of
        // v-edges owned by earlier chunks — so the scatter phase needs no
        // cross-thread coordination.
        let mut offsets = vec![0u64; n + 1];
        {
            let shared_offsets = SharedSlice::new(&mut offsets);
            let shared_offsets = &shared_offsets;
            // Column-parallel pass over node chunks: thread `tid` owns the
            // columns (nodes) in its chunk range across every counts row.
            let count_rows: Vec<SharedSlice<'_, u32>> =
                counts.iter_mut().map(|row| SharedSlice::new(row)).collect();
            let count_rows = &count_rows;
            run_on_threads(threads, |tid| {
                for v in chunk_range(n, threads, tid) {
                    let mut running = 0u32;
                    for row in count_rows {
                        // SAFETY: column v is owned exclusively by this tid.
                        let slot = unsafe { row.get_mut(v) };
                        let c = *slot;
                        *slot = running;
                        running += c;
                    }
                    // SAFETY: slot v + 1 is written only by this tid.
                    unsafe { *shared_offsets.get_mut(v + 1) = running as u64 };
                }
            });
        }
        parallel_inclusive_scan(&mut offsets[1..], threads);

        // Phase 3: scatter. Thread t walks its edge chunk in order, using
        // its (now exclusive) counts row as the per-node cursor.
        let mut targets = vec![0 as NodeId; m];
        {
            let shared_targets = SharedSlice::new(&mut targets);
            let shared_targets = &shared_targets;
            let offsets_ro: &[u64] = &offsets;
            let counts_rows = SharedSlice::new(&mut counts);
            let counts_rows = &counts_rows;
            run_on_threads(threads, |tid| {
                // SAFETY: row tid is touched only by thread tid in this phase.
                let cursor: &mut Vec<u32> = unsafe { counts_rows.get_mut(tid) };
                for &(s, t) in &edges[chunk_range(m, threads, tid)] {
                    let slot = offsets_ro[s as usize] + cursor[s as usize] as u64;
                    cursor[s as usize] += 1;
                    // SAFETY: `slot` is unique per edge: offsets partition
                    // by node, and the per-node cursors partition by chunk
                    // and edge rank within the chunk.
                    unsafe { *shared_targets.get_mut(slot as usize) = t };
                }
            });
        }
        CsrGraph { offsets, targets }
    }

    /// Builds the undirected (symmetrized) version of an edge list: both
    /// directions are present and duplicate edges are removed.
    pub fn symmetrized(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut both = symmetric_closure(edges);
        both.sort_unstable();
        both.dedup();
        Self::from_edges(n, &both)
    }

    /// Parallel [`symmetrized`](Self::symmetrized): the doubled edge list is
    /// sorted with the runtime's deterministic parallel stable sort (ties
    /// are equal pairs, so stable and unstable orders coincide), deduped,
    /// and built with [`from_edges_parallel`](Self::from_edges_parallel).
    /// Byte-identical to the sequential version for every thread count.
    pub fn symmetrized_parallel(n: usize, edges: &[(NodeId, NodeId)], threads: usize) -> Self {
        let mut both = symmetric_closure(edges);
        parallel_sort_by_key(&mut both, threads, |&pair| pair);
        both.dedup();
        Self::from_edges_parallel(n, &both, threads)
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

    /// Out-neighbors of `v`, in edge-insertion order.
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
        let lo = self.offsets[v as usize] as usize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` is a hint and cannot fault; the pointer is
        // computed with `wrapping_add`, so even the empty-tail-row case
        // (lo == targets.len()) involves no out-of-bounds arithmetic UB.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                self.targets.as_ptr().wrapping_add(lo) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = lo;
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
