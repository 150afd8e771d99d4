//! Residual flow networks for preflow-push.
//!
//! Preflow-push operates on a residual graph: every directed edge carries a
//! mutable residual capacity, and pushing along an edge increases the
//! capacity of its paired reverse edge. [`FlowNetwork`] stores the topology
//! in CSR form with an explicit reverse-edge index, and the residual
//! capacities in one shared atomic array (mutated only under abstract locks
//! or in the sequential baseline).

use crate::csr::NodeId;
use crate::gen::{counter_stream, row_ends};
use galois_runtime::pool::{chunk_range, run_partitioned};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicI64, Ordering};

/// Writes node `s`'s `degree` capacitated out-edges from its counter
/// stream: an unbiased distinct-from-self target, then a capacity in
/// `1..=max_cap`.
#[inline]
fn fill_random_node(
    out: &mut [(NodeId, NodeId, i64)],
    n: usize,
    s: NodeId,
    max_cap: i64,
    seed: u64,
) {
    let mut rng = counter_stream(seed, s as u64);
    for slot in out.iter_mut() {
        let mut t = rng.random_range(0..(n - 1) as NodeId);
        if t >= s {
            t += 1;
        }
        *slot = (s, t, rng.random_range(1..=max_cap));
    }
}

/// A directed flow network with paired residual edges.
#[derive(Debug)]
pub struct FlowNetwork {
    offsets: Vec<u64>,
    /// Edge targets.
    targets: Vec<NodeId>,
    /// Index of each edge's reverse edge.
    reverse: Vec<u32>,
    /// Residual capacities (mutable during a max-flow run).
    residual: Vec<AtomicI64>,
    /// Original capacities (for verification and reset).
    capacity: Vec<i64>,
    source: NodeId,
    sink: NodeId,
}

impl FlowNetwork {
    /// Builds a network from capacitated directed edges.
    ///
    /// For every input edge a residual reverse edge of capacity 0 is added.
    /// Parallel edges are allowed (they stay distinct).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, a capacity is negative, or
    /// `source == sink`.
    pub fn from_edges(
        n: usize,
        edges: &[(NodeId, NodeId, i64)],
        source: NodeId,
        sink: NodeId,
    ) -> Self {
        assert!((source as usize) < n && (sink as usize) < n);
        assert_ne!(source, sink, "source and sink must differ");
        // Each input edge becomes a forward/backward pair.
        let mut all: Vec<(NodeId, NodeId, i64, usize)> = Vec::with_capacity(edges.len() * 2);
        for (i, &(s, t, c)) in edges.iter().enumerate() {
            assert!(
                (s as usize) < n && (t as usize) < n,
                "edge {i} out of range"
            );
            assert!(c >= 0, "negative capacity on edge {i}");
            all.push((s, t, c, 2 * i));
            all.push((t, s, 0, 2 * i + 1));
        }
        let m = all.len();
        let mut degree = vec![0u64; n];
        for &(s, ..) in &all {
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0u64);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; m];
        let mut capacity = vec![0i64; m];
        // pair_slot[2i] / pair_slot[2i+1] record where each half landed.
        let mut pair_slot = vec![0u32; m];
        for &(s, t, c, pair) in &all {
            let slot = cursor[s as usize] as usize;
            cursor[s as usize] += 1;
            targets[slot] = t;
            capacity[slot] = c;
            pair_slot[pair] = slot as u32;
        }
        let mut reverse = vec![0u32; m];
        for i in 0..edges.len() {
            let fwd = pair_slot[2 * i];
            let bwd = pair_slot[2 * i + 1];
            reverse[fwd as usize] = bwd;
            reverse[bwd as usize] = fwd;
        }
        let residual = capacity.iter().map(|&c| AtomicI64::new(c)).collect();
        FlowNetwork {
            offsets,
            targets,
            reverse,
            residual,
            capacity,
            source,
            sink,
        }
    }

    /// The capacitated edge list behind [`random`](Self::random): each node
    /// draws its `degree` (target, capacity) pairs from its own counter
    /// stream (`seed ⊕ node id`, see [`crate::gen::counter_stream`]), with
    /// the unbiased distinct-from-self target draw. Sequential oracle for
    /// [`random_edges_parallel`](Self::random_edges_parallel).
    pub fn random_edges(
        n: usize,
        degree: usize,
        max_cap: i64,
        seed: u64,
    ) -> Vec<(NodeId, NodeId, i64)> {
        assert!(n >= 2);
        let mut edges = vec![(0 as NodeId, 0 as NodeId, 0i64); n * degree];
        for s in 0..n {
            fill_random_node(
                &mut edges[s * degree..(s + 1) * degree],
                n,
                s as NodeId,
                max_cap,
                seed,
            );
        }
        edges
    }

    /// Parallel [`random_edges`](Self::random_edges): nodes fanned over
    /// `threads` threads, byte-identical output for any thread count.
    pub fn random_edges_parallel(
        n: usize,
        degree: usize,
        max_cap: i64,
        seed: u64,
        threads: usize,
    ) -> Vec<(NodeId, NodeId, i64)> {
        assert!(n >= 2);
        let threads = threads.clamp(1, (n * degree).div_ceil(8192).max(1));
        if threads == 1 {
            return Self::random_edges(n, degree, max_cap, seed);
        }
        let mut edges = vec![(0 as NodeId, 0 as NodeId, 0i64); n * degree];
        run_partitioned(&mut edges, &row_ends(n, degree, threads), |tid, rows| {
            for (s, row) in chunk_range(n, threads, tid).zip(rows.chunks_mut(degree)) {
                fill_random_node(row, n, s as NodeId, max_cap, seed);
            }
        });
        edges
    }

    /// The paper's pfp input: a random graph of `n` nodes with `degree`
    /// random neighbors each, random capacities in `1..=max_cap`, node 0 as
    /// source and node `n-1` as sink (§4.2, scaled).
    pub fn random(n: usize, degree: usize, max_cap: i64, seed: u64) -> Self {
        let edges = Self::random_edges(n, degree, max_cap, seed);
        Self::from_edges(n, &edges, 0, (n - 1) as NodeId)
    }

    /// [`random`](Self::random) with parallel edge generation. The network
    /// itself is identical for any thread count (the residual-graph build
    /// is shared with the sequential path).
    pub fn random_parallel(
        n: usize,
        degree: usize,
        max_cap: i64,
        seed: u64,
        threads: usize,
    ) -> Self {
        let edges = Self::random_edges_parallel(n, degree, max_cap, seed, threads);
        Self::from_edges(n, &edges, 0, (n - 1) as NodeId)
    }

    /// A layered RMF network (Goldberg's washington-RMF family, the
    /// standard hard instance class for push-relabel): `frames` square
    /// grids of side `a`, unit-ish capacities inside a frame, random
    /// capacities between consecutive frames; source in the first frame,
    /// sink in the last. Scaled-down random k-out graphs have tiny diameter
    /// and starve preflow-push of work; RMF keeps the per-node discharge
    /// density of the paper's full-size input (see DESIGN.md).
    pub fn rmf(a: usize, frames: usize, max_cap: i64, seed: u64) -> Self {
        assert!(a >= 2 && frames >= 2);
        let per = a * a;
        let n = per * frames;
        let id = |f: usize, x: usize, y: usize| (f * per + y * a + x) as NodeId;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges: Vec<(NodeId, NodeId, i64)> = Vec::new();
        let in_frame_cap = max_cap * (a as i64) * (a as i64);
        for f in 0..frames {
            for y in 0..a {
                for x in 0..a {
                    // 4-neighbor connections within the frame, both ways.
                    if x + 1 < a {
                        edges.push((id(f, x, y), id(f, x + 1, y), in_frame_cap));
                        edges.push((id(f, x + 1, y), id(f, x, y), in_frame_cap));
                    }
                    if y + 1 < a {
                        edges.push((id(f, x, y), id(f, x, y + 1), in_frame_cap));
                        edges.push((id(f, x, y + 1), id(f, x, y), in_frame_cap));
                    }
                    // One random connection to the next frame.
                    if f + 1 < frames {
                        let tx = rng.random_range(0..a);
                        let ty = rng.random_range(0..a);
                        edges.push((
                            id(f, x, y),
                            id(f + 1, tx, ty),
                            rng.random_range(1..=max_cap),
                        ));
                    }
                }
            }
        }
        Self::from_edges(n, &edges, id(0, 0, 0), id(frames - 1, a - 1, a - 1))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of residual edges (2× the input edges).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Range of edge indices leaving `v`.
    pub fn edge_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Target of edge `e`.
    pub fn edge_target(&self, e: usize) -> NodeId {
        self.targets[e]
    }

    /// Index of the reverse of edge `e`.
    pub fn reverse_edge(&self, e: usize) -> usize {
        self.reverse[e] as usize
    }

    /// Original capacity of edge `e` (zero for generated reverse edges).
    pub fn capacity_of(&self, e: usize) -> i64 {
        self.capacity[e]
    }

    /// Residual capacity of edge `e` (relaxed read).
    #[inline]
    pub fn residual(&self, e: usize) -> i64 {
        self.residual[e].load(Ordering::Relaxed)
    }

    /// Pushes `delta` units along edge `e` (caller holds abstract locks on
    /// both endpoints, or runs sequentially).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the push exceeds the residual capacity.
    #[inline]
    pub fn push_flow(&self, e: usize, delta: i64) {
        debug_assert!(delta > 0 && delta <= self.residual(e));
        let r = self.reverse[e] as usize;
        self.residual[e].fetch_sub(delta, Ordering::Relaxed);
        self.residual[r].fetch_add(delta, Ordering::Relaxed);
    }

    /// Net flow currently assigned to edge `e` (capacity − residual).
    pub fn flow_on(&self, e: usize) -> i64 {
        self.capacity[e] - self.residual(e)
    }

    /// Resets all residual capacities to the original capacities.
    pub fn reset(&self) {
        for (slot, &c) in self.residual.iter().zip(self.capacity.iter()) {
            slot.store(c, Ordering::Relaxed);
        }
    }

    /// Verifies flow conservation and capacity constraints; returns the flow
    /// value if valid.
    pub fn verify_flow(&self) -> Result<i64, String> {
        let n = self.num_nodes();
        let mut net = vec![0i64; n];
        for v in 0..n as NodeId {
            for e in self.edge_range(v) {
                let f = self.flow_on(e);
                if self.residual(e) < 0 {
                    return Err(format!("negative residual on edge {e}"));
                }
                // A pushed unit appears as +f on the forward edge and -f on
                // its reverse; counting only the positive side counts each
                // unit of flow once.
                if f > 0 {
                    net[v as usize] -= f;
                    net[self.targets[e] as usize] += f;
                }
            }
        }
        for (v, &balance) in net.iter().enumerate() {
            if v != self.source as usize && v != self.sink as usize && balance != 0 {
                return Err(format!("conservation violated at node {v}: net {balance}"));
            }
        }
        if net[self.source as usize] != -net[self.sink as usize] {
            return Err("source/sink imbalance".into());
        }
        Ok(net[self.sink as usize])
    }

    /// Max-flow by Edmonds–Karp (reference for verification; O(V·E²)).
    ///
    /// Runs on the *current* residual state; call [`reset`](Self::reset)
    /// first for a from-scratch computation.
    pub fn edmonds_karp(&self) -> i64 {
        let n = self.num_nodes();
        let mut total = 0i64;
        loop {
            // BFS for an augmenting path in the residual graph.
            let mut pred: Vec<Option<usize>> = vec![None; n];
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(self.source);
            pred[self.source as usize] = Some(usize::MAX);
            while let Some(v) = queue.pop_front() {
                for e in self.edge_range(v) {
                    let t = self.targets[e] as usize;
                    if pred[t].is_none() && self.residual(e) > 0 {
                        pred[t] = Some(e);
                        queue.push_back(t as NodeId);
                    }
                }
            }
            let Some(_) = pred[self.sink as usize] else {
                break;
            };
            // Find the bottleneck.
            let mut bottleneck = i64::MAX;
            let mut v = self.sink as usize;
            while v != self.source as usize {
                let e = pred[v].unwrap();
                bottleneck = bottleneck.min(self.residual(e));
                v = self.source_of(e);
            }
            // Augment.
            let mut v = self.sink as usize;
            while v != self.source as usize {
                let e = pred[v].unwrap();
                self.push_flow(e, bottleneck);
                v = self.source_of(e);
            }
            total += bottleneck;
        }
        total
    }

    fn source_of(&self, e: usize) -> usize {
        // Largest v with offsets[v] <= e; duplicates from empty adjacency
        // lists are skipped by taking the partition point.
        self.offsets.partition_point(|&o| o <= e as u64) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> FlowNetwork {
        // 0 -> {1,2} -> 3, classic diamond with bottleneck 3+2.
        FlowNetwork::from_edges(
            4,
            &[(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3), (1, 2, 5)],
            0,
            3,
        )
    }

    #[test]
    fn reverse_edges_pair_up() {
        let net = diamond();
        for e in 0..net.num_edges() {
            let r = net.reverse_edge(e);
            assert_eq!(net.reverse_edge(r), e);
            assert_ne!(r, e);
        }
    }

    #[test]
    fn edmonds_karp_on_diamond() {
        let net = diamond();
        let flow = net.edmonds_karp();
        // 0→1→3 (2) + 0→2→3 (2) + 0→1→2→3 (1): min cut at the sink is 5.
        assert_eq!(flow, 5);
        assert_eq!(net.verify_flow().unwrap(), 5);
    }

    #[test]
    fn push_flow_updates_residual_pair() {
        let net = diamond();
        let e = net.edge_range(0).next().unwrap();
        let before = net.residual(e);
        net.push_flow(e, 1);
        assert_eq!(net.residual(e), before - 1);
        assert_eq!(net.residual(net.reverse_edge(e)), 1);
        assert_eq!(net.flow_on(e), 1);
    }

    #[test]
    fn reset_restores_capacities() {
        let net = diamond();
        net.edmonds_karp();
        net.reset();
        assert_eq!(net.verify_flow().unwrap(), 0);
        assert_eq!(net.edmonds_karp(), 5);
    }

    #[test]
    fn random_network_flow_is_verified() {
        let net = FlowNetwork::random(64, 4, 100, 11);
        let flow = net.edmonds_karp();
        assert!(flow > 0, "random 4-out network should have s-t flow");
        assert_eq!(net.verify_flow().unwrap(), flow);
    }

    #[test]
    fn random_is_deterministic() {
        let a = FlowNetwork::random(32, 3, 50, 5);
        let b = FlowNetwork::random(32, 3, 50, 5);
        assert_eq!(a.edmonds_karp(), b.edmonds_karp());
    }

    #[test]
    fn parallel_random_edges_are_thread_count_invariant() {
        // 20 000 x 4 clears the sequential-fallback clamp.
        for n in [300, 20_000] {
            let seq = FlowNetwork::random_edges(n, 4, 75, 17);
            for threads in [1, 2, 3, 5, 8, 16] {
                assert_eq!(
                    FlowNetwork::random_edges_parallel(n, 4, 75, 17, threads),
                    seq,
                    "flow edges (n={n}) diverged at {threads} threads"
                );
            }
        }
        // The built networks agree on everything observable.
        let a = FlowNetwork::random(300, 4, 75, 17);
        let b = FlowNetwork::random_parallel(300, 4, 75, 17, 8);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edmonds_karp(), b.edmonds_karp());
    }

    #[test]
    fn random_has_no_self_loops_and_exact_degree() {
        let edges = FlowNetwork::random_edges(64, 4, 10, 3);
        assert_eq!(edges.len(), 64 * 4);
        for &(s, t, c) in &edges {
            assert_ne!(s, t);
            assert!((1..=10).contains(&c));
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_source_sink_panics() {
        let _ = FlowNetwork::from_edges(2, &[(0, 1, 1)], 0, 0);
    }

    #[test]
    fn rmf_network_is_consistent_and_has_flow() {
        let net = FlowNetwork::rmf(4, 5, 20, 7);
        assert_eq!(net.num_nodes(), 4 * 4 * 5);
        let flow = net.edmonds_karp();
        assert!(flow > 0);
        assert_eq!(net.verify_flow().unwrap(), flow);
        // Min cut is between frames: at most per-frame nodes * max_cap.
        assert!(flow <= 16 * 20);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let net = FlowNetwork::from_edges(3, &[(0, 1, 5)], 0, 2);
        assert_eq!(net.edmonds_karp(), 0);
    }
}
