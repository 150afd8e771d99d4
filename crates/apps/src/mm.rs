//! Maximal matching (extension).
//!
//! The paper's benchmark selection excludes maximal matching "because of its
//! similarity to maximal independent set" (§4.1); it is included here as an
//! extension exercising a different conflict shape: a task locks an *edge's
//! two endpoints*, so conflicts follow the line graph rather than the vertex
//! neighborhood.
//!
//! - **seq**: greedy matching in edge order (the lexicographically first
//!   maximal matching).
//! - **g-n / g-d**: one Galois operator over edges; endpoints are the
//!   neighborhood.
//! - **pbbs**: deterministic reservations over edges with edge-index
//!   priorities — exactly the sequential greedy outcome, in parallel.

use galois_core::{Ctx, ExecError, Executor, Hooks, MarkTable, OpResult, RunReport};
use galois_graph::csr::NodeId;
use galois_graph::{AtomicArray, CsrGraph};
use pbbs_det::{speculative_for, SpecForStats, Step};

/// Sentinel for "unmatched".
pub const UNMATCHED: u32 = u32::MAX;

/// Collects each undirected edge once (u < v), in deterministic order.
pub fn edge_list(g: &CsrGraph) -> Vec<(NodeId, NodeId)> {
    // On a symmetrized graph exactly half the arcs satisfy u < v; reserving
    // up front turns the growth reallocations into a single allocation.
    let mut edges = Vec::with_capacity(g.num_edges() / 2 + 1);
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Sequential greedy matching in edge order. Returns `mate[v]`.
pub fn seq(g: &CsrGraph) -> Vec<u32> {
    let mut mate = vec![UNMATCHED; g.num_nodes()];
    for (u, v) in edge_list(g) {
        if mate[u as usize] == UNMATCHED && mate[v as usize] == UNMATCHED {
            mate[u as usize] = v;
            mate[v as usize] = u;
        }
    }
    mate
}

/// The shared Galois operator: task = edge, neighborhood = its endpoints.
///
/// This is [`run`] with empty [`Hooks`]. Operator panics, livelocks and
/// quarantine overflows come back as [`ExecError`] instead of unwinding.
pub fn try_galois(g: &CsrGraph, exec: &Executor) -> Result<(Vec<u32>, RunReport), ExecError> {
    run(g, exec, Hooks::default())
}

/// [`try_galois`] with the caller's observers attached (per-round probe,
/// record/replay recorder); neither changes the executed schedule.
pub fn run(
    g: &CsrGraph,
    exec: &Executor,
    hooks: Hooks<'_>,
) -> Result<(Vec<u32>, RunReport), ExecError> {
    let mate = AtomicArray::new_filled(g.num_nodes(), UNMATCHED);
    let marks = MarkTable::new(g.num_nodes());
    let edges = edge_list(g);
    let op = |t: &(NodeId, NodeId), ctx: &mut Ctx<'_, (NodeId, NodeId)>| -> OpResult {
        let (u, v) = *t;
        ctx.acquire(u)?;
        ctx.acquire(v)?;
        ctx.failsafe()?;
        if mate.get(u as usize) == UNMATCHED && mate.get(v as usize) == UNMATCHED {
            mate.set(u as usize, v);
            mate.set(v as usize, u);
        }
        Ok(())
    };
    let report = exec.iterate(edges).hooks(hooks).try_run(&marks, &op)?;
    Ok((mate.snapshot(), report))
}

/// Handwritten deterministic matching (PBBS style): edges reserve both
/// endpoints with their edge index; winners match, losers retry, and an
/// edge with an endpoint matched in an earlier round drops at reserve.
pub fn pbbs(g: &CsrGraph, threads: usize, record_trace: bool) -> (Vec<u32>, SpecForStats) {
    struct MatchStep {
        mate: AtomicArray,
        r: pbbs_det::Reservations,
    }
    impl Step for MatchStep {
        type Item = (NodeId, NodeId);
        type Plan = ();
        fn prefix(&self, remaining: usize, _done: u64) -> usize {
            remaining.div_ceil(25)
        }
        fn reserve(&self, i: u64, (u, v): (NodeId, NodeId)) -> Option<()> {
            if self.mate.get(u as usize) != UNMATCHED || self.mate.get(v as usize) != UNMATCHED {
                return None; // an endpoint is already matched: drop
            }
            self.r.reserve(u as usize, i);
            self.r.reserve(v as usize, i);
            Some(())
        }
        fn priority_writes(&self, _: &()) -> u64 {
            2
        }
        fn commit(
            &self,
            i: u64,
            (u, v): (NodeId, NodeId),
            _: (),
            _: &mut Vec<(NodeId, NodeId)>,
        ) -> bool {
            let won_u = self.r.check(u as usize, i);
            let won_v = self.r.check(v as usize, i);
            if won_u && won_v {
                self.mate.set(u as usize, v);
                self.mate.set(v as usize, u);
            }
            // Free whatever we hold. A loser always retries: `mate` is being
            // written by this phase's winners, so reading it here would make
            // the retry decision depend on the thread interleaving. Next
            // round's reserve() sees only earlier rounds' matches and drops
            // the edge there if an endpoint got matched.
            self.r.check_reset(u as usize, i);
            self.r.check_reset(v as usize, i);
            won_u && won_v
        }
    }

    let step = MatchStep {
        mate: AtomicArray::new_filled(g.num_nodes(), UNMATCHED),
        r: pbbs_det::Reservations::new(g.num_nodes()),
    };
    let stats = speculative_for(&step, edge_list(g), threads, record_trace);
    (step.mate.snapshot(), stats)
}

/// Verifies the matching is valid (symmetric, edges exist) and maximal
/// (no edge joins two unmatched nodes).
pub fn verify(g: &CsrGraph, mate: &[u32]) -> Result<(), String> {
    for v in g.nodes() {
        let m = mate[v as usize];
        if m != UNMATCHED {
            if m as usize >= mate.len() {
                return Err(format!("mate[{v}] = {m} out of range"));
            }
            if mate[m as usize] != v {
                return Err(format!("matching not symmetric at {v} <-> {m}"));
            }
            if !g.neighbors(v).contains(&m) {
                return Err(format!("matched pair ({v},{m}) is not an edge"));
            }
        }
    }
    for (u, v) in edge_list(g) {
        if mate[u as usize] == UNMATCHED && mate[v as usize] == UNMATCHED {
            return Err(format!("edge ({u},{v}) joins two unmatched nodes"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_core::Schedule;
    use galois_graph::gen;

    fn graph() -> CsrGraph {
        gen::uniform_random_undirected(500, 4, 91)
    }

    #[test]
    fn sequential_greedy_is_valid() {
        let g = graph();
        verify(&g, &seq(&g)).unwrap();
    }

    #[test]
    fn speculative_valid_any_threads() {
        let g = graph();
        for threads in [1usize, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::Speculative);
            let (mate, report) = try_galois(&g, &exec).unwrap();
            verify(&g, &mate).unwrap();
            assert_eq!(report.stats.committed as usize, edge_list(&g).len());
        }
    }

    #[test]
    fn deterministic_portable() {
        let g = graph();
        let mut prev: Option<Vec<u32>> = None;
        for threads in [1usize, 2, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::deterministic());
            let (mate, _) = try_galois(&g, &exec).unwrap();
            verify(&g, &mate).unwrap();
            if let Some(p) = &prev {
                assert_eq!(&mate, p, "matching changed at {threads} threads");
            }
            prev = Some(mate);
        }
    }

    #[test]
    fn pbbs_matches_sequential_greedy() {
        let g = graph();
        let expect = seq(&g);
        for threads in [1usize, 3] {
            let (mate, _) = pbbs(&g, threads, false);
            assert_eq!(mate, expect, "threads={threads}");
        }
    }

    #[test]
    fn path_graph_matches_alternating() {
        // 0-1-2-3: greedy matches (0,1) and (2,3).
        let g = CsrGraph::symmetrized(4, &[(0, 1), (1, 2), (2, 3)]);
        let mate = seq(&g);
        assert_eq!(mate, vec![1, 0, 3, 2]);
        let (p, _) = pbbs(&g, 2, false);
        assert_eq!(p, mate);
    }

    #[test]
    fn triangle_leaves_one_unmatched() {
        let g = CsrGraph::symmetrized(3, &[(0, 1), (1, 2), (0, 2)]);
        let mate = seq(&g);
        assert_eq!(mate, vec![1, 0, UNMATCHED]);
        verify(&g, &mate).unwrap();
    }
}
