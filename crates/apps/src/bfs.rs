//! Breadth-first search labelling.
//!
//! Computes hop distances from a source. Input per §4.2: a uniform random
//! graph where every node has `k` random out-neighbors.
//!
//! - **seq**: queue-based sequential BFS (stand-in for the Schardl–Leiserson
//!   baseline of Figure 8).
//! - **g-n / g-d**: one data-driven Galois operator — task `(v, d)` lowers
//!   `dist[v]` to `d` under `v`'s abstract lock and creates `(w, d+1)` for
//!   each out-neighbor. The distance map converges to true BFS distances
//!   under any schedule; the *work and schedule* are what differ between
//!   speculative and DIG execution.
//! - **pbbs**: handwritten deterministic level-synchronous BFS with
//!   priority-write parent selection (deterministic BFS tree).

use galois_core::{
    Ctx, ExecError, Executor, Hooks, MarkTable, OpResult, Probe, RoundLog, RoundRecord, RunReport,
};
use galois_graph::csr::NodeId;
use galois_graph::{AtomicArray, CsrGraph};
use galois_runtime::pool::{chunk_ends, chunk_range, run_on_threads, run_partitioned};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unreached-node label.
pub const INFINITY: u32 = u32::MAX;

/// Sequential BFS (the Figure 8 baseline). Returns hop distances.
pub fn seq(g: &CsrGraph, source: NodeId) -> Vec<u32> {
    g.bfs_distances(source)
}

/// The shared Galois operator, run under whichever schedule `exec` selects
/// with no observers attached: [`run`] with empty [`Hooks`].
///
/// Returns the distance array and the run report. Use an executor with
/// [`galois_core::Schedule::Speculative`] for `g-n` or
/// [`galois_core::Schedule::Deterministic`] for `g-d`. Operator panics,
/// livelocks and quarantine overflows come back as [`ExecError`] instead of
/// unwinding; under the deterministic schedule the error is byte-identical
/// at any thread count.
pub fn try_galois(
    g: &CsrGraph,
    source: NodeId,
    exec: &Executor,
) -> Result<(Vec<u32>, RunReport), ExecError> {
    run(g, source, exec, Hooks::default())
}

/// [`try_galois`] with the caller's observers attached: a probe sees
/// per-round records (window, commit counts, phase timings), a recorder
/// captures or replay-verifies the canonical hash chain. Neither changes the
/// executed schedule.
pub fn run(
    g: &CsrGraph,
    source: NodeId,
    exec: &Executor,
    hooks: Hooks<'_>,
) -> Result<(Vec<u32>, RunReport), ExecError> {
    let n = g.num_nodes();
    let dist = AtomicArray::new_filled(n, INFINITY);
    let marks = MarkTable::new(n);
    let op = |t: &(NodeId, u32), ctx: &mut Ctx<'_, (NodeId, u32)>| -> OpResult {
        let (v, d) = *t;
        ctx.acquire(v)?;
        // Start pulling v's neighbor row while the label check and failsafe
        // run; the push loop below is the row's first real use.
        g.prefetch_row(v);
        if dist.get(v as usize) <= d {
            // Already labelled at least as well; nothing to write.
            return ctx.failsafe();
        }
        ctx.failsafe()?;
        dist.set(v as usize, d);
        // Push unconditionally: filtering on neighbors' (unlocked) labels
        // would make the created-task set schedule-dependent, breaking
        // determinism under DIG scheduling. The label check at task entry
        // prunes stale work instead.
        for &w in g.neighbors(v) {
            ctx.push((w, d + 1));
        }
        Ok(())
    };
    let report = exec
        .iterate(vec![(source, 0)])
        .hooks(hooks)
        .try_run(&marks, &op)?;
    Ok((dist.snapshot(), report))
}

/// Statistics of a PBBS-style run (level-synchronous rounds).
#[derive(Debug, Default, Clone)]
pub struct PbbsBfsStats {
    /// Level-synchronous rounds (= eccentricity of the source).
    pub rounds: u64,
    /// Edge relaxations attempted (atomic priority writes).
    pub atomic_updates: u64,
    /// Nodes labelled.
    pub visited: u64,
    /// The run's rounds, when a trace was requested.
    pub round_log: RoundLog,
}

/// Handwritten deterministic BFS: level-synchronous frontier expansion with
/// min-parent priority writes (the PBBS `deterministicBFS` scheme).
///
/// Returns `(distances, parents, stats)`; `parents[v]` is the *smallest*
/// frontier neighbor that reached `v`, making the BFS tree — not just the
/// distances — identical for every thread count.
pub fn pbbs(
    g: &CsrGraph,
    source: NodeId,
    threads: usize,
    record_trace: bool,
) -> (Vec<u32>, Vec<u32>, PbbsBfsStats) {
    let n = g.num_nodes();
    let dist = AtomicArray::new_filled(n, INFINITY);
    let parent: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let mut stats = PbbsBfsStats::default();
    let mut frontier: Vec<NodeId> = vec![source];
    dist.set(source as usize, 0);
    parent[source as usize].store(source as u64, Ordering::Relaxed);
    stats.visited = 1;
    let mut depth = 0u32;

    while !frontier.is_empty() {
        depth += 1;
        let t0 = record_trace.then(std::time::Instant::now);
        let atomic_count = AtomicU64::new(0);
        // Reserve phase: every frontier vertex priority-writes itself as
        // parent of each unlabelled neighbor; the minimum vertex id wins.
        run_on_threads(threads, |tid| {
            let mut local_atomics = 0;
            for i in chunk_range(frontier.len(), threads, tid) {
                let v = frontier[i];
                // Overlap the next row's cache miss with this row's writes
                // (crossing a chunk boundary just warms a neighbor's line).
                if let Some(&ahead) = frontier.get(i + 1) {
                    g.prefetch_row(ahead);
                }
                for &w in g.neighbors(v) {
                    if dist.get(w as usize) == INFINITY {
                        pbbs_det::priority::write_min(&parent[w as usize], v as u64);
                        local_atomics += 1;
                    }
                }
            }
            atomic_count.fetch_add(local_atomics, Ordering::Relaxed);
        });
        let reserve_ns = t0.map(|t| t.elapsed().as_nanos() as f64);
        let t1 = record_trace.then(std::time::Instant::now);

        // Commit phase: each frontier vertex collects the neighbors it won;
        // flattening in frontier order keeps the next frontier (and hence
        // everything downstream) deterministic.
        let winners: Vec<Vec<NodeId>> = {
            let mut per_v: Vec<Vec<NodeId>> = vec![Vec::new(); frontier.len()];
            let ends = chunk_ends(frontier.len(), threads);
            run_partitioned(&mut per_v, &ends, |tid, won| {
                for (i, mine) in chunk_range(frontier.len(), threads, tid).zip(won) {
                    let v = frontier[i];
                    if let Some(&ahead) = frontier.get(i + 1) {
                        g.prefetch_row(ahead);
                    }
                    for &w in g.neighbors(v) {
                        if dist.get(w as usize) == INFINITY
                            && parent[w as usize].load(Ordering::Acquire) == v as u64
                            && !mine.contains(&w)
                        {
                            mine.push(w);
                        }
                    }
                }
            });
            per_v
        };
        let commit_ns = t1.map(|t| t.elapsed().as_nanos() as f64);
        let t2 = record_trace.then(std::time::Instant::now);
        let mut next: Vec<NodeId> = Vec::new();
        for ws in winners {
            for w in ws {
                dist.set(w as usize, depth);
                next.push(w);
            }
        }
        let serial_ns = t2.map(|t| t.elapsed().as_nanos() as f64).unwrap_or(0.0);

        stats.rounds += 1;
        stats.atomic_updates += atomic_count.load(Ordering::Relaxed);
        stats.visited += next.len() as u64;
        if let (Some(r), Some(c)) = (reserve_ns, commit_ns) {
            // Every frontier vertex commits its winners: nothing retries.
            let n = frontier.len() as u64;
            stats.round_log.on_round(RoundRecord::bulk(
                stats.rounds - 1,
                n,
                n,
                0,
                [r, c, serial_ns],
            ));
        }
        frontier = next;
    }

    let parents = parent
        .iter()
        .map(|p| {
            let v = p.load(Ordering::Relaxed);
            if v == u64::MAX {
                INFINITY
            } else {
                v as u32
            }
        })
        .collect();
    (dist.snapshot(), parents, stats)
}

/// Checks that `dist` equals true BFS distances from `source`.
pub fn verify(g: &CsrGraph, source: NodeId, dist: &[u32]) -> Result<(), String> {
    let expect = g.bfs_distances(source);
    if dist.len() != expect.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            dist.len(),
            expect.len()
        ));
    }
    for (v, (&got, &want)) in dist.iter().zip(expect.iter()).enumerate() {
        if got != want {
            return Err(format!("dist[{v}] = {got}, expected {want}"));
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
        gen::uniform_random(500, 5, 13)
    }

    #[test]
    fn galois_speculative_matches_sequential() {
        let g = graph();
        for threads in [1usize, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::Speculative);
            let (dist, report) = try_galois(&g, 0, &exec).unwrap();
            verify(&g, 0, &dist).unwrap();
            assert!(report.stats.committed >= 500);
        }
    }

    #[test]
    fn galois_deterministic_matches_sequential_and_is_portable() {
        let g = graph();
        let mut prev: Option<(Vec<u32>, u64)> = None;
        for threads in [1usize, 2, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::deterministic());
            let (dist, report) = try_galois(&g, 0, &exec).unwrap();
            verify(&g, 0, &dist).unwrap();
            // Portability: identical schedule statistics at every thread count.
            if let Some((pd, pc)) = &prev {
                assert_eq!(&dist, pd);
                assert_eq!(report.stats.committed, *pc, "schedule changed with threads");
            }
            prev = Some((dist, report.stats.committed));
        }
    }

    #[test]
    fn pbbs_matches_sequential_and_tree_is_deterministic() {
        let g = graph();
        let (d1, p1, s1) = pbbs(&g, 0, 1, false);
        let (d4, p4, _s4) = pbbs(&g, 0, 4, false);
        verify(&g, 0, &d1).unwrap();
        assert_eq!(d1, d4);
        assert_eq!(p1, p4, "BFS tree must be thread-count independent");
        assert!(s1.rounds > 0);
    }

    #[test]
    fn pbbs_parents_are_valid_tree() {
        let g = graph();
        let (dist, parents, _) = pbbs(&g, 0, 2, false);
        for v in 0..dist.len() {
            if dist[v] != INFINITY && v != 0 {
                let p = parents[v] as usize;
                assert_eq!(dist[v], dist[p] + 1, "parent at wrong depth");
                assert!(g.neighbors(p as NodeId).contains(&(v as NodeId)));
            }
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        // Two disconnected components.
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let exec = Executor::new().schedule(Schedule::deterministic());
        let (dist, _) = try_galois(&g, 0, &exec).unwrap();
        assert_eq!(dist, vec![0, 1, INFINITY, INFINITY]);
        let (dist, _, _) = pbbs(&g, 0, 2, false);
        assert_eq!(dist, vec![0, 1, INFINITY, INFINITY]);
    }
}
