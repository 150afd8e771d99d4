//! Maximal independent set.
//!
//! Input per §4.2: the symmetrized uniform random graph. The Lonestar
//! algorithm is a greedy MIS — each node joins the set unless a neighbor
//! already did — which is *non-deterministic*: the resulting set depends on
//! processing order. The PBBS comparator computes the lexicographically
//! first MIS deterministically (§4.1 notes it is data-parallel).

use galois_core::{Ctx, ExecError, Executor, Hooks, MarkTable, OpResult, RunReport};
use galois_graph::csr::NodeId;
use galois_graph::{AtomicArray, CsrGraph};
use pbbs_det::{speculative_for, SpecForStats, Step};

/// Node states in the `flags` output array.
pub mod state {
    /// Not yet decided (only observable mid-run).
    pub const UNDECIDED: u32 = 0;
    /// In the independent set.
    pub const IN: u32 = 1;
    /// Out of the set (a neighbor is in).
    pub const OUT: u32 = 2;
}

/// Sequential greedy MIS in node order — the lexicographically first MIS.
pub fn seq(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut flags = vec![state::UNDECIDED; n];
    for v in 0..n {
        if flags[v] == state::UNDECIDED {
            flags[v] = state::IN;
            for &w in g.neighbors(v as NodeId) {
                flags[w as usize] = state::OUT;
            }
        }
    }
    // Normalize: nodes never touched are IN-eligible singletons... they were
    // all visited above, so every node is IN or OUT here.
    flags
}

/// The shared Galois operator (greedy MIS; one task per node, no pushes).
///
/// Under [`galois_core::Schedule::Speculative`] this is the non-deterministic
/// Lonestar `mis`; under [`galois_core::Schedule::Deterministic`] (with node
/// ids as pre-assigned priorities, §3.3) the committed order — and therefore
/// the set — is deterministic.
///
/// This is [`run`] with empty [`Hooks`]. Operator panics, livelocks and
/// quarantine overflows come back as [`ExecError`] instead of unwinding;
/// under the deterministic schedule the error is byte-identical at any
/// thread count.
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
    let n = g.num_nodes();
    let flags = AtomicArray::new_filled(n, state::UNDECIDED);
    let marks = MarkTable::new(n);
    let op = |t: &NodeId, ctx: &mut Ctx<'_, NodeId>| -> OpResult {
        let v = *t;
        ctx.acquire(v)?;
        // Hoist the row: one offsets lookup serves both the acquire loop and
        // the membership fold.
        let row = g.neighbors(v);
        for &w in row {
            ctx.acquire(w)?;
        }
        ctx.failsafe()?;
        // Branch-light `|=` fold instead of a short-circuiting `any`: rows
        // are short and the IN hit rate is data-dependent, so the
        // unpredictable early-exit branch costs more than the few extra
        // flag loads it saves.
        let mut any_in = false;
        for &w in row {
            any_in |= flags.get(w as usize) == state::IN;
        }
        flags.set(v as usize, if any_in { state::OUT } else { state::IN });
        Ok(())
    };
    let tasks: Vec<NodeId> = g.nodes().collect();
    let report = exec
        .iterate(tasks)
        .with_ids(|v| *v as u64, n)
        .hooks(hooks)
        .try_run(&marks, &op)?;
    Ok((flags.snapshot(), report))
}

/// Handwritten deterministic MIS (PBBS style): computes the
/// lexicographically first MIS with deterministic reservations — node `v`
/// decides once every smaller-id neighbor has decided.
pub fn pbbs(g: &CsrGraph, threads: usize, record_trace: bool) -> (Vec<u32>, SpecForStats) {
    let step = MisStep::new(g);
    let stats = speculative_for(&step, 0, g.num_nodes() as u64, threads, 25, record_trace);
    (step.flags.snapshot(), stats)
}

/// [`pbbs`]'s step. `reserve` reads only flags that earlier rounds
/// committed — no flag changes during it — and writes node `v`'s verdict to
/// `decision[v]`: the sequential rule, IN iff no smaller neighbor is IN,
/// once every smaller neighbor has decided, else UNDECIDED (retry next
/// round). `commit` only applies the verdict, so how a round's commits
/// interleave changes neither its outcome nor the run's counters.
struct MisStep<'a> {
    g: &'a CsrGraph,
    flags: AtomicArray,
    decision: AtomicArray,
}

impl<'a> MisStep<'a> {
    fn new(g: &'a CsrGraph) -> Self {
        let n = g.num_nodes();
        MisStep {
            g,
            flags: AtomicArray::new_filled(n, state::UNDECIDED),
            decision: AtomicArray::new_filled(n, state::UNDECIDED),
        }
    }
}

impl Step for MisStep<'_> {
    fn reserve(&self, i: u64) -> bool {
        let v = i as u32;
        let mut verdict = state::IN;
        for &w in self.g.neighbors(v).iter().filter(|&&w| w < v) {
            match self.flags.get(w as usize) {
                state::UNDECIDED => {
                    verdict = state::UNDECIDED;
                    break;
                }
                state::IN => verdict = state::OUT,
                _ => {}
            }
        }
        self.decision.set(v as usize, verdict);
        true
    }

    fn commit(&self, i: u64) -> bool {
        let verdict = self.decision.get(i as usize);
        if verdict != state::UNDECIDED {
            self.flags.set(i as usize, verdict);
        }
        verdict != state::UNDECIDED
    }
}

/// Verifies independence and maximality.
pub fn verify(g: &CsrGraph, flags: &[u32]) -> Result<(), String> {
    for v in g.nodes() {
        match flags[v as usize] {
            state::IN => {
                for &w in g.neighbors(v) {
                    if flags[w as usize] == state::IN {
                        return Err(format!("adjacent nodes {v} and {w} both IN"));
                    }
                }
            }
            state::OUT => {
                if !g
                    .neighbors(v)
                    .iter()
                    .any(|&w| flags[w as usize] == state::IN)
                {
                    return Err(format!("node {v} is OUT with no IN neighbor"));
                }
            }
            other => return Err(format!("node {v} undecided ({other})")),
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
        gen::uniform_random_undirected(400, 4, 77)
    }

    #[test]
    fn pbbs_retry_set_is_independent_of_commit_order() {
        // One round over every node, its commits on one thread in index
        // order and then in reverse: the same nodes must ask to retry.
        let g = graph();
        let n = g.num_nodes() as u64;
        let retries = |order: &mut dyn Iterator<Item = u64>| {
            let step = MisStep::new(&g);
            (0..n).for_each(|i| assert!(step.reserve(i)));
            let mut retry: Vec<u64> = order.filter(|&i| !step.commit(i)).collect();
            retry.sort_unstable();
            retry
        };
        let forward = retries(&mut (0..n));
        assert!(!forward.is_empty());
        assert_eq!(forward, retries(&mut (0..n).rev()));
    }

    #[test]
    fn sequential_is_valid_and_lexicographic() {
        let g = graph();
        let flags = seq(&g);
        verify(&g, &flags).unwrap();
        // Node 0 always joins the lexicographically first MIS.
        assert_eq!(flags[0], state::IN);
    }

    #[test]
    fn speculative_is_valid_any_thread_count() {
        let g = graph();
        for threads in [1usize, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::Speculative);
            let (flags, report) = try_galois(&g, &exec).unwrap();
            verify(&g, &flags).unwrap();
            assert_eq!(report.stats.committed, 400);
        }
    }

    #[test]
    fn deterministic_is_valid_and_portable() {
        let g = graph();
        let mut prev: Option<Vec<u32>> = None;
        for threads in [1usize, 2, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::deterministic());
            let (flags, _) = try_galois(&g, &exec).unwrap();
            verify(&g, &flags).unwrap();
            if let Some(p) = &prev {
                assert_eq!(
                    &flags, p,
                    "deterministic MIS changed with {threads} threads"
                );
            }
            prev = Some(flags);
        }
    }

    #[test]
    fn pbbs_matches_sequential_lexicographic_mis() {
        let g = graph();
        let expect = seq(&g);
        for threads in [1usize, 3] {
            let (flags, stats) = pbbs(&g, threads, false);
            assert_eq!(flags, expect, "threads={threads}");
            assert_eq!(stats.committed, 400);
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = CsrGraph::from_edges(1, &[]);
        let (flags, _) = pbbs(&g, 2, false);
        assert_eq!(flags, vec![state::IN]);
        let exec = Executor::new().schedule(Schedule::deterministic());
        let (flags, _) = try_galois(&g, &exec).unwrap();
        assert_eq!(flags, vec![state::IN]);
    }

    #[test]
    fn path_graph_alternates() {
        // 0-1-2-3-4 path: lexicographic MIS = {0, 2, 4}.
        let g = CsrGraph::symmetrized(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let flags = seq(&g);
        assert_eq!(
            flags,
            vec![state::IN, state::OUT, state::IN, state::OUT, state::IN]
        );
        let (pbbs_flags, _) = pbbs(&g, 2, false);
        assert_eq!(pbbs_flags, flags);
    }
}
