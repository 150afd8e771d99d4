//! Preflow-push max-flow with global relabeling (§4.1).
//!
//! Computes the max-flow *value* (phase 1 of push-relabel: all excess that
//! can reach the sink does; excess stranded at height ≥ n is not routed back
//! to the source). Input per §4.2: a random k-out graph with random
//! capacities, source 0, sink n−1.
//!
//! - **seq**: hi_pr-style sequential FIFO push-relabel with periodic global
//!   relabeling (the Goldberg–Tarjan baseline of Figure 8).
//! - **g-n / g-d**: one Galois operator — a task discharges one active node
//!   under locks on the node and its residual neighbors, activating
//!   neighbors by pushing tasks. Executor runs alternate with sequential
//!   global relabeling *bouts* (the global relabeling heuristic of
//!   Cherkassky & Goldberg, the paper's reference 13).

use galois_core::{Ctx, ExecError, Executor, Hooks, MarkTable, OpResult, RunReport};
use galois_graph::csr::NodeId;
use galois_graph::{FlowNetwork, Residual};
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};

/// Shared mutable state of one push-relabel run: per-node heights and
/// excesses, and the run's own residual capacities.
struct PfpState<'n> {
    height: Vec<AtomicU32>,
    excess: Vec<AtomicI64>,
    residual: Residual<'n>,
}

impl<'n> PfpState<'n> {
    fn new(net: &'n FlowNetwork) -> Self {
        let n = net.num_nodes();
        PfpState {
            height: (0..n).map(|_| AtomicU32::new(0)).collect(),
            excess: (0..n).map(|_| AtomicI64::new(0)).collect(),
            residual: Residual::new(net),
        }
    }

    fn h(&self, v: usize) -> u32 {
        self.height[v].load(Ordering::Relaxed)
    }

    fn set_h(&self, v: usize, h: u32) {
        self.height[v].store(h, Ordering::Relaxed);
    }

    fn e(&self, v: usize) -> i64 {
        self.excess[v].load(Ordering::Relaxed)
    }

    fn add_e(&self, v: usize, d: i64) {
        // Under the abstract-lock protocol the owner is exclusive; a plain
        // read-modify-write is safe and cheap.
        self.excess[v].store(self.e(v) + d, Ordering::Relaxed);
    }

    /// Phase 2 ([`drain_excess`]), then the run's result.
    fn finish(self, net: &FlowNetwork) -> MaxFlow<'n> {
        drain_excess(net, &self);
        MaxFlow {
            value: self.e(net.sink() as usize),
            residual: self.residual,
        }
    }
}

/// Exact distance-to-sink relabeling (the global relabeling heuristic).
///
/// BFS from the sink over reversed residual edges; unreachable nodes and the
/// source get height `n` (inactive in phase 1).
fn global_relabel(net: &FlowNetwork, state: &PfpState) {
    let n = net.num_nodes();
    for v in 0..n {
        state.set_h(v, n as u32);
    }
    let sink = net.sink();
    state.set_h(sink as usize, 0);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(sink);
    while let Some(u) = queue.pop_front() {
        let du = state.h(u as usize);
        for e in net.edge_range(u) {
            // Edge x→u is the reverse of edge e: u→x; x steps toward the
            // sink through u iff residual(x→u) > 0.
            let x = net.edge_target(e);
            if x != net.source()
                && state.h(x as usize) == n as u32
                && state.residual.get(net.reverse_edge(e)) > 0
            {
                state.set_h(x as usize, du + 1);
                queue.push_back(x);
            }
        }
    }
    state.set_h(net.source() as usize, n as u32);
}

/// Saturates all source edges (the standard preflow initialization).
fn saturate_source(net: &FlowNetwork, state: &PfpState) {
    let s = net.source();
    for e in net.edge_range(s) {
        let c = state.residual.get(e);
        if c > 0 {
            state.residual.push(e, c);
            state.add_e(net.edge_target(e) as usize, c);
        }
    }
}

/// Phase 2: returns stranded excess (nodes at height ≥ n) to the source by
/// cancelling flow along source→node paths, turning the preflow into a valid
/// flow with the same value. Sequential and deterministic.
fn drain_excess(net: &FlowNetwork, state: &PfpState) {
    let n = net.num_nodes();
    let s = net.source();
    let residual = &state.residual;
    for v in 0..n as NodeId {
        if v == s || v == net.sink() {
            continue;
        }
        while state.e(v as usize) > 0 {
            // BFS from the source along edges carrying positive flow.
            let mut pred: Vec<Option<usize>> = vec![None; n];
            let mut queue = std::collections::VecDeque::new();
            pred[s as usize] = Some(usize::MAX);
            queue.push_back(s);
            'bfs: while let Some(u) = queue.pop_front() {
                for e in net.edge_range(u) {
                    let t = net.edge_target(e);
                    if pred[t as usize].is_none() && residual.flow_on(e) > 0 {
                        pred[t as usize] = Some(e);
                        if t == v {
                            break 'bfs;
                        }
                        queue.push_back(t);
                    }
                }
            }
            let Some(_) = pred[v as usize] else {
                unreachable!("excess at {v} must be reachable from the source by flow");
            };
            // Bottleneck = min path flow, capped by the excess.
            let mut delta = state.e(v as usize);
            let mut u = v as usize;
            while u != s as usize {
                let e = pred[u].unwrap();
                delta = delta.min(residual.flow_on(e));
                u = net.edge_target(net.reverse_edge(e)) as usize;
            }
            // Cancel: push delta along each path edge's reverse.
            let mut u = v as usize;
            while u != s as usize {
                let e = pred[u].unwrap();
                residual.push(net.reverse_edge(e), delta);
                u = net.edge_target(net.reverse_edge(e)) as usize;
            }
            state.add_e(v as usize, -delta);
        }
    }
}

/// Statistics of a sequential run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SeqStats {
    /// Push operations performed.
    pub pushes: u64,
    /// Relabel operations performed.
    pub relabels: u64,
    /// Global relabeling sweeps.
    pub global_relabels: u64,
}

/// A finished max-flow run: the value it reports, and the flow assignment
/// ([`Residual`]) that [`verify`] checks it against.
#[derive(Debug)]
pub struct MaxFlow<'n> {
    /// The flow value: the excess that reached the sink.
    pub value: i64,
    /// The run's residual capacities — its flow assignment.
    pub residual: Residual<'n>,
}

/// Sequential FIFO push-relabel with global relabeling (hi_pr-style).
///
/// Computes phase-1 max flow from a zero flow, then returns the flow
/// with the run's stats.
pub fn seq(net: &FlowNetwork) -> (MaxFlow<'_>, SeqStats) {
    let n = net.num_nodes();
    let state = PfpState::new(net);
    let residual = &state.residual;
    let mut stats = SeqStats::default();
    global_relabel(net, &state);
    stats.global_relabels = 1;
    saturate_source(net, &state);

    let mut queue: std::collections::VecDeque<NodeId> = (0..n as NodeId)
        .filter(|&v| state.e(v as usize) > 0 && v != net.source() && v != net.sink())
        .collect();
    let mut relabels_since_global = 0u64;
    let interval = n as u64;

    while let Some(v) = queue.pop_front() {
        let vu = v as usize;
        if state.h(vu) >= n as u32 || state.e(vu) <= 0 {
            continue;
        }
        // Discharge v fully.
        while state.e(vu) > 0 && state.h(vu) < n as u32 {
            let mut pushed = false;
            for e in net.edge_range(v) {
                if residual.get(e) <= 0 {
                    continue;
                }
                let w = net.edge_target(e) as usize;
                if state.h(vu) == state.h(w) + 1 {
                    let delta = state.e(vu).min(residual.get(e));
                    residual.push(e, delta);
                    state.add_e(vu, -delta);
                    state.add_e(w, delta);
                    stats.pushes += 1;
                    pushed = true;
                    if w != net.source() as usize
                        && w != net.sink() as usize
                        && state.e(w) == delta
                        && state.h(w) < n as u32
                    {
                        queue.push_back(w as NodeId);
                    }
                    if state.e(vu) == 0 {
                        break;
                    }
                }
            }
            if state.e(vu) > 0 && !pushed {
                // Relabel: one above the lowest residual neighbor.
                let min_h = net
                    .edge_range(v)
                    .filter(|&e| residual.get(e) > 0)
                    .map(|e| state.h(net.edge_target(e) as usize))
                    .min()
                    .unwrap_or(u32::MAX - 1);
                state.set_h(vu, (min_h + 1).min(n as u32));
                stats.relabels += 1;
                relabels_since_global += 1;
                if relabels_since_global >= interval {
                    relabels_since_global = 0;
                    global_relabel(net, &state);
                    stats.global_relabels += 1;
                    if state.h(vu) >= n as u32 {
                        break;
                    }
                }
            }
        }
        if state.e(vu) > 0 && state.h(vu) < n as u32 {
            queue.push_back(v);
        }
    }
    (state.finish(net), stats)
}

/// Aggregate report of a Galois preflow-push run.
#[derive(Debug, Default)]
pub struct PfpReport {
    /// Merged executor statistics across bouts.
    pub stats: galois_runtime::stats::ExecStats,
    /// Executor bouts (each followed by a global relabel).
    pub bouts: u64,
    /// Per-bout reports (traces etc.).
    pub reports: Vec<RunReport>,
}

impl PfpReport {
    /// Takes every bout's round log (present when the executor recorded
    /// rounds), in bout order — together one run's monotone round sequence.
    pub fn take_round_logs(&mut self) -> Vec<galois_core::RoundLog> {
        self.reports
            .iter_mut()
            .filter_map(|bout| bout.take_round_log())
            .collect()
    }
}

/// The Galois preflow-push: executor bouts alternating with global
/// relabeling, with no observers attached ([`run`] with empty [`Hooks`]).
/// Returns `(flow, report)`.
///
/// Operator panics, livelocks and quarantine overflows in any bout come back
/// as [`ExecError`] instead of unwinding. Quarantine counters from completed
/// bouts are merged into the report before the faulting bout's error is
/// returned.
pub fn try_galois<'n>(
    net: &'n FlowNetwork,
    exec: &Executor,
) -> Result<(MaxFlow<'n>, PfpReport), ExecError> {
    run(net, exec, Hooks::default())
}

/// [`try_galois`] with the caller's observers attached. Preflow-push runs
/// *multiple* executor bouts; the same hooks ride every bout, so a probe
/// sees — and a recorder's hash chain spans — the whole multi-bout run as
/// one monotone sequence.
pub fn run<'n>(
    net: &'n FlowNetwork,
    exec: &Executor,
    mut hooks: Hooks<'_>,
) -> Result<(MaxFlow<'n>, PfpReport), ExecError> {
    let n = net.num_nodes();
    let state = PfpState::new(net);
    let residual = &state.residual;
    global_relabel(net, &state);
    saturate_source(net, &state);
    let marks = MarkTable::new(n);
    let mut out = PfpReport::default();
    // Each node may relabel at most once per bout (the slot records the
    // bout generation that used it). This caps a bout at ~n relabels, so
    // bouts alternate with exact global relabelings at hi_pr's cadence —
    // and the stall decision depends only on the node's own state, keeping
    // the deterministic schedule thread-count independent.
    let relabel_gen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let mut bout_gen: u32 = 0;
    // A cut-off source leaves no active node, so no bout ever runs: the
    // recorder must learn the executor configuration here for that
    // zero-round run to finish into a valid manifest.
    if let Some(rec) = hooks.recorder.as_deref_mut() {
        rec.capture(exec);
    }

    loop {
        let active: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| {
                state.e(v as usize) > 0
                    && state.h(v as usize) < n as u32
                    && v != net.source()
                    && v != net.sink()
            })
            .collect();
        if active.is_empty() {
            break;
        }

        let op = |t: &NodeId, ctx: &mut Ctx<'_, NodeId>| -> OpResult {
            let v = *t;
            let vu = v as usize;
            ctx.acquire(v)?;
            for e in net.edge_range(v) {
                ctx.acquire(net.edge_target(e))?;
            }
            ctx.failsafe()?;
            if v == net.source() || v == net.sink() {
                return Ok(());
            }
            let mut relabeled = relabel_gen[vu].load(Ordering::Relaxed) == bout_gen;
            while state.e(vu) > 0 && state.h(vu) < n as u32 {
                let mut pushed = false;
                for e in net.edge_range(v) {
                    if residual.get(e) <= 0 {
                        continue;
                    }
                    let w = net.edge_target(e) as usize;
                    if state.h(vu) == state.h(w) + 1 {
                        let delta = state.e(vu).min(residual.get(e));
                        residual.push(e, delta);
                        state.add_e(vu, -delta);
                        state.add_e(w, delta);
                        ctx.count_atomics(2);
                        pushed = true;
                        if w != net.source() as usize
                            && w != net.sink() as usize
                            && state.e(w) == delta
                            && state.h(w) < n as u32
                        {
                            ctx.push(w as NodeId);
                        }
                        if state.e(vu) == 0 {
                            break;
                        }
                    }
                }
                if state.e(vu) > 0 && !pushed {
                    if relabeled {
                        // This node used its relabel for the bout: stall
                        // until after the next global relabeling.
                        return Ok(());
                    }
                    let min_h = net
                        .edge_range(v)
                        .filter(|&e| residual.get(e) > 0)
                        .map(|e| state.h(net.edge_target(e) as usize))
                        .min()
                        .unwrap_or(u32::MAX - 1);
                    state.set_h(vu, (min_h + 1).min(n as u32));
                    relabel_gen[vu].store(bout_gen, Ordering::Relaxed);
                    relabeled = true;
                }
            }
            Ok(())
        };

        let report = exec
            .iterate(active)
            .with_ids(|v| *v as u64, n)
            .hooks(hooks.reborrow())
            .try_run(&marks, &op)?;
        out.stats.committed += report.stats.committed;
        out.stats.aborted += report.stats.aborted;
        out.stats.atomic_updates += report.stats.atomic_updates;
        out.stats.inspected += report.stats.inspected;
        out.stats.quarantined += report.stats.quarantined;
        out.stats.rounds += report.stats.rounds;
        out.stats.elapsed += report.stats.elapsed;
        out.stats.threads = report.stats.threads;
        out.bouts += 1;
        out.reports.push(report);

        global_relabel(net, &state);
        bout_gen = bout_gen.wrapping_add(1);
    }
    Ok((state.finish(net), out))
}

/// Checks that a run's flow assignment is valid (capacity and
/// conservation) and that its value is the one the run reported.
pub fn verify(flow: &MaxFlow<'_>) -> Result<(), String> {
    let recomputed = flow.residual.verify()?;
    if recomputed == flow.value {
        Ok(())
    } else {
        Err(format!(
            "reported flow {} != recomputed {recomputed}",
            flow.value
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_core::Schedule;

    fn small_net(seed: u64) -> FlowNetwork {
        FlowNetwork::random(48, 4, 60, seed)
    }

    #[test]
    fn seq_matches_edmonds_karp() {
        for seed in [1u64, 2, 4, 5] {
            let net = small_net(seed);
            let expect = net.edmonds_karp();
            let (flow, stats) = seq(&net);
            assert_eq!(flow.value, expect, "seed {seed}");
            assert!(stats.pushes > 0);
            verify(&flow).unwrap();
        }
    }

    #[test]
    fn galois_speculative_matches_reference() {
        let net = small_net(9);
        let expect = net.edmonds_karp();
        for threads in [1usize, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::Speculative);
            let (flow, report) = try_galois(&net, &exec).unwrap();
            assert_eq!(flow.value, expect, "threads {threads}");
            assert!(report.stats.committed > 0);
            verify(&flow).unwrap();
        }
    }

    #[test]
    fn galois_deterministic_matches_and_is_portable() {
        let net = small_net(10);
        let expect = net.edmonds_karp();
        let mut prev: Option<(u64, u64)> = None;
        for threads in [1usize, 2, 4] {
            let exec = Executor::new()
                .threads(threads)
                .schedule(Schedule::deterministic());
            let (flow, report) = try_galois(&net, &exec).unwrap();
            assert_eq!(flow.value, expect, "threads {threads}");
            let sig = (report.stats.committed, report.bouts);
            if let Some(p) = &prev {
                assert_eq!(&sig, p, "schedule changed with {threads} threads");
            }
            prev = Some(sig);
        }
    }

    #[test]
    fn diamond_flow() {
        let net = FlowNetwork::from_edges(
            4,
            &[(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3), (1, 2, 5)],
            0,
            3,
        );
        let (flow, _) = seq(&net);
        assert_eq!(flow.value, 5);
        let exec = Executor::new().schedule(Schedule::deterministic());
        let (flow, _) = try_galois(&net, &exec).unwrap();
        assert_eq!(flow.value, 5);
    }

    #[test]
    fn zero_flow_when_disconnected() {
        let net = FlowNetwork::from_edges(3, &[(0, 1, 9)], 0, 2);
        let (flow, _) = seq(&net);
        assert_eq!(flow.value, 0);
        let exec = Executor::new().schedule(Schedule::Speculative);
        let (flow, _) = try_galois(&net, &exec).unwrap();
        assert_eq!(flow.value, 0);
    }
}
