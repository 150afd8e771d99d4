//! Preflow-push max-flow with the global relabeling heuristic.
//!
//! Computes max flow on a random network three ways — a sequential
//! hi_pr-style solver, the speculative Galois operator, and the same
//! operator under deterministic DIG scheduling — verifies all three agree,
//! and checks the resulting flow assignment.
//!
//! ```text
//! cargo run --release --example maxflow -- [nodes] [threads]
//! ```

use deterministic_galois::apps::pfp;
use deterministic_galois::core::{Executor, Schedule};
use deterministic_galois::graph::FlowNetwork;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_096);
    let threads: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    println!("random flow network: {n} nodes x 4 edges, capacities 1..=1000");
    let net = FlowNetwork::random(n, 4, 1_000, 99);

    let t0 = std::time::Instant::now();
    let (flow, stats) = pfp::seq(&net);
    let flow_seq = flow.value;
    println!(
        "sequential hi_pr-style: flow {flow_seq} in {:?} ({} pushes, {} relabels, {} global relabels)",
        t0.elapsed(),
        stats.pushes,
        stats.relabels,
        stats.global_relabels
    );
    pfp::verify(&flow).expect("valid flow assignment");

    let exec = Executor::new()
        .threads(threads)
        .schedule(Schedule::Speculative);
    let t0 = std::time::Instant::now();
    let (flow, report) = pfp::try_galois(&net, &exec).unwrap();
    println!(
        "speculative ({threads}t):      flow {} in {:?} ({} tasks, {} bouts)",
        flow.value,
        t0.elapsed(),
        report.stats.committed,
        report.bouts
    );
    assert_eq!(flow.value, flow_seq);
    pfp::verify(&flow).expect("valid flow assignment");

    let exec = Executor::new()
        .threads(threads)
        .schedule(Schedule::deterministic());
    let t0 = std::time::Instant::now();
    let (flow, report) = pfp::try_galois(&net, &exec).unwrap();
    println!(
        "deterministic ({threads}t):    flow {} in {:?} ({} tasks, {} rounds, {} bouts)",
        flow.value,
        t0.elapsed(),
        report.stats.committed,
        report.stats.rounds,
        report.bouts
    );
    assert_eq!(flow.value, flow_seq);
    pfp::verify(&flow).expect("valid flow assignment");

    println!("\nall three solvers agree: max flow = {flow_seq}");
}
